"""Self-tests of the benchmark harness.

Usage (from the repository root)::

    python3 bench/selftest.py

Checks that the output checker flags a tampered exact row, a flipped
verdict and a non-zero exit; that traced and untraced runs of the same
jobs print byte-identical output (the span wrappers change no result);
that the import breakdown parses; and that the metric names match
``BENCHMARK.json``.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

FAILURES: list[str] = []


def expect(condition: bool, label: str) -> None:
    print(("ok   " if condition else "FAIL ") + label)
    if not condition:
        FAILURES.append(label)


def tamper_first_row(output: str, column: int, new_value: str) -> str:
    doc = json.loads(output)
    doc["rows"][0][column] = new_value
    return json.dumps(doc)


def main() -> int:
    workdir = run.ROOT / ".bench_build" / "selftest"
    reference = json.loads(run.REFERENCE.read_text())
    try:
        inputs = run.generate_inputs(run.DEFAULT_SEED, workdir)
        jobs = {w: {j.name: j for j in make(inputs)} for w, make in run.WORKLOADS.items()}
        runners = {
            w: run.Runner(w, run.DEFAULT_SEED, list(js.values()), workdir, reference)
            for w, js in jobs.items()
        }

        exact = runners["exact-series"]
        moments_job = jobs["exact-series"]["moments-gen"]
        result, _ = exact.run_job(moments_job, traced=False)
        expect(not result.errors, "moments job passes its checks and the reference")
        tampered = tamper_first_row(result.output, 1, "12345/7")
        errors, _ = exact.check(moments_job, 0, tampered)
        expect(any("reference" in e for e in errors), "tampered exact row differs from reference")
        expect(any("atoms" in e for e in errors), "tampered moment differs from the atoms")
        errors, _ = exact.check(moments_job, 3, result.output)
        expect(errors == ["exit code 3"], "non-zero exit code is a failure")

        lq = runners["lq-dichotomy"]
        char_job = jobs["lq-dichotomy"]["characterize-rademacher-n2-d8"]
        result, _ = lq.run_job(char_job, traced=False)
        expect(not result.errors, "characterize job passes its checks and the reference")
        doc = json.loads(result.output)
        doc["verdict"] = "consistent-with-free"
        errors, _ = lq.check(char_job, 0, json.dumps(doc))
        expect(any("verdict" in e for e in errors), "flipped verdict is flagged")

        bad = run.Job("missing-input", ["moments", "no/such/file.json", "--order", "3"],
                      "exact", True)
        result, _ = exact.run_job(bad, traced=False)
        expect(result.proc.code == 2 and result.errors[0] == "exit code 2",
               "a job that exits non-zero is flagged")

        float_job = jobs["numeric-float"]["diagnose-a0.25"]
        result, _ = runners["numeric-float"].run_job(float_job, traced=False)
        doc = json.loads(result.output)
        row = doc["rows"][0]
        row[1], row[3] = row[3], row[1]
        errors, _ = runners["numeric-float"].check(float_job, 0, json.dumps(doc))
        expect(any("sandwich" in e for e in errors), "swapped diagnose bounds are flagged")

        for workload, name in [
            ("exact-series", "boxtimes-all-p12-gen"),
            ("exact-series", "cumulants-free-demo"),
            ("lq-dichotomy", "characterize-sym-n3-d8"),
            ("numeric-float", "subordinate-grid31"),
            ("numeric-float", "diagnose-a0.75"),
            ("numeric-float", "matrixlab-goe-T1T2T1T2-N128"),
            ("numeric-float", "libjob-inequalities-norms"),
        ]:
            job = jobs[workload][name]
            plain, _ = runners[workload].run_job(job, traced=False)
            traced, trace = runners[workload].run_job(job, traced=True)
            expect(not plain.errors and not traced.errors and plain.output == traced.output
                   and bool(trace.get("spans")),
                   f"{name}: traced output is byte-identical and spans were recorded")

        breakdown = run.import_breakdown(run.job_env())
        expect(all(v > 0 for v in breakdown.values()), f"import breakdown {breakdown}")

        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        expect([m["name"] for m in spec["per_layer"]] == run.per_layer_names(),
               "BENCHMARK.json per_layer names match the traced metrics")
        expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
               "BENCHMARK.json workloads match the harness")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
