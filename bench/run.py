"""End-to-end benchmark of the freeconv CLI, with an opt-in per-layer trace.

Usage (from the repository root)::

    python3 bench/run.py --workload exact-series --seed 0 --seconds 40 --trace 0

A workload is a list of jobs.  Each job is one fresh ``python -m
freeconv.cli`` process, as users run the tool, or one fresh library
script (``bench/libjob.py``).  Jobs run one at a time (a closed loop with
one client), with BLAS/OpenMP pinned to one thread.  A pass runs the
whole list; the run repeats passes while the next one still fits in
``--seconds`` and reports medians over passes.

End-to-end metrics: ``setup_s`` (median of 5 fresh ``import freeconv``
processes), ``wall_s`` (the pass's job wall times summed),
``slowest_job_s`` (the pass's longest job), ``peak_rss_mb`` (largest
max-RSS of any job in the pass, from that child's own rusage) and
``ok_frac`` (jobs that passed every check over jobs attempted).  The
times are scaled to a reference host speed: other tenants of the host
slow this machine by up to 1.7x for tens of seconds at a time, which
spread unscaled run medians by 10-42% (IQR over median, 10 runs).  Each
job's wall time is multiplied by ``CALIBRATION_REFERENCE_S / c``, where
``c`` is the median time of ``calibrate()`` sampled before, during and
after the job.  The unscaled medians are printed as comment lines.

Inputs come from ``--seed``: atomic measures with small-denominator
rational atoms are written to files, and the matrix seeds are drawn from
the same generator.  The program sees only those files and its argv.
Every output is checked: exact rows against ``bench/reference.json``
(recorded with ``--record`` at the default seed; jobs on the demo
measures are checked at every seed), identities that hold for any
seed, and float bounds.  A job that exits non-zero, times out or fails a
check counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, in which each job runs once through
``bench/traced_job.py``, and prints the per-layer metrics: self time and
calls per boundary function, counters, the import breakdown from ``-X
importtime``, and the tracing overhead (median traced minus untraced
pass wall time).  Traced job outputs must equal the untraced ones byte
for byte.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction as F
from importlib import metadata
from pathlib import Path

from traced_job import BOUNDARIES, RESULT_COUNTERS

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEMOS = "demos/data"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 60.0
# calibrate() on a 2-vCPU Xeon VM while the host was quiet (10th percentile of
# 300 calls).  It sets only the scale of the reported times, so it stays
# fixed across commits.
CALIBRATION_REFERENCE_S = 0.0020
PROBE_INTERVAL_S = 0.1
SUBORDINATE_TOL = 1e-12  # the CLI's default --tol, also used by boxtimes
IMPORT_PACKAGES = ("numpy", "scipy", "freeconv")


class BenchError(Exception):
    """The benchmark cannot run here at all (no result is printed)."""


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

# Two atoms each, so the exact jobs cost about the same at every seed.
POSITIVE_LOCATIONS = [F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3)]
POSITIVE_SPLITS = [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)]
SYMMETRIC_LOCATIONS = [F(1, 2), F(1), F(3, 2), F(2)]
# Weight 1/4 on each of +-a makes kappa_4 vanish, which would delay the
# first witness against freeness past the scanned degree.
SYMMETRIC_WEIGHTS = [F(1, 8), F(1, 6), F(1, 3), F(3, 8)]


def positive_measure(rng: random.Random) -> list[tuple[F, F]]:
    """Two atoms in [1/2, 3]: in M+ with m_1 != 0, as the boxtimes jobs need."""
    low, high = sorted(rng.sample(POSITIVE_LOCATIONS, 2))
    w = rng.choice(POSITIVE_SPLITS)
    return [(low, w), (high, 1 - w)]


def symmetric_measure(rng: random.Random) -> list[tuple[F, F]]:
    """Centered symmetric atoms -a, 0, a: a valid dichotomy marginal."""
    a = rng.choice(SYMMETRIC_LOCATIONS)
    w = rng.choice(SYMMETRIC_WEIGHTS)
    return [(-a, w), (F(0), 1 - 2 * w), (a, w)]


def atom_json(atoms) -> str:
    return json.dumps({"kind": "atomic", "atoms": [[str(x), str(w)] for x, w in atoms]})


def read_atoms(path: Path) -> list[tuple[F, F]]:
    data = json.loads(path.read_text())
    return [(F(x), F(w)) for x, w in data["atoms"]]


def atom_moments(atoms, order: int) -> list[F]:
    return [sum(w * x ** k for x, w in atoms) for k in range(1, order + 1)]


@dataclass
class Inputs:
    """Measure files (paths relative to the repository root) and seeds."""

    files: dict[str, str]
    atoms: dict[str, list[tuple[F, F]]]
    seeds: dict[str, int]


def generate_inputs(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    generated = {
        "pos1": positive_measure(rng),
        "pos2": positive_measure(rng),
        "sym": symmetric_measure(rng),
    }
    seeds = {name: rng.randrange(2 ** 32) for name in ("goe1", "goe2", "diag", "lib")}
    workdir.mkdir(parents=True, exist_ok=True)
    files, atoms = {}, {}
    for name, measure in generated.items():
        path = workdir / f"{name}.json"
        path.write_text(atom_json(measure) + "\n")
        files[name] = str(path.relative_to(ROOT))
        atoms[name] = measure
    for name in ("bernoulli", "two_point", "rademacher", "semicircle", "delta1", "delta2"):
        files[name] = f"{DEMOS}/{name}.json"
        if name != "semicircle":
            atoms[name] = read_atoms(ROOT / files[name])
    return Inputs(files, atoms, seeds)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """One process: CLI argv (or a library script's argv) plus its check."""

    name: str
    argv: list[str]
    check: str
    seeded: bool
    script: str | None = None
    expect: dict = field(default_factory=dict)


def exact_series(inp: Inputs) -> list[Job]:
    """Short exact-rational jobs: import, cumulant conversions and the series.

    The order-32 Taylor job runs on fixed demo measures, so the slowest
    job has the same input at every seed.
    """
    f, a = inp.files, inp.atoms
    return [
        Job("moments-gen", ["moments", f["pos2"], "--order", "32"], "exact", True,
            expect={"moments": atom_moments(a["pos2"], 32)}),
        Job("cumulants-free-demo", ["cumulants", f["two_point"], "--order", "32", "--kind", "free"],
            "exact", False),
        Job("cumulants-boolean-gen", ["cumulants", f["pos1"], "--order", "32", "--kind", "boolean"],
            "exact", True),
        Job("boxplus-semicircle-rademacher",
            ["boxplus", f["semicircle"], f["rademacher"], "--order", "16"], "exact", False),
        Job("boxplus-shift-gen", ["boxplus", f["pos1"], f["delta2"], "--order", "16"], "exact",
            True, expect={"moments": atom_moments([(x + 2, w) for x, w in a["pos1"]], 16)}),
        Job("boxtimes-unit-p16-gen", ["boxtimes", f["pos2"], f["delta1"], "--order", "16"],
            "exact", True, expect={"moments": atom_moments(a["pos2"], 16)}),
        Job("boxtimes-p24-gen", ["boxtimes", f["pos1"], f["pos2"], "--order", "24"], "exact", True),
        Job("boxtimes-p32-demo", ["boxtimes", f["bernoulli"], f["two_point"], "--order", "32"],
            "exact", False),
        Job("boxtimes-all-p12-demo",
            ["boxtimes", f["bernoulli"], f["two_point"], "--order", "12", "--method", "all"],
            "boxtimes-all", False),
        Job("boxtimes-all-p12-gen",
            ["boxtimes", f["pos1"], f["pos2"], "--order", "12", "--method", "all"],
            "boxtimes-all", True),
    ]


def lq_dichotomy(inp: Inputs) -> list[Job]:
    """(L, Q) dichotomy jobs: joint moments through the NC word engine."""
    f = inp.files
    cases = [
        ("rademacher", 2, 8, "not-free-", False),
        ("rademacher", 3, 8, "not-free-", False),
        ("rademacher", 4, 8, "not-free-", False),
        ("semicircle", 2, 12, "consistent-with-free", False),
        ("semicircle", 3, 8, "consistent-with-free", False),
        ("sym", 3, 8, "not-free-", True),
    ]
    return [
        Job(f"characterize-{m}-n{n}-d{d}",
            ["characterize", f[m], "--preset", "mean-variance", "--n", str(n), "--max-len", str(d)],
            "characterize", seeded, expect={"verdict": verdict})
        for m, n, d, verdict, seeded in cases
    ]


def numeric_float(inp: Inputs) -> list[Job]:
    """Float jobs: solver, quadrature, sampling and the Jacobi eigen-solver."""
    f, s = inp.files, inp.seeds
    return [
        Job("subordinate-grid31", ["subordinate", f["pos1"], f["pos2"]], "subordinate", True),
        Job("boxtimes-subordination-p8",
            ["boxtimes", f["pos1"], f["pos2"], "--order", "8", "--method", "subordination"],
            "boxtimes-sub", True),
        Job("diagnose-a0.25", ["diagnose", f["pos1"], "--alpha", "0.25"], "diagnose", True),
        Job("diagnose-a0.75", ["diagnose", f["pos2"], "--alpha", "0.75"], "diagnose", True),
        Job("matrixlab-goe-T1^2-N256",
            ["matrixlab", "--word", "T1^2", "--N", "256", "--trials", "200",
             "--seed", str(s["goe1"])], "matrixlab", True),
        Job("matrixlab-goe-T1T2T1T2-N128",
            ["matrixlab", "--word", "T1 T2 T1 T2", "--N", "128", "--trials", "200",
             "--seed", str(s["goe2"])], "matrixlab", True),
        Job("matrixlab-diagonal-two_point-N256",
            ["matrixlab", "--word", "T1^2", "--N", "256", "--trials", "200", "--ensemble",
             "diagonal", "--measure", f["two_point"], "--seed", str(s["diag"])],
            "matrixlab", True),
        Job("libjob-inequalities-norms", [str(s["lib"])], "libjob", True,
            script="bench/libjob.py"),
    ]


WORKLOADS = {
    "exact-series": exact_series,
    "lq-dichotomy": lq_dichotomy,
    "numeric-float": numeric_float,
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(job: Job, code: int, text: str) -> tuple[list[str], str | None]:
    """Check one job's output.  Returns (errors, digest of the exact part)."""
    if code != 0:
        return [f"exit code {code}"], None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"], None
    try:
        return check_document(job, doc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"], None


def check_document(job: Job, doc: dict) -> tuple[list[str], str | None]:
    errors: list[str] = []
    exact = None
    kind = job.check
    if kind == "exact":
        exact = {"rows": doc["rows"], "moments": doc.get("moments")}
        want = job.expect.get("moments")
        if want is not None and [row[1] for row in doc["rows"]] != [str(v) for v in want]:
            errors.append("moments differ from the value computed from the atoms")
    elif kind == "boxtimes-all":
        exact = {"rows": [row[:3] for row in doc["rows"]],
                 "taylor_equals_oracle": doc["taylor_equals_oracle"]}
        if doc["taylor_equals_oracle"] is not True:
            errors.append("Taylor and word-oracle moments differ")
    elif kind == "characterize":
        exact = {"rows": doc["rows"], "verdict": doc["verdict"],
                 "max_abs_deviation": doc["max_abs_deviation"]}
        if not doc["verdict"].startswith(job.expect["verdict"]):
            errors.append(f"verdict {doc['verdict']!r}, expected {job.expect['verdict']!r}...")
    elif kind == "subordinate":
        if len(doc["rows"]) != 31:
            errors.append(f"{len(doc['rows'])} grid rows, expected 31")
        for row in doc["rows"]:
            if max(float(row[4]), float(row[5])) > SUBORDINATE_TOL:
                errors.append(f"residual above tol at z={row[0]}")
    elif kind == "boxtimes-sub":
        if max(doc["residuals"]) > SUBORDINATE_TOL:
            errors.append(f"residuals {doc['residuals']} above tol")
    elif kind == "diagnose":
        _, lower, integral, upper, verdict = doc["rows"][0]
        if not float(lower) <= float(integral) <= float(upper):
            errors.append(f"sandwich fails: {lower} <= {integral} <= {upper}")
        if verdict != "finite":
            errors.append(f"verdict {verdict!r} for an atomic measure")
    elif kind == "matrixlab":
        _, n, _, mean, se, exact_value, _ = doc["rows"][0]
        bound = 3 * float(se) + 5.0 / n
        if abs(float(mean) - float(exact_value)) > bound:
            errors.append(f"mean {mean} is off exact {exact_value} by more than {bound:.3g}")
    elif kind == "libjob":
        if doc["inequalities"]["passed"] is not True:
            errors.append(f"inequality violations: {doc['inequalities']['violations'][:3]}")
        for value, reference in doc["norms"]:
            if abs(value - reference) > 1e-9 * max(1.0, abs(reference)):
                errors.append(f"ncLp_norm {value!r} differs from eigvalsh {reference!r}")
    else:
        raise ValueError(f"unknown check {kind!r}")
    return errors, (digest(exact) if exact is not None else None)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        FREECONV_THREADS="1",
    )
    return env


def calibrate() -> float:
    """CPU seconds this thread takes for a fixed load of integer and allocation work.

    CPU time, not wall time, so that sharing a CPU with the job does not
    count; a slow host still shows, because it stretches CPU time too.
    """
    start = time.thread_time()
    acc = 0
    for i in range(13_000):
        acc += i * i % 7
    table = dict.fromkeys(range(0, 40_000, 3))
    acc += len([k * 3 for k in table])
    return time.thread_time() - start


@dataclass
class ProcResult:
    code: int
    wall_s: float
    scaled_s: float  # wall_s at the reference host speed
    maxrss_mib: float
    timed_out: bool


def spawn(cmd: list[str], stdout_path: Path, stderr_path: Path, env) -> ProcResult:
    """Run one process to completion; rusage comes from this child alone.

    Other tenants of the host slow this machine by up to 1.7x for tens of
    seconds at a time.  calibrate() is timed before, after, and every
    PROBE_INTERVAL_S during the job, and the median of those samples tells
    how fast the host ran meanwhile; the job's wall time is scaled by it.
    """
    samples = [calibrate()]
    done = threading.Event()

    def probe() -> None:
        while not done.wait(PROBE_INTERVAL_S):
            samples.append(calibrate())

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        prober = threading.Thread(target=probe)
        prober.start()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(JOB_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            done.set()
            prober.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    samples.append(calibrate())
    scaled = wall * CALIBRATION_REFERENCE_S / statistics.median(samples)
    return ProcResult(proc.returncode, wall, scaled, usage.ru_maxrss / 1024.0, killed.is_set())


@dataclass
class JobResult:
    job: Job
    proc: ProcResult
    output: str
    errors: list[str]
    digest: str | None


@dataclass
class PassResult:
    elapsed_s: float  # real time the pass took, calibration included
    results: list[JobResult]
    spans: dict[str, dict] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)


class Runner:
    """Runs passes over one workload's jobs and checks every output."""

    def __init__(self, workload: str, seed: int, jobs: list[Job], workdir: Path,
                 reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.jobs = jobs
        self.workdir = workdir
        self.reference = reference
        self.env = job_env()

    def command(self, job: Job, traced: bool, spans_path: Path) -> list[str]:
        if traced:
            head = [sys.executable, "bench/traced_job.py", str(spans_path)]
            return head + (["script", job.script] if job.script else ["cli"]) + job.argv
        if job.script:
            return [sys.executable, job.script, *job.argv]
        return [sys.executable, "-m", "freeconv.cli", *job.argv]

    def check(self, job: Job, code: int, output: str) -> tuple[list[str], str | None]:
        """Output checks plus, where one applies, the recorded reference."""
        errors, exact = check_output(job, code, output)
        if exact is not None and self.reference is not None and (
            not job.seeded or self.seed == DEFAULT_SEED
        ):
            want = self.reference.get(f"{self.workload}/{job.name}")
            if want is None:
                errors.append("no reference recorded for this job")
            elif want != exact:
                errors.append("exact rows differ from the recorded reference")
        return errors, exact

    def run_job(self, job: Job, traced: bool) -> tuple[JobResult, dict]:
        stem = self.workdir / f"{job.name}{'.traced' if traced else ''}"
        spans_path = stem.with_suffix(".spans.json")
        stdout_path = stem.with_suffix(".out")
        proc = spawn(self.command(job, traced, spans_path), stdout_path,
                     stem.with_suffix(".err"), self.env)
        output = stdout_path.read_text()
        if proc.timed_out:
            errors, exact = [f"timed out after {JOB_TIMEOUT_S:.0f} s"], None
        else:
            errors, exact = self.check(job, proc.code, output)
        if proc.code != 0:
            tail = (stem.with_suffix(".err")).read_text().strip().splitlines()[-1:]
            errors += [f"stderr: {line}" for line in tail]
        trace = {}
        if traced and spans_path.exists():
            trace = json.loads(spans_path.read_text())
        return JobResult(job, proc, output, errors, exact), trace

    def run_pass(self, traced: bool = False) -> PassResult:
        start = time.perf_counter()
        results, spans, counters = [], {}, {}
        for job in self.jobs:
            result, trace = self.run_job(job, traced)
            results.append(result)
            for label, stat in trace.get("spans", {}).items():
                agg = spans.setdefault(label, {"calls": 0, "self_s": 0.0})
                agg["calls"] += stat["calls"]
                agg["self_s"] += stat["self_s"]
            for name, value in trace.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
        return PassResult(time.perf_counter() - start, results, spans, counters)


def pass_wall(p: PassResult, raw: bool = False) -> float:
    return sum(r.proc.wall_s if raw else r.proc.scaled_s for r in p.results)


def slowest_job(p: PassResult, raw: bool = False) -> float:
    return max(r.proc.wall_s if raw else r.proc.scaled_s for r in p.results)


def check_package(env) -> None:
    """Fail unless freeconv imports from this checkout's src/."""
    if not (ROOT / "src" / "freeconv" / "__init__.py").is_file():
        raise BenchError(f"no freeconv package under {ROOT / 'src'}")
    probe = subprocess.run(
        [sys.executable, "-c", "import freeconv; print(freeconv.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
    )
    want = (ROOT / "src" / "freeconv" / "__init__.py").resolve()
    if probe.returncode != 0 or Path(probe.stdout.strip()).resolve() != want:
        raise BenchError(f"freeconv does not import from {want}: {probe.stderr.strip()[-300:]}")


def measure_setup(workdir: Path, env, repeats: int) -> tuple[float, float]:
    """Median (scaled, raw) wall time of a fresh ``python -c 'import freeconv'``."""
    runs = []
    for _ in range(repeats):
        res = spawn([sys.executable, "-c", "import freeconv"], workdir / "setup.out",
                    workdir / "setup.err", env)
        if res.code != 0:
            raise BenchError("import freeconv failed: " + (workdir / "setup.err").read_text())
        runs.append(res)
    return (statistics.median(r.scaled_s for r in runs),
            statistics.median(r.wall_s for r in runs))


def import_breakdown(env) -> dict[str, float]:
    """Seconds of ``import freeconv`` owned by numpy, scipy and freeconv.

    Each module's self time goes to the nearest enclosing import (itself
    included) whose top-level package is one of IMPORT_PACKAGES, so
    standard-library modules count toward the package that pulled them in.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import freeconv"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError("import freeconv failed under -X importtime")
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    owners: list[str | None] = []
    # importtime prints a module after its imports; reversed, parents come first.
    for line in reversed(proc.stderr.splitlines()):
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, _, label = line.split("|", 2)
        name = label.strip()
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        root = name.split(".")[0]
        owner = root if root in totals else (owners[depth - 1] if 0 < depth <= len(owners) else None)
        del owners[depth:]
        owners.append(owner)
        if owner is not None:
            totals[owner] += int(head.split(":")[1])
    return {f"import.{pkg}_s": us / 1e6 for pkg, us in totals.items()}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def span_labels() -> list[str]:
    return [label for _, _, label in BOUNDARIES]


def per_layer_names() -> list[str]:
    names = [f"import.{pkg}_s" for pkg in IMPORT_PACKAGES]
    for label in span_labels():
        names += [f"{label}.self_s", f"{label}.calls"]
    names += [counter for counter, _ in RESULT_COUNTERS.values()]
    names.append("trace.overhead_s")
    return names


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def provenance() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        if git.returncode == 0:
            sha = git.stdout.strip()
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        **versions,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def run(args) -> dict:
    env = job_env()
    check_package(env)
    reference = None if args.record else (
        json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    )
    workdir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    try:
        inputs = generate_inputs(args.seed, workdir)
        runner = Runner(args.workload, args.seed, WORKLOADS[args.workload](inputs), workdir,
                        reference)
        print("# provenance " + json.dumps(provenance()))
        start = time.perf_counter()

        def fits(next_pass_s: float) -> bool:
            return time.perf_counter() - start + next_pass_s <= args.seconds

        if args.record:
            return record(args, runner)
        if args.trace:
            return traced_run(runner, env, fits)
        setup = measure_setup(workdir, env, SETUP_REPEATS)
        passes = [runner.run_pass()]
        while fits(passes[-1].elapsed_s):
            passes.append(runner.run_pass())
        return timed_report(passes, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def failures(passes: list[PassResult]) -> tuple[int, int]:
    attempted = failed = 0
    for p in passes:
        for r in p.results:
            attempted += 1
            if r.errors:
                failed += 1
                print(f"# FAIL {r.job.name}: {'; '.join(r.errors)}", file=sys.stderr)
    return attempted, failed


def timed_report(passes: list[PassResult], setup: tuple[float, float]) -> dict:
    attempted, failed = failures(passes)
    metrics = {
        "setup_s": metric(setup[0], "s"),
        "wall_s": metric(statistics.median(map(pass_wall, passes)), "s"),
        "slowest_job_s": metric(statistics.median(map(slowest_job, passes)), "s"),
        "peak_rss_mb": metric(
            statistics.median(max(r.proc.maxrss_mib for r in p.results) for p in passes), "MiB"),
        "ok_frac": metric((attempted - failed) / attempted, "fraction"),
    }
    raw = {
        "setup_s": setup[1],
        "wall_s": statistics.median(pass_wall(p, raw=True) for p in passes),
        "slowest_job_s": statistics.median(slowest_job(p, raw=True) for p in passes),
    }
    print(f"# passes={len(passes)} jobs/pass={len(passes[0].results)}")
    for name, m in metrics.items():
        unscaled = f" (unscaled {raw[name]:.6g} s)" if name in raw else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{unscaled}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(runner: Runner, env, fits) -> dict:
    untraced, traced, imports = [], [], []
    while True:
        untraced.append(runner.run_pass())
        traced.append(runner.run_pass(traced=True))
        imports.append(import_breakdown(env))
        for plain, withspans in zip(untraced[-1].results, traced[-1].results):
            if plain.output != withspans.output:
                withspans.errors.append("traced output differs from the untraced output")
        if not fits(untraced[-1].elapsed_s + traced[-1].elapsed_s):
            break
    attempted, failed = failures(untraced + traced)
    values: dict[str, float] = {}
    for name in imports[0]:
        values[name] = statistics.median(b[name] for b in imports)
    for label in span_labels():
        stats = [p.spans.get(label, {"calls": 0, "self_s": 0.0}) for p in traced]
        values[f"{label}.self_s"] = statistics.median(s["self_s"] for s in stats)
        values[f"{label}.calls"] = statistics.median(s["calls"] for s in stats)
    for counter, _ in RESULT_COUNTERS.values():
        values[counter] = statistics.median(p.counters.get(counter, 0) for p in traced)
    values["trace.overhead_s"] = (statistics.median(map(pass_wall, traced))
                                  - statistics.median(map(pass_wall, untraced)))
    metrics = {name: metric(values[name], unit_of(name)) for name in per_layer_names()}
    ranked = sorted((v["self_s"], k) for k, v in traced[-1].spans.items())
    print(f"# traced passes={len(traced)} top self time: "
          + ", ".join(f"{k} {s:.3f}s" for s, k in reversed(ranked[-4:])))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def record(args, runner: Runner) -> dict:
    """Write this workload's exact-row digests at the default seed."""
    if args.seed != DEFAULT_SEED:
        raise BenchError(f"references are recorded at the default seed {DEFAULT_SEED}")
    result = runner.run_pass()
    attempted, failed = failures([result])
    if failed:
        raise BenchError("not recording a reference from failing jobs")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference = {k: v for k, v in reference.items() if not k.startswith(args.workload + "/")}
    for r in result.results:
        if r.digest is not None:
            reference[f"{args.workload}/{r.job.name}"] = r.digest
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": {"wall_s": metric(pass_wall(result, raw=True), "s")}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record exact-row digests for this workload at the default seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
