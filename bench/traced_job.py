"""Run one benchmark job in-process with per-layer spans around freeconv.

Usage::

    python bench/traced_job.py SPANS_OUT cli ARGV...
    python bench/traced_job.py SPANS_OUT script SCRIPT.py ARGV...

The job's standard output and exit code are those of the untraced job.
Each boundary function in ``BOUNDARIES`` is wrapped, and every name in a
``freeconv.*`` module namespace that refers to it is rebound, so calls
between modules (and inside a module) pass through the wrapper without
any change to the package source.  A span's self time is its duration
minus the durations of the spans it directly contains.  Per-label call
counts and self times, plus the counters, are written to SPANS_OUT as
JSON when the job ends.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import json
import sys
import time

# (module, attribute, span label); labels are the benchmark's layer names.
BOUNDARIES = [
    ("cli", "main", "cli.main"),
    ("measures", "moments", "measures.moments"),
    ("measures", "hankel_psd", "measures.hankel_psd"),
    ("measures", "krein_k", "measures.krein_k"),
    ("transforms", "boolean_from_moments", "transforms.boolean_from_moments"),
    ("transforms", "moments_from_boolean", "transforms.moments_from_boolean"),
    ("transforms", "free_from_moments", "transforms.free_from_moments"),
    ("transforms", "moments_from_free", "transforms.moments_from_free"),
    ("convolution", "boxplus_moments", "convolution.boxplus_moments"),
    ("convolution", "boxtimes_moments", "convolution.boxtimes_moments"),
    ("convolution", "boxtimes_word_oracle", "convolution.boxtimes_word_oracle"),
    ("convolution", "solve_subordination", "convolution.solve_subordination"),
    ("convolution", "fractional_diagnostics", "convolution.fractional_diagnostics"),
    ("convolution", "quad", "scipy.quad"),
    ("word_engine", "mixed_moment", "word_engine.mixed_moment"),
    ("word_engine", "centered_product_moment", "word_engine.centered_product_moment"),
    ("characterize", "freeness_dichotomy", "characterize.freeness_dichotomy"),
    ("characterize", "joint_moment", "characterize.joint_moment"),
    ("characterize", "form_moments", "characterize.form_moments"),
    ("matrix_lab", "sample_family", "matrix_lab.sample_family"),
    ("matrix_lab", "estimate_word_traces", "matrix_lab.estimate_word_traces"),
    ("matrix_lab", "verify_inequalities", "matrix_lab.verify_inequalities"),
    ("matrix_lab", "singular_values", "matrix_lab.singular_values"),
]

# Counters read off a boundary's return value: label -> (counter, getter).
RESULT_COUNTERS = {
    "convolution.solve_subordination": (
        "convolution.subordination_iters",
        lambda sol: sol.iterations,
    ),
    "matrix_lab.verify_inequalities": (
        "matrix_lab.inequality_checks",
        lambda report: report.checks,
    ),
}


class Tracer:
    """Aggregates span self times and call counts for one process."""

    def __init__(self):
        self.spans: dict[str, dict] = {}
        self.counters: dict[str, int] = {}
        self._child_time: list[float] = []

    def wrap(self, label: str, func):
        counter = RESULT_COUNTERS.get(label)
        stat = self.spans.setdefault(label, {"calls": 0, "self_s": 0.0})
        stack = self._child_time

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat["calls"] += 1
                stat["self_s"] += elapsed - children
            if counter is not None:
                name, get = counter
                self.counters[name] = self.counters.get(name, 0) + get(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every boundary and rebind each freeconv name bound to it."""
        importlib.import_module("freeconv")
        for module_name, attr, label in BOUNDARIES:
            module = importlib.import_module(f"freeconv.{module_name}")
            original = getattr(module, attr)
            wrapper = self.wrap(label, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "freeconv" or name.startswith("freeconv.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


def main(argv: list[str]) -> int:
    spans_out, mode, *rest = argv
    tracer = Tracer()
    tracer.install()
    try:
        if mode == "cli":
            from freeconv import cli

            code = cli.main(rest)
        elif mode == "script":
            script, *script_argv = rest
            spec = importlib.util.spec_from_file_location("bench_script", script)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            code = module.main(script_argv)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        sys.stdout.flush()
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
