"""The benchmark's traced run finds every library function it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACED_JOB = Path(__file__).resolve().parent.parent / "bench" / "traced_job.py"


def test_trace_boundaries_resolve():
    spec = importlib.util.spec_from_file_location("traced_job", TRACED_JOB)
    traced_job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_job)
    missing = [
        f"freeconv.{module}.{attr}"
        for module, attr, _ in traced_job.BOUNDARIES
        if not callable(getattr(importlib.import_module(f"freeconv.{module}"), attr, None))
    ]
    assert traced_job.BOUNDARIES and not missing
