"""Library-script job: L^p inequality sweep and noncommutative norms.

Usage::

    python bench/libjob.py SEED

Samples 40 GOE triples at N = 24 and checks the L^p inequality families
on them, then computes the noncommutative L^3 norm of 8 Wishart 32x32
matrices.  Prints one JSON document; each norm is paired with a
reference from ``numpy.linalg.eigvalsh`` so the caller can check it.
Library functions are looked up on their module at call time, so a
tracer that rebinds them sees these calls.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from freeconv import matrix_lab

TRIPLES = 40
TRIPLE_N = 24
WISHARTS = 8
WISHART_N = 32
NORM_P = 3.0


def main(argv: list[str]) -> int:
    seed = int(argv[0])
    goe = matrix_lab.MatrixEnsembleSpec(dimension=TRIPLE_N, count=3, kind="goe", seed=seed)
    triples = [
        matrix_lab.sample_family(goe, np.random.default_rng([seed, t]))
        for t in range(TRIPLES)
    ]
    report = matrix_lab.verify_inequalities(triples, (3.0, 3.0, 3.0))

    wishart = matrix_lab.MatrixEnsembleSpec(
        dimension=WISHART_N, count=WISHARTS, kind="wishart", seed=seed
    )
    norms = []
    for x in matrix_lab.sample_family(wishart):
        sigma = np.sqrt(np.clip(np.linalg.eigvalsh(x.T @ x), 0.0, None))
        reference = float(np.mean(sigma ** NORM_P) ** (1.0 / NORM_P))
        norms.append([matrix_lab.ncLp_norm(x, NORM_P), reference])

    json.dump(
        {
            "inequalities": {
                "passed": report.passed,
                "checks": report.checks,
                "violations": list(report.violations),
            },
            "norms": norms,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
