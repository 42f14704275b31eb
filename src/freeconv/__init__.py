"""freeconv: free-probability transform calculus at moment level.

Exact rational engines for boolean/free cumulants, additive and
multiplicative free convolution, subordination, mixed moments of free
families over non-crossing partitions, a moment-level test of the
semicircle characterization by freeness of linear and quadratic forms,
and a random-matrix Monte Carlo lab.

Importing the package loads only the exception classes.  Every other
name in ``__all__`` is resolved on first access by the module
``__getattr__`` (PEP 562), which imports the one module that defines it,
so exact work never pays for numpy or for the modules it does not use.

Cumulants are plain tuples: ``boolean_from_moments`` and
``free_from_moments`` return ``tuple[Fraction, ...]``, and their inverses
take any sequence of rationals.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, DomainError, FreeconvError, ParseError

_EXPORTS = {
    "measures": (
        "Atomic", "DensityGrid", "Measure", "MomentSequence", "Semicircle", "catalan",
        "krein_k", "measure_from_json", "measure_to_json", "moments",
    ),
    "transforms": (
        "boolean_from_moments", "boxplus_moments", "boxtimes_moments", "boxtimes_word_oracle",
        "free_from_moments", "moments_from_boolean", "moments_from_free",
    ),
    "word_engine": ("Word", "mixed_moment"),
    "convolution": ("fractional_diagnostics", "solve_subordination"),
    "characterize": (
        "QuadraticFormSpec", "freeness_dichotomy", "joint_moment",
        "preset_sample_mean_variance", "validate_spec",
    ),
    "matrix_lab": (
        "MatrixEnsembleSpec", "ncLp_norm", "sample_family", "verify_inequalities",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


__all__ = [
    "__version__", "FreeconvError", "ParseError", "DomainError", "ConvergenceError", *_MODULE_OF,
]
