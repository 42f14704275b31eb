"""Probability measures on the real line and their moment-level transforms.

Three measure kinds are supported: finite atomic measures with exact
rational atoms, the semicircle family, and tabulated densities on a grid.
Atomic measures are carried in exact rational arithmetic end to end; the
analytic path (transform evaluation) uses binary64.

For a measure ``mu`` supported on [0, inf) the module evaluates

    psi(z)  = integral of z*x / (1 - z*x) d mu(x),   z outside [0, inf),
    K(z)    = psi(z) / (1 + psi(z)),

the moment generating transform and its Krein-class companion.  K is
analytic and nonpositive on the negative real axis and vanishes at 0-;
multiplicative free convolution is subordinated at the level of K.

User rationals become floats through ``as_float``, which turns binary64
overflow into a DomainError.  ``quad`` is the package's one quadrature
rule (tanh-sinh), used by the diagnostics of the convolution module; it
integrates a scalar function in plain Python.

Atomic and semicircle measures need numpy neither for exact work nor for
floats, so numpy is imported only where a grid or a matrix is at hand:
``DensityGrid``, the grid branches of ``moments``, ``psi`` and
``fractional_moment``, and ``hankel_psd``.

Positivity is the constructors' to guarantee, and no moment path checks
it again.  Atomic weights are nonnegative and sum to 1, a semicircle's
radius is positive, and a grid density is nonnegative with trapezoid
mass within 1e-12 of 1.  So the Hankel matrices (m_(i+j)) of every
sequence ``moments`` returns are PSD, and so are the shifted ones
(m_(i+j+1)) for support in [0, inf): an atomic measure's are Gram
matrices, sum of w v v^T over its atoms with v = (1, x, x^2, ...), a
semicircle's moments are a measure's, and a grid's trapezoid moments are
those of its nodal measure, sum of w_i delta(x_i) with
w_i = f_i (x_(i+1) - x_(i-1))/2 >= 0, where the end nodes take half an
interval.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, Union

from .errors import DomainError, ParseError

__all__ = [
    "Atomic",
    "Semicircle",
    "DensityGrid",
    "Measure",
    "MomentSequence",
    "as_fraction",
    "as_float",
    "catalan",
    "moments",
    "quad",
    "fractional_moment",
    "hankel_psd",
    "psi",
    "krein_k",
    "is_positive_supported",
    "in_m_plus",
    "measure_from_json",
    "measure_to_json",
]

#: How close to the positive real axis an evaluation point may get,
#: relative to its modulus: |Im z| <= AXIS_TOLERANCE * |z| counts as on it.
AXIS_TOLERANCE = 1e-14

#: How close 1 + psi may get to zero before K is considered at a pole.
POLE_TOLERANCE = 1e-14

RationalLike = Union[Fraction, int, str, float]

if TYPE_CHECKING:
    import numpy as np


def _clip(value: object, width: int = 40) -> str:
    """repr of ``value``, cut after ``width`` characters naming its length."""
    text = repr(value)
    return text if len(text) <= width else f"{text[:width]}... ({len(text)} characters)"


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts Fractions, ints, "p/q" strings and finite floats.  Floats
    are promoted by their exact binary64 ratio, so the quantization is
    the one already present in the input.  Booleans are not numbers
    here, though bool is an int subclass: JSON ``true`` is a ParseError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, float)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"cannot interpret {_clip(value)} as a rational") from exc
    raise ParseError(f"cannot interpret {type(value).__name__} as a rational")


def as_float(value: Fraction) -> float:
    """Binary64 value of a rational from the user.

    Raises DomainError when the value lies beyond the binary64 range; the
    message gives its order of magnitude, not its digits, which may run
    to thousands.
    """
    try:
        return float(value)
    except OverflowError:
        exponent = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        sign = "-" if value < 0 else ""
        magnitude = f"{sign}{10 ** (exponent % 1):.4g}e+{math.floor(exponent)}"
        raise DomainError(f"{magnitude} is outside the binary64 range") from None


# ---------------------------------------------------------------------------
# measure kinds
# ---------------------------------------------------------------------------


class Value:
    """Immutable value, compared, hashed and printed by the fields its
    class annotates.  ``__init__`` sets each field once, past
    ``__setattr__``; any other assignment raises AttributeError."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__annotations__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in type(self).__annotations__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Atomic(Value):
    """Finite atomic measure: rational locations with rational weights.

    Weights must be nonnegative and sum exactly to one.  Atoms are
    normalized to ascending location order; zero-weight atoms are dropped.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, atoms: Iterable[tuple[RationalLike, RationalLike]]):
        pairs = sorted(
            (as_fraction(loc), as_fraction(w)) for loc, w in atoms
        )
        pairs = [(loc, w) for loc, w in pairs if w != 0]
        if not pairs:
            raise DomainError("atomic measure needs at least one atom")
        if any(w < 0 for _, w in pairs):
            raise DomainError("atom weights must be nonnegative")
        if len({loc for loc, _ in pairs}) != len(pairs):
            raise DomainError("atom locations must be distinct")
        total = sum(w for _, w in pairs)
        if total != 1:
            raise DomainError(f"atom weights must sum to 1, got {total}")
        object.__setattr__(self, "atoms", tuple(pairs))

    @cached_property
    def float_atoms(self) -> tuple[tuple[float, float], ...]:
        """The atoms as binary64 (location, weight) pairs, converted once.

        Raises DomainError, on every access, when a location overflows.
        """
        return tuple((as_float(loc), as_float(w)) for loc, w in self.atoms)

    @cached_property
    def positive_supported(self) -> bool:
        """True when every location is >= 0, decided once: the float
        transforms ask on every evaluation."""
        return self.atoms[0][0] >= 0

    def weight_at(self, location: RationalLike) -> Fraction:
        loc = as_fraction(location)
        for x, w in self.atoms:
            if x == loc:
                return w
        return Fraction(0)


class Semicircle(Value):
    """Semicircle distribution with density 2/(pi r^2) * sqrt((r^2 - (x-m)^2)+).

    ``center`` and ``radius`` are stored as exact rationals so that the
    moment recursion stays exact; floats are promoted by their binary64
    ratio.
    """

    center: Fraction
    radius: Fraction

    def __init__(self, center: RationalLike, radius: RationalLike):
        c = as_fraction(center)
        r = as_fraction(radius)
        if r <= 0:
            raise DomainError("semicircle radius must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)


class DensityGrid(Value):
    """Density tabulated on an ascending grid, trapezoid-normalized.

    The trapezoid integral of ``f`` over ``x`` must equal 1 within 1e-12;
    use :meth:`normalized` to rescale raw samples.  Grids compare by
    identity: arrays have no single truth value to compare by.
    """

    x: np.ndarray
    f: np.ndarray
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, x: Sequence[float], f: Sequence[float]):
        import numpy as np

        xa = np.asarray(x, dtype=float)
        fa = np.asarray(f, dtype=float)
        if xa.ndim != 1 or fa.shape != xa.shape:
            raise DomainError("grid abscissae and density must be 1-d and equal length")
        # JSON true and false are not numbers here, though bool is an int subclass
        if any(type(v) is bool for seq in (x, f) if isinstance(seq, (list, tuple)) for v in seq):
            raise ParseError("grid abscissae and density values must be numbers, not booleans")
        if xa.size < 2:
            raise DomainError("density grid needs at least 2 nodes")
        if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(fa))):
            raise ParseError("grid abscissae and density values must be finite")
        if not np.all(np.diff(xa) > 0):
            raise DomainError("grid abscissae must be strictly ascending")
        if np.any(fa < 0):
            raise DomainError("density values must be nonnegative")
        mass = float(np.trapezoid(fa, xa))
        if abs(mass - 1.0) > 1e-12:
            raise DomainError(f"density must integrate to 1 within 1e-12, got {mass!r}")
        xa.setflags(write=False)
        fa.setflags(write=False)
        object.__setattr__(self, "x", xa)
        object.__setattr__(self, "f", fa)

    @classmethod
    def normalized(cls, x: Sequence[float], f: Sequence[float]) -> "DensityGrid":
        import numpy as np

        xa = np.asarray(x, dtype=float)
        fa = np.asarray(f, dtype=float)
        mass = float(np.trapezoid(fa, xa))
        if mass <= 0:
            raise DomainError("cannot normalize a density with nonpositive mass")
        return cls(xa, fa / mass)


Measure = Union[Atomic, Semicircle, DensityGrid]


def is_positive_supported(mu: Measure) -> bool:
    """True when the support of ``mu`` lies in [0, inf)."""
    if isinstance(mu, Atomic):
        return mu.positive_supported
    if isinstance(mu, Semicircle):
        return mu.center - mu.radius >= 0
    if isinstance(mu, DensityGrid):
        # the trapezoid density is positive inside an interval with a positive end
        starts_below = mu.x[:-1] < 0
        return not (starts_below & ((mu.f[:-1] > 0) | (mu.f[1:] > 0))).any()
    raise TypeError(f"not a measure: {mu!r}")


def in_m_plus(mu: Measure) -> bool:
    """True when ``mu`` is supported on [0, inf) with mass at 0 below 1."""
    if not is_positive_supported(mu):
        return False
    if isinstance(mu, Atomic):
        return mu.weight_at(0) < 1
    return True


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


class MomentSequence(Value):
    """Exact rational moments m_1..m_D of a distribution (m_0 = 1 implicit)."""

    moments: tuple[Fraction, ...]

    def __init__(self, values: Iterable[RationalLike]):
        vals = tuple(as_fraction(v) for v in values)
        if not vals:
            raise DomainError("a moment sequence needs order >= 1")
        object.__setattr__(self, "moments", vals)

    @property
    def order(self) -> int:
        return len(self.moments)

    def m(self, k: int) -> Fraction:
        """Moment m_k, with m_0 = 1."""
        if k == 0:
            return Fraction(1)
        if not 1 <= k <= self.order:
            raise DomainError(f"moment m_{k} outside stored order {self.order}")
        return self.moments[k - 1]

    def __iter__(self):
        return iter(self.moments)


def catalan(n: int) -> int:
    """n-th Catalan number: |NC(n)|, and the 2n-th moment of Semicircle(0, 2)."""
    if n < 0:
        raise DomainError("Catalan index must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def moments(mu: Measure, order: int) -> MomentSequence:
    """Exact moments m_k = integral of x^k d mu for k = 1..order.

    Atomic and semicircle measures are exact; grid measures are integrated
    by the composite trapezoid rule and the binary64 results promoted to
    rationals by their exact float ratio.  The sequence is returned
    unchecked: every measure kind's constructor makes it a measure's
    moment sequence (see the module docstring), so its Hankel matrices
    are PSD, for a grid up to binary64 rounding.
    """
    if order < 1:
        raise DomainError("moment order must be >= 1")
    if isinstance(mu, Atomic):
        vals = [sum(w * loc ** k for loc, w in mu.atoms) for k in range(1, order + 1)]
    elif isinstance(mu, Semicircle):
        # binomial expansion about the center; odd centered moments vanish
        half = mu.radius / 2
        centered = [0 if j % 2 else catalan(j // 2) * half ** j for j in range(order + 1)]
        vals = [
            sum(math.comb(k, j) * mu.center ** (k - j) * centered[j] for j in range(k + 1))
            for k in range(1, order + 1)
        ]
    elif isinstance(mu, DensityGrid):
        import numpy as np

        vals = [
            as_fraction(float(np.trapezoid(mu.f * mu.x ** k, mu.x)))
            for k in range(1, order + 1)
        ]
    else:
        raise TypeError(f"not a measure: {mu!r}")
    return MomentSequence(vals)


#: Cutoff |t| of the tanh-sinh nodes: there the weight has fallen to
#: 2.8e-21 of the half-length of the interval, and the nearest node sits
#: 5.4e-23 of it from the end.
TANH_SINH_T = 3.5

#: Step halvings after the first level; the last has step 1/512 and
#: 3,585 nodes.
TANH_SINH_LEVELS = 8


def quad(
    func: Callable[[float], float], a: float, b: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Integral of ``func`` over [a, b] by the tanh-sinh rule, with its error.

    The double-exponential substitution of Takahasi and Mori (1974),
    x = c + r tanh(pi/2 sinh t), sends the ends of [a, b] to t = -inf and
    inf, where the weights decay doubly exponentially, so square-root or
    power behavior at an end needs no splitting.  Node positions are
    formed from their distance to the nearer end, which stays exact in
    relative terms close to the ends.  The trapezoid rule in t starts at
    step 1/2 and halves it, reusing every earlier node, until two levels
    agree to within ``tol``; the difference of the last two levels is
    returned as the error estimate.  ``func`` maps one node to one float,
    and each level's weighted values are summed by ``math.fsum``.  A
    non-finite sum returns at once with an infinite error.
    """
    c, r = 0.5 * (a + b), 0.5 * (b - a)

    def weighted_sum(ts: range, h: float) -> float:
        terms = []
        for k in ts:
            # e = exp(-2|u|) with u = pi/2 sinh t: 1 - tanh|u| = 2e/(1+e) and
            # sech(u)^2 = 4e/(1+e)^2
            t = k * h
            e = math.exp(-math.pi * math.sinh(t))
            dist = 2.0 * r * e / (1.0 + e)
            weight = 2.0 * math.pi * r * math.cosh(t) * e / (1.0 + e) ** 2
            terms += (weight * func(a + dist), weight * func(b - dist))
        try:
            return math.fsum(terms)
        except (OverflowError, ValueError):  # inf - inf, or a finite overflow
            return sum(terms)

    h = 0.5
    total = 0.5 * math.pi * r * func(c) + weighted_sum(range(1, int(TANH_SINH_T / h) + 1), h)
    value = h * total
    for _ in range(TANH_SINH_LEVELS):
        h *= 0.5
        total += weighted_sum(range(1, int(TANH_SINH_T / h) + 1, 2), h)
        previous, value = value, h * total
        error = abs(value - previous)
        if not math.isfinite(value):
            return value, math.inf
        if error <= tol:
            break
    return value, error


def fractional_moment(mu: Measure, alpha: float) -> float:
    """m_alpha = integral of x^alpha d mu for a positively supported atomic
    or grid measure."""
    if alpha < 0:
        raise DomainError("fractional moment order must be >= 0")
    if isinstance(mu, Semicircle):
        raise DomainError("fractional moments are not evaluated for semicircles; "
                          "semicircles are moments-only")
    if not is_positive_supported(mu):
        raise DomainError("fractional moments require support in [0, inf)")
    if isinstance(mu, Atomic):
        return sum(as_float(w) * as_float(loc) ** alpha for loc, w in mu.atoms if loc > 0) + (
            float(mu.weight_at(0)) if alpha == 0 else 0.0
        )
    if isinstance(mu, DensityGrid):
        import numpy as np

        xs = np.where(mu.x > 0, mu.x, 0.0)
        return float(np.trapezoid(mu.f * xs ** alpha, mu.x))
    raise TypeError(f"not a measure: {mu!r}")


def dilate(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """A dilation c and the integers c^k s_k for s_1..s_D = ``values``:
    from c = 1, each s_k with denominator d sets c <- c d / gcd(c^k, d),
    which keeps the earlier c^j s_j integral.  Nothing is factored, and c
    stays far below the lcm of the denominators."""
    c = 1
    for k, s in enumerate(values, 1):
        c = c * s.denominator // math.gcd(c ** k, s.denominator)
    return c, [s.numerator * (c ** k // s.denominator) for k, s in enumerate(values, 1)]


def undilate(ints: Sequence[int], c: int) -> list[Fraction]:
    """Coefficient k divided by c^k: the one division of a dilated series."""
    return [Fraction(v, c ** k) for k, v in enumerate(ints, 1)]


def _hankel_matrices(ms: Sequence, shifted: bool) -> list[list[list]]:
    """The largest Hankel matrix (m_(i+j)) that m_0, m_1, ... = ``ms``
    fills, and with ``shifted`` also the once-shifted one (m_(i+j+1))."""
    sizes = [(0, (len(ms) + 1) // 2)] + ([(1, len(ms) // 2)] if shifted else [])
    return [[[ms[i + j + s] for j in range(n)] for i in range(n)] for s, n in sizes]


def hankel_psd(seq: MomentSequence, shifted: bool = False, tol: float = 1e-9) -> bool:
    """Check positive semidefiniteness of the Hankel matrices of a sequence.

    ``shifted`` additionally checks the once-shifted Hankel matrix, the
    extra condition satisfied by measures on [0, inf).  The check runs in
    binary64 with tolerance ``tol`` relative to the matrix scale, which
    covers the rounding of a grid's trapezoid moments.  No moment path
    calls it: the sequences of :func:`moments` pass by construction (see
    the module docstring).
    """
    import numpy as np

    def psd(mat: np.ndarray) -> bool:
        scale = max(1.0, float(np.abs(mat).max()))
        return bool(np.linalg.eigvalsh(mat).min() >= -tol * scale)

    return all(
        psd(np.array(mat, dtype=float)) for mat in _hankel_matrices([1, *seq.moments], shifted)
    )


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _require_transform_domain(mu: Measure, z: complex) -> complex:
    if isinstance(mu, Semicircle):
        raise DomainError(
            "transform evaluation is not supported for semicircle measures; "
            "they participate through moments only"
        )
    if not is_positive_supported(mu):
        raise DomainError("transform evaluation requires support in [0, inf)")
    z = complex(z)
    if abs(z.imag) <= AXIS_TOLERANCE * abs(z) and z.real >= 0.0:
        raise DomainError(f"evaluation point {z} lies on [0, inf)")
    return z


def psi(mu: Measure, z: complex) -> complex:
    """Moment generating transform: integral of z*x/(1 - z*x) d mu(x)."""
    z = _require_transform_domain(mu, z)
    if isinstance(mu, Atomic):
        return sum(w * z * loc / (1.0 - z * loc) for loc, w in mu.float_atoms)
    import numpy as np

    # a node with f = 0 may sit at the pole x = 1/z
    vals = np.divide(z * mu.x, 1.0 - z * mu.x, out=np.zeros(mu.x.shape, complex), where=mu.f > 0)
    return complex(np.trapezoid(mu.f * vals, mu.x))


def krein_k(mu: Measure, z: complex) -> complex:
    """Krein transform K = psi / (1 + psi).

    On the negative real axis K is real, nonpositive, and tends to 0 at
    0-.  Raises when 1 + psi comes within ``POLE_TOLERANCE`` of zero.
    """
    p = psi(mu, z)
    denom = 1.0 + p
    if abs(denom) <= POLE_TOLERANCE:
        raise DomainError(f"K evaluated too close to a pole at z={z}")
    return p / denom


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def measure_to_json(mu: Measure) -> str:
    """Serialize a measure to its JSON interchange form."""
    if isinstance(mu, Atomic):
        payload = {
            "kind": "atomic",
            "atoms": [[str(loc), str(w)] for loc, w in mu.atoms],
        }
    elif isinstance(mu, Semicircle):
        payload = {
            "kind": "semicircle",
            "center": str(mu.center),
            "radius": str(mu.radius),
        }
    elif isinstance(mu, DensityGrid):
        payload = {"kind": "grid", "x": mu.x.tolist(), "f": mu.f.tolist()}
    else:
        raise TypeError(f"not a measure: {mu!r}")
    return json.dumps(payload)


def measure_from_json(source: Union[str, dict]) -> Measure:
    """Parse a measure from JSON text or an already-decoded dict.

    Schemas::

        {"kind": "atomic", "atoms": [["0", "1/2"], ["1", "1/2"]]}
        {"kind": "semicircle", "center": "0", "radius": "2"}
        {"kind": "grid", "x": [...], "f": [...]}

    Rational fields take "p/q" strings (as written by
    :func:`measure_to_json`) or JSON numbers.
    """
    if isinstance(source, str):
        try:
            data = json.loads(source)
        # ValueError also for a number past the int-string limit,
        # RecursionError for arrays or objects nested too deeply
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid measure JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("measure JSON must be an object with a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "atomic":
            return Atomic([(loc, w) for loc, w in data["atoms"]])
        if kind == "semicircle":
            return Semicircle(data["center"], data["radius"])
        if kind == "grid":
            return DensityGrid(data["x"], data["f"])
    except KeyError as exc:
        raise ParseError(f"measure JSON missing field: {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, DomainError):
            raise
        raise ParseError(f"malformed measure JSON: {exc}") from exc
    raise ParseError(f"unknown measure kind: {kind!r}")
