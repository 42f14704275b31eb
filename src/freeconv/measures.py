"""Probability measures on the real line and their moment-level transforms.

Three measure kinds are supported: finite atomic measures with exact
rational atoms, the semicircle family, and tabulated densities on a grid.
Atomic measures are carried in exact rational arithmetic end to end; the
analytic path (transform evaluation) uses binary64.

For a measure ``mu`` supported on [0, inf) the module evaluates the
Krein transform, psi/(1 + psi) for psi(z) = E[z u/(1 - z u)], as

    K(z) = z E[u/(1 - z u)] / E[1/(1 - z u)],   z outside [0, inf),

E the integral against ``mu``.  K has no pole: E[1/(1 - z u)] is not 0
off [0, inf), as every term's imaginary part has the sign of Im z, and
on the negative axis every term is positive.  K is analytic and
nonpositive on the negative real axis and vanishes at 0-;
multiplicative free convolution is subordinated at the level of K.

User rationals become floats through ``as_float``, which turns binary64
overflow into a DomainError.

A grid is read as its nodal measure, sum of w_i delta(x_i) with
w_i = f_i (x_(i+1) - x_(i-1))/2 >= 0 (half an interval at either end),
against which its trapezoid integrals are sums.  Its nodes of positive
weight are its ``float_atoms``, and K, for ``krein_k`` and the
diagnostics of the convolution module alike, sums over the float atoms
of an atomic or grid measure.  numpy stays only in ``hankel_psd``.

The float layer (``krein_k`` and the convolution module) has
one gate, ``float_measures``, which passes atomic and grid measures on
[0, inf), or in M+, and refuses the rest in its caller's words.  Those
measures cache what the float layer reads: ``float_atoms``,
``positive_supported`` and ``float_mean``, m_1 in binary64.

Positivity is the constructors' to guarantee, and no moment path checks
it again.  Atomic weights are nonnegative and sum to 1, a semicircle's
radius is positive, and a grid density is nonnegative with trapezoid
mass within 1e-12 of 1.  So the Hankel matrices (m_(i+j)) of every
sequence ``moments`` returns are PSD, and so are the shifted ones
(m_(i+j+1)) for support in [0, inf): an atomic measure's are Gram
matrices, sum of w v v^T over its atoms with v = (1, x, x^2, ...), a
semicircle's moments are a measure's, and a grid's moments are those of
its nodal measure.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

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
    "hankel_psd",
    "krein_k",
    "is_positive_supported",
    "in_m_plus",
    "float_measures",
    "measure_from_json",
    "measure_to_json",
]

#: How close to the positive real axis an evaluation point may get,
#: relative to its modulus: |Im z| <= AXIS_TOLERANCE * |z| counts as on it.
AXIS_TOLERANCE = 1e-14

RationalLike = Union[Fraction, int, str, float]


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
    So is a decimal string whose exponent exceeds the int-string
    conversion limit in magnitude, which Fraction would expand in full:
    "1e100000000" is refused at once, not built as 10^(10^8).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        # the limit is new in Python 3.10.7; 4300 is its default
        limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        _, e, exponent = value.lower().partition("e")
        try:
            too_large = bool(limit and e) and abs(int(exponent)) > limit
        except ValueError:  # no integer: Fraction rejects the string below
            too_large = False
        if too_large:
            raise ParseError(f"cannot interpret {_clip(value)} as a rational: "
                             f"its exponent exceeds {limit} in magnitude")
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

    @cached_property
    def float_mean(self) -> float:
        """m_1 in binary64, taken once: the exact mean, then ``as_float``."""
        return as_float(sum(w * loc for loc, w in self.atoms))


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


def _grid_fields(x: Sequence[float], f: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    """A grid's abscissae and density as floats.  Anything but two flat
    sequences of one length, a string or a mapping included, raises
    DomainError."""
    if not all(isinstance(v, Iterable) and not isinstance(v, (str, dict)) for v in (x, f)) or any(
        hasattr(v, "__len__") and not isinstance(v, str) for v in (*x, *f)
    ) or len(x) != len(f):
        raise DomainError("grid abscissae and density must be 1-d and equal length")
    try:
        return tuple(map(_grid_entry, x)), tuple(map(_grid_entry, f))
    except OverflowError:  # a rational past the binary64 range
        raise ParseError("grid abscissae and density values must be finite") from None


def _grid_entry(value) -> float:
    """A grid entry as a float.  A "p/q" string is read as a rational field
    is, then rounded; ``float()`` reads every other entry, and rounds a
    decimal string as it rounds that rational."""
    return float(as_fraction(value) if isinstance(value, str) and "/" in value else value)


def _nodal_weights(x: Sequence[float], f: Sequence[float]) -> list[float]:
    """w_i = f_i (x_(i+1) - x_(i-1))/2, with half an interval at either
    end: the trapezoid rule over ``x`` as a sum of weighted nodes."""
    ends = (x[0], *x, x[-1])
    return [v * (ends[i + 2] - ends[i]) * 0.5 for i, v in enumerate(f)]


class DensityGrid(Value):
    """Density tabulated on an ascending grid, trapezoid-normalized.

    ``x`` and ``f`` are tuples of floats.  The trapezoid integral of ``f``
    over ``x`` must equal 1 within 1e-12; use :meth:`normalized` to
    rescale raw samples.  The float routines read the grid as its nodal
    measure, ``float_atoms``.
    """

    x: tuple[float, ...]
    f: tuple[float, ...]

    def __init__(self, x: Sequence[float], f: Sequence[float]):
        xs, fs = _grid_fields(x, f)
        # JSON true and false are not numbers here, though bool is an int subclass
        if any(type(v) is bool for seq in (x, f) if isinstance(seq, (list, tuple)) for v in seq):
            raise ParseError("grid abscissae and density values must be numbers, not booleans")
        if len(xs) < 2:
            raise DomainError("density grid needs at least 2 nodes")
        if not all(map(math.isfinite, xs + fs)):
            raise ParseError("grid abscissae and density values must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("grid abscissae must be strictly ascending")
        if any(v < 0 for v in fs):
            raise DomainError("density values must be nonnegative")
        mass = sum(_nodal_weights(xs, fs))
        if not abs(mass - 1.0) <= 1e-12:  # nan, too, for 0 * inf
            raise DomainError(f"density must integrate to 1 within 1e-12, got {mass!r}")
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "f", fs)

    @classmethod
    def normalized(cls, x: Sequence[float], f: Sequence[float]) -> "DensityGrid":
        xs, fs = _grid_fields(x, f)
        mass = sum(_nodal_weights(xs, fs))
        if mass <= 0:
            raise DomainError("cannot normalize a density with nonpositive mass")
        return cls(xs, [v / mass for v in fs])

    @cached_property
    def float_atoms(self) -> tuple[tuple[float, float], ...]:
        """The nodal measure as (location, weight) pairs, leaving out each
        node of zero weight: one below 0 may sit at 1/z, where its term in
        K would be 0/0."""
        return tuple((u, w) for u, w in zip(self.x, _nodal_weights(self.x, self.f)) if w > 0)

    @cached_property
    def positive_supported(self) -> bool:
        """True when the trapezoid density vanishes below 0, decided once: it
        is positive inside each interval with a positive end."""
        return not any(a < 0 and (fa > 0 or fb > 0) for a, fa, fb in zip(self.x, self.f, self.f[1:]))

    @cached_property
    def float_mean(self) -> float:
        """m_1 of the nodal measure, taken once: the ``math.fsum`` of ``moments``."""
        return float(moments(self, 1).m(1))


Measure = Union[Atomic, Semicircle, DensityGrid]


def is_positive_supported(mu: Measure) -> bool:
    """True when the support of ``mu`` lies in [0, inf)."""
    if isinstance(mu, (Atomic, DensityGrid)):
        return mu.positive_supported
    if isinstance(mu, Semicircle):
        return mu.center - mu.radius >= 0
    raise TypeError(f"not a measure: {mu!r}")


def in_m_plus(mu: Measure) -> bool:
    """True when ``mu`` is supported on [0, inf) with mass at 0 below 1: with
    a top atom above 0 in binary64, as the float layer reads it (a grid's
    nodal measure; an atom below 2^-1075 rounds to 0).  A semicircle has none."""
    if not is_positive_supported(mu):
        return False
    if isinstance(mu, Atomic):
        top = mu.atoms[-1][0]
        return top >= 1 or float(top) > 0  # no float() of a top past binary64
    if isinstance(mu, DensityGrid):
        return mu.float_atoms[-1][0] > 0
    return True


def float_measures(*mus: Measure, support: str, semicircle: str, m_plus: bool = False):
    """The one gate into the float layer: ``mus``, atomic or grid measures
    whose float atoms it may read, or DomainError in the caller's words:
    ``support`` off [0, inf) (with ``m_plus``, outside M+), else
    ``semicircle`` for a kind with no float atoms.  Every support is
    checked before any kind, so a pair fails alike in either order."""
    in_domain = in_m_plus if m_plus else is_positive_supported
    for mu in mus:
        if not in_domain(mu):
            raise DomainError(support)
    for mu in mus:
        if isinstance(mu, Semicircle):
            raise DomainError(semicircle)
    return mus


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

    Atomic and semicircle measures are exact.  A grid's moments are those
    of its nodal measure, each summed by ``math.fsum`` and promoted to a
    rational by its exact float ratio; one past the binary64 range raises
    DomainError.  The sequence is returned unchecked: every measure kind's
    constructor makes it a measure's moment sequence (see the module
    docstring), so its Hankel matrices are PSD, for a grid up to binary64
    rounding.
    """
    if order < 1:
        raise DomainError("moment order must be >= 1")
    if isinstance(mu, Atomic):
        vals = [sum(w * loc ** k for loc, w in mu.atoms) for k in range(1, order + 1)]
    elif isinstance(mu, Semicircle):
        # odd centered moments vanish; off center, a binomial expansion
        half = mu.radius / 2
        centered = [0 if j % 2 else catalan(j // 2) * half ** j for j in range(order + 1)]
        vals = centered[1:] if mu.center == 0 else [
            sum(math.comb(k, j) * mu.center ** (k - j) * centered[j] for j in range(k + 1))
            for k in range(1, order + 1)
        ]
    elif isinstance(mu, DensityGrid):
        vals = []
        for k in range(1, order + 1):
            try:  # u^k or the sum past binary64 raises, w u^k may round to inf
                vals.append(math.fsum(w * u ** k for u, w in mu.float_atoms))
            except OverflowError:
                vals.append(math.inf)
            if not math.isfinite(vals[-1]):
                raise DomainError(f"the grid moment m_{k} is outside the binary64 range")
    else:
        raise TypeError(f"not a measure: {mu!r}")
    return MomentSequence(vals)


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
    covers the rounding of a grid's moments.  No moment path
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


def _krein(atoms: Sequence[tuple[float, float]], z: Union[float, complex]):
    """K(z) = z sum w u/(1 - z u) / sum w/(1 - z u) over ``atoms``, for z
    off [0, inf), which the callers check.  The denominator underflows to
    0 only when every 1 - z u overflows, and K with it: DomainError, as
    for any non-finite K."""
    num = den = 0.0
    for u, w in atoms:
        spread = 1.0 - z * u
        num += w * u / spread
        den += w / spread
    value = z * num / den if den else math.inf
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(f"K at z={z} is outside the binary64 range")
    return value


def krein_k(mu: Measure, z: complex) -> complex:
    """Krein transform K at z off [0, inf), in real arithmetic when z is
    real.  On the negative real axis K is real, nonpositive, and tends to
    0 at 0-."""
    float_measures(mu, support="transform evaluation requires support in [0, inf)",
                   semicircle="transform evaluation is not supported for semicircle measures; "
                   "they participate through moments only")
    z = complex(z)
    if abs(z.imag) <= AXIS_TOLERANCE * abs(z) and z.real >= 0.0:
        raise DomainError(f"evaluation point {z} lies on [0, inf)")
    return complex(_krein(mu.float_atoms, z.real if z.imag == 0.0 else z))


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
        payload = {"kind": "grid", "x": mu.x, "f": mu.f}
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
