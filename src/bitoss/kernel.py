"""Multisets, finite distributions, and their algebra.

Values live on arbitrary finite point sets.  A point is a small integer
(one-dimensional spaces such as coin faces or toss counts), a tuple of small
integers (product spaces such as ``{0,1}^N`` or count grids), an opaque
hashable label (``"R"``, ``"G"``, ...), or a :class:`Multiset` (draws are
points of multinomial distributions).  Points of one space must be mutually
orderable; every iteration, serialization, and sampling order is the sorted
point order, so results are deterministic.

Probabilities come in two modes that are never mixed silently:

* ``"rational"``, exact `fractions.Fraction` values (always lowest terms,
  positive denominator), for identity and closure checks;
* ``"float"``, IEEE-754 doubles, for EM, KL divergence, and Poisson work.

Operations that combine two distributions require equal modes and raise
:class:`ModeMismatch` otherwise.  A rational :class:`Dist` stores integer
numerators over one common denominator, and exact sums run on those
integers, not as `Fraction` adds; each `Fraction` is built on first read.

The :class:`Dist` and :class:`Multiset` constructors are the one place that
adds up repeated points: pushforwards, mixtures and convolutions hand them
``(point, value)`` pairs, repeated points add up, zero entries are dropped,
and negative (or NaN) entries are refused.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Callable, Iterable, NamedTuple

RATIONAL = "rational"
FLOAT = "float"

FLOAT_NORM_TOL = 1e-9
DEFAULT_MSET_CAP = 10_000_000
MSET_CAP_ENV = "BITOSS_MSET_CAP"


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class BitossError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyMultiset(BitossError):
    """An operation needing a non-empty multiset received the empty one."""


class ResourceLimit(BitossError):
    """An enumeration would exceed the configured multiset cap."""


class WrongSpace(BitossError):
    """A value lives on a different point set than the operation requires."""


class SupportMismatch(BitossError):
    """A support inclusion precondition fails (e.g. KL with q(x) = 0)."""


class DomainMismatch(BitossError):
    """A channel was applied to a point outside its domain."""


class OutOfRange(BitossError):
    """A numeric parameter is outside its admissible range."""


class Infeasible(OutOfRange):
    """Moments that no distribution of the required kind has."""


class DegenerateObservation(BitossError):
    """An observation has zero probability under the model."""


class ModeMismatch(BitossError):
    """Exact-rational and float values were combined in one operation."""


class NotNormalized(BitossError):
    """Probabilities do not sum to one (exactly, or within float tolerance)."""


# ---------------------------------------------------------------------------
# Scalar helpers (mode discipline)
# ---------------------------------------------------------------------------


_SCALAR_TYPES = {RATIONAL: Fraction, FLOAT: float}


def coerce_scalar(value, mode: str):
    """Coerce ``value`` into ``mode``, rejecting cross-mode values.

    Plain ``int`` is mode-agnostic and converts either way; `Fraction` only
    enters rational mode and `float` only float mode.
    """
    if type(value) is _SCALAR_TYPES.get(mode):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, float)):
        raise OutOfRange(f"not a supported scalar: {value!r}")
    if mode == RATIONAL:
        if isinstance(value, float):
            raise ModeMismatch(f"float {value!r} in rational-mode computation")
        return Fraction(value)
    if mode == FLOAT:
        if isinstance(value, Fraction):
            raise ModeMismatch(f"Fraction {value!r} in float-mode computation")
        return float(value)
    raise OutOfRange(f"unknown mode {mode!r}")


def over(num, den):
    """``num / den`` as a value: the `Fraction` for an ``int`` denominator,
    ``num`` itself when ``den`` is ``None`` (float mode)."""
    return num if den is None else Fraction(num, den)


def check_count(value, name: str, low: int = 0) -> int:
    """``value`` if it is an ``int``, not a ``bool``, of at least ``low``;
    :class:`OutOfRange` otherwise."""
    if type(value) is int and value >= low:
        return value
    raise OutOfRange(f"{name} must be an integer >= {low}, got {value!r}")


def zero(mode: str):
    return Fraction(0) if mode == RATIONAL else 0.0


def require_modes_equal(a: "Dist", b: "Dist") -> str:
    if a.mode != b.mode:
        raise ModeMismatch(f"cannot combine {a.mode} with {b.mode} distributions")
    return a.mode


# ---------------------------------------------------------------------------
# Multiset
# ---------------------------------------------------------------------------


class Multiset:
    """An immutable finite multiset: points with positive integer counts.

    Supports are kept sorted, zero multiplicities are never stored, and
    ``+`` is the commutative monoid addition with ``Multiset()`` as unit.
    Multisets are hashable and totally ordered (by their sorted entry
    tuples), so they can themselves serve as points of a distribution.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping | Iterable[tuple[object, int]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        acc: dict = {}
        for point, mult in items:
            if check_count(mult, "multiplicity"):
                acc[point] = acc.get(point, 0) + mult
        object.__setattr__(self, "_entries", tuple(sorted(acc.items())))

    @classmethod
    def _from_sorted(cls, entries: tuple) -> "Multiset":
        """Wrap canonical entries (distinct sorted points, positive int
        counts) as they are: nothing is checked or summed."""
        phi = cls.__new__(cls)
        object.__setattr__(phi, "_entries", entries)
        return phi

    @classmethod
    def from_elements(cls, elements: Iterable) -> "Multiset":
        """Count an iterable of points into a multiset."""
        return cls(Counter(elements))

    @property
    def size(self) -> int:
        """Total number of elements, counting multiplicity."""
        return sum(m for _, m in self._entries)

    def support(self) -> tuple:
        return tuple(p for p, _ in self._entries)

    def items(self) -> tuple:
        return self._entries

    def __call__(self, point) -> int:
        for p, m in self._entries:
            if p == point:
                return m
        return 0

    def __add__(self, other: "Multiset") -> "Multiset":
        if not isinstance(other, Multiset):
            return NotImplemented
        return Multiset(self._entries + other._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Multiset) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __lt__(self, other: "Multiset") -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._entries < other._entries

    def __le__(self, other: "Multiset") -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._entries <= other._entries

    def __repr__(self) -> str:
        if not self._entries:
            return "Multiset()"
        return " + ".join(f"{m}|{p}>" for p, m in self._entries)


# ---------------------------------------------------------------------------
# Dist
# ---------------------------------------------------------------------------


class Dist:
    """An immutable finite probability distribution.

    Built from ``(point, probability)`` pairs or a mapping, or, given
    ``den``, from ``(point, integer numerator)`` pairs over ``den`` (rational
    mode).  Probabilities at a repeated point add up (exactly in rational
    mode, in the given order in float mode), zero entries are dropped, and a
    negative or NaN entry raises :class:`OutOfRange`, so the support is
    exactly the stored key set.  Construction validates normalization:
    exactly one in rational mode, within ``FLOAT_NORM_TOL`` in float mode.

    The sorted points are kept with their weights: the values in float mode;
    in rational mode integer numerators over one denominator, divided by
    their gcd, which makes the denominator the lcm of the lowest-terms ones
    and the pair canonical.  `Fraction` values and the lookup index are
    built on first read.
    """

    __slots__ = ("_points", "_nums", "_den", "_entries", "_index")

    def __init__(self, entries: Mapping | Iterable[tuple], mode: str | None = None, den: int | None = None):
        items = entries.items() if isinstance(entries, Mapping) else entries
        if den is not None:
            if mode not in (None, RATIONAL):
                raise ModeMismatch(f"numerators over a denominator are rational, not {mode}")
            check_count(den, "denominator", 1)
        else:
            items = list(items)
            if mode is None:
                mode = FLOAT if any(isinstance(v, float) for _, v in items) else RATIONAL
            kind = _SCALAR_TYPES.get(mode)
            values = [v if type(v) is kind else coerce_scalar(v, mode) for _, v in items]
            if mode == RATIONAL:
                den = math.lcm(*(v.denominator for v in values))
                values = [v.numerator * (den // v.denominator) for v in values]
            items = zip([p for p, _ in items], values)
        sums: dict = {}
        for point, w in items:
            if w > 0:
                sums[point] = sums[point] + w if point in sums else w
            elif w:
                raise OutOfRange(f"probability {over(w, den)} at {point!r} is negative or NaN")
        if not sums:
            raise NotNormalized("a distribution needs positive total mass")
        total = sum(sums.values())  # float weights add up in the given order
        points = tuple(sorted(sums))  # distinct points, so no weight is compared
        nums = tuple(map(sums.__getitem__, points))
        if den is None:
            if abs(total - 1.0) > FLOAT_NORM_TOL:
                raise NotNormalized(f"float probabilities sum to {total!r}")
        elif total != den:
            raise NotNormalized(f"rational probabilities sum to {Fraction(total, den)}, not 1")
        elif (g := math.gcd(*nums)) > 1:
            nums, den = tuple(n // g for n in nums), den // g
        self._points, self._nums, self._den, self._entries = points, nums, den, None
        self._index = sums if den is None else None

    @classmethod
    def from_weights(cls, weights: Mapping | Iterable[tuple[object, object]], mode: str | None = None) -> "Dist":
        """Normalize nonnegative weights into a distribution."""
        items = list(weights.items() if isinstance(weights, Mapping) else weights)
        if mode is None:
            mode = FLOAT if any(isinstance(v, float) for _, v in items) else RATIONAL
        coerced = [(p, coerce_scalar(w, mode)) for p, w in items]
        total = sum(w for _, w in coerced)
        if total <= 0:
            raise NotNormalized("weights need positive total mass")
        return cls([(p, w / total) for p, w in coerced], mode=mode)

    @property
    def mode(self) -> str:
        return FLOAT if self._den is None else RATIONAL

    def support(self) -> tuple:
        return self._points

    def items(self) -> tuple:
        if self._entries is None:
            self._entries = tuple(zip(self._points, map(over, self._nums, repeat(self._den))))
        return self._entries

    def __call__(self, point):
        if self._index is None:
            self._index = dict(self.items())
        try:
            return self._index[point]
        except KeyError:
            return zero(self.mode)

    def __eq__(self, other) -> bool:
        # the stored triple is canonical, so it decides equality of the values
        return isinstance(other, Dist) and (self._den, self._points, self._nums) == (
            other._den, other._points, other._nums
        )

    def __hash__(self) -> int:
        return hash((self._den, self._points, self._nums))

    def __repr__(self) -> str:
        body = " + ".join(f"{v}|{p}>" for p, v in self.items())
        return f"Dist[{self.mode}]({body})"


def to_float(omega: Dist) -> Dist:
    """Convert a distribution to float mode (identity on float inputs)."""
    if omega.mode == FLOAT:
        return omega
    return Dist({p: float(v) for p, v in omega.items()}, mode=FLOAT)


# ---------------------------------------------------------------------------
# Multiset operations
# ---------------------------------------------------------------------------


def mset_map(f: Callable, phi: Multiset) -> Multiset:
    """Push a multiset forward along a function on points.

    ``mset_map(f, phi)(y)`` sums the multiplicities of all preimages of
    ``y``; size is preserved and the map is a monoid homomorphism.
    """
    return Multiset([(f(p), m) for p, m in phi.items()])


def flrn(phi: Multiset) -> Dist:
    """Frequentist learning: normalize counts into a rational distribution."""
    total = phi.size
    if total == 0:
        raise EmptyMultiset("cannot normalize the empty multiset")
    return Dist(phi.items(), den=total)


def count_msets(n_points: int, size: int) -> int:
    """Number of size-``size`` multisets over ``n_points`` points."""
    return math.comb(size + n_points - 1, n_points - 1)


def check_mset_cap(n_points: int, size: int) -> None:
    """Raise :class:`ResourceLimit` when size-``size`` multisets over ``n_points``
    points outnumber the cap: ``BITOSS_MSET_CAP``, else ``DEFAULT_MSET_CAP``."""
    raw = os.environ.get(MSET_CAP_ENV, DEFAULT_MSET_CAP)
    try:
        limit = int(raw)
    except ValueError as exc:
        raise OutOfRange(f"{MSET_CAP_ENV} must be an integer, got {raw!r}") from exc
    if (n := count_msets(n_points, size)) > limit:
        raise ResourceLimit(f"{n} multisets of size {size} exceed the cap {limit}")


def enumerate_msets(base: Iterable, size: int) -> list[Multiset]:
    """All multisets of the given size over ``base``, in lexicographic order.

    The order is lexicographic on the nondecreasing element sequence of each
    multiset (``[2|0>, 1|0>+1|1>, 2|1>]`` for two points, size two).  Raises
    :class:`ResourceLimit` when the stars-and-bars count exceeds the cap
    (:func:`check_mset_cap`).
    """
    points = sorted(set(base))
    if not points:
        raise EmptyMultiset("base must be non-empty")
    check_count(size, "size")
    check_mset_cap(len(points), size)
    out: list[Multiset] = []
    last = len(points) - 1

    def fill(idx: int, remaining: int, entries: tuple) -> None:
        # the points are sorted and distinct, so each draw's entries are canonical
        if idx == last:
            if remaining:
                entries += ((points[idx], remaining),)
            out.append(Multiset._from_sorted(entries))
            return
        for k in range(remaining, 0, -1):
            fill(idx + 1, remaining - k, entries + ((points[idx], k),))
        fill(idx + 1, remaining, entries)

    fill(0, size, ())
    return out


def mset_coefficient(phi: Multiset) -> int:
    """Multinomial coefficient of a draw: ``size! / prod(mult!)``, exactly."""
    num = math.factorial(phi.size)
    for _, m in phi.items():
        num //= math.factorial(m)
    return num


# ---------------------------------------------------------------------------
# Dist operations
# ---------------------------------------------------------------------------


def dist_map(f: Callable, omega: Dist) -> Dist:
    """Push a distribution forward along a function on points."""
    return Dist(zip(map(f, omega.support()), omega._nums), omega.mode, omega._den)


def _is_int_point(p) -> bool:
    """Whether ``p`` is an ``int`` or a tuple of them, ``bool`` excluded."""
    return type(p) is int or isinstance(p, tuple) and all(type(c) is int for c in p)


def pair_points(x, y):
    """Canonical point pairing for tensors.

    Integer points and integer tuples concatenate (a bare integer counts as a
    1-tuple), so products of coin or count spaces stay flat integer tuples;
    anything else pairs into a plain 2-tuple.
    """
    if _is_int_point(x) and _is_int_point(y):
        return point_coords(x) + point_coords(y)
    return (x, y)


def _product(omega: Dist, rho: Dist, combine: Callable) -> Dist:
    """Distribution of ``combine(x, y)`` for independent draws ``x`` from
    ``omega`` and ``y`` from ``rho``, from products of the stored weights."""
    mode = require_modes_equal(omega, rho)
    right = tuple(zip(rho._points, rho._nums))
    pairs = [(combine(x, y), wx * wy) for x, wx in zip(omega._points, omega._nums) for y, wy in right]
    return Dist(pairs, mode, None if mode == FLOAT else omega._den * rho._den)


def tensor(omega: Dist, rho: Dist) -> Dist:
    """Parallel product distribution on paired points."""
    return _product(omega, rho, pair_points)


TWO_BY_TWO = ((0, 0), (0, 1), (1, 0), (1, 1))


def is_entwined(tau: Dist) -> bool:
    """Whether a distribution on ``{0,1} x {0,1}`` differs from the product
    of its marginals, decided by the cross-product criterion
    ``tau(0,0)*tau(1,1) != tau(0,1)*tau(1,0)`` (exact per mode)."""
    if any(p not in TWO_BY_TWO for p in tau.support()):
        raise WrongSpace(f"support {tau.support()} is not within 2x2")
    return tau((0, 0)) * tau((1, 1)) != tau((0, 1)) * tau((1, 0))


def monoid_add(x, y):
    """Default commutative-monoid addition on points.

    Integers add, integer tuples add componentwise, multisets add as
    multisets.
    """
    if isinstance(x, Multiset) and isinstance(y, Multiset):
        return x + y
    if isinstance(x, tuple) and isinstance(y, tuple):
        if len(x) != len(y):
            raise WrongSpace(f"cannot add tuples of lengths {len(x)} and {len(y)}")
        return tuple(a + b for a, b in zip(x, y))
    if isinstance(x, int) and isinstance(y, int):
        return x + y
    raise WrongSpace(f"no monoid addition for {x!r} and {y!r}")


def convolve(omega: Dist, rho: Dist) -> Dist:
    """Distribution of the sum of independent draws.

    Equals the pushforward of the tensor along the monoid addition; it is
    commutative and associative, with unit the point mass at the monoid zero.
    """
    return _product(omega, rho, monoid_add)


def validity(omega: Dist, observable: Callable):
    """Expected value of an observable: ``sum omega(x) * observable(x)``.

    Observable values must match the distribution's mode (ints are allowed
    in either mode).
    """
    total = zero(omega.mode)
    for p, v in omega.items():
        total += v * coerce_scalar(observable(p), omega.mode)
    return total


def point_coords(p) -> tuple:
    """View a point as a tuple of numeric coordinates (bare ints as 1-tuples)."""
    if isinstance(p, tuple):
        return p
    if type(p) is int:
        return (p,)
    raise WrongSpace(f"point {p!r} has no numeric coordinates")


class Moments(NamedTuple):
    mean: tuple
    var: tuple
    cov: tuple  # square matrix as nested tuples; cov[i][i] == var[i]


def moments(omega: Dist) -> Moments:
    """Mean vector, variance vector, and covariance matrix of a distribution
    on numeric points, from coordinate sums over its stored weights (exact
    integer sums over one denominator in rational mode)."""
    coords = [point_coords(p) for p in omega.support()]
    dim = len(coords[0])
    if any(len(c) != dim for c in coords):
        raise WrongSpace("points have inconsistent dimensions")
    cols = list(zip(*coords))
    weighted = [list(map(mul, omega._nums, col)) for col in cols]
    mean = tuple(over(sum(w), omega._den) for w in weighted)
    second = [[over(sum(map(mul, w, col)), omega._den) for col in cols] for w in weighted]
    cov = tuple(
        tuple(second[i][j] - mean[i] * mean[j] for j in range(dim)) for i in range(dim)
    )
    var = tuple(cov[i][i] for i in range(dim))
    return Moments(mean=mean, var=var, cov=cov)


def kl_divergence(p: Dist, q: Dist) -> float:
    """Kullback-Leibler divergence ``sum p(x) ln(p(x)/q(x))`` as a float.

    Requires ``support(p) <= support(q)``; raises :class:`SupportMismatch`
    otherwise.  Tiny negative rounding residues are clamped to zero.
    """
    total = 0.0
    for x, px in p.items():
        qx = float(q(x))
        if qx <= 0.0:
            raise SupportMismatch(f"q has zero mass at {x!r} where p is positive")
        total += float(px) * math.log(float(px) / qx)
    return total if total > 0.0 else 0.0


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    # splitmix64 output function (Steele, Lea, Flood 2014)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def counter_rng(seed: int, index: int) -> int:
    """The package's fixed counter-based generator.

    Draw ``index`` under ``seed`` is ``splitmix64(seed + (index+1)*GOLDEN)``
    where ``GOLDEN`` is 0x9E3779B97F4A7C15; all arithmetic is mod 2^64.  The
    draw is a uniform 64-bit integer, used as the numerator of a dyadic
    uniform on [0, 1).
    """
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def sample(omega: Dist, n: int, seed: int) -> Multiset:
    """Draw ``n`` points i.i.d. from ``omega``, deterministically.

    Each draw feeds a counter-based 64-bit value (:func:`counter_rng`) as a
    dyadic uniform into the inverse CDF over the sorted point order, so the
    result depends only on the distribution's entries, ``n``, and ``seed``.
    Rational-mode thresholds are compared exactly, on integers: with the
    cumulative numerators ``c`` over the common denominator ``L``,
    ``u / 2**64 < c / L`` exactly when ``(u * L) >> 64 < c``.
    """
    check_count(n, "sample size")
    points = omega.support()
    cum = list(accumulate(omega._nums))
    last = len(points) - 1
    if omega.mode == RATIONAL:
        draws = ((counter_rng(seed, i) * omega._den) >> 64 for i in range(n))
    else:
        draws = (counter_rng(seed, i) / 2**64 for i in range(n))
    # a float cumulative may fall just short of 1
    return Multiset(Counter(points[min(bisect_right(cum, u), last)] for u in draws))
