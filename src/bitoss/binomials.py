"""Flip, binomial, multinomial, and multivariate binomial distributions.

A *coin* of dimension N is a distribution on ``{0,1}^N`` (bare bits for
N = 1, bit tuples for N >= 2); it may be entwined, i.e. different from the
product of its marginals.  Tossing it K times and counting, per coordinate,
how many tosses came up 1 yields a distribution on the ``{0,...,K}^N`` count
grid: the multivariate binomial.  It is computed here two ways,

* functorially, by pushing the multinomial of the coin forward along the
  marginal heads function, for any dimension; and
* directly, for N = 2, by summing the closed-form fiber of each grid cell,
  which avoids enumerating all draws.

The direct path splits each fiber term on the first bit (a two-coin is a
first-bit flip followed by a channel to the second bit) into two
conditional binomial rows, built once per grid: integer terms from
:func:`count_terms` in rational mode, log-space pmfs in float mode, so float
grids stay finite at any K.  :func:`binomial` reads the same rows;
:func:`face_terms` serves :func:`multinomial`, the functorial oracle.

Both paths agree exactly in rational mode.  ``recover_coin`` inverts the
construction from the grid's mean and covariance alone, using that the grid
moments are K times the coin moments.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, product, repeat, starmap
from operator import getitem, mul

from .kernel import (
    Dist,
    FLOAT,
    Multiset,
    OutOfRange,
    RATIONAL,
    TWO_BY_TWO,
    WrongSpace,
    check_count,
    coerce_scalar,
    dist_map,
    enumerate_msets,
    moments,
    point_coords,
    zero,
)

log = logging.getLogger(__name__)

# Exact enumeration over {0,1}^N grows doubly fast in N; three dimensions is
# the supported default.
MAX_DIMENSION = 3

RECOVER_FLOAT_TOL = 1e-9

def grid_points(size: int, n_dim: int) -> tuple:
    if n_dim == 1:
        return tuple(range(size + 1))
    return tuple(product(range(size + 1), repeat=n_dim))


def bit_points(n_dim: int) -> tuple:
    """The faces ``{0,1}^N``: the count grid of one toss."""
    return grid_points(1, n_dim)


def off_grid(points, size: int, n_dim: int) -> list:
    """The points that are not on the count grid ``{0,...,size}^N``, where a
    point is a bare count when N = 1 and an N-tuple of counts otherwise, and
    a count is an ``int`` (not a ``bool``) from 0 to ``size``.  Points are
    checked one coordinate at a time, so no grid or count range is built."""
    bad = []
    for p in points:
        # a point of the wrong shape gets the coordinates (None,), which fail
        coords = (p,) if n_dim == 1 else p if isinstance(p, tuple) and len(p) == n_dim else (None,)
        for c in coords:
            if type(c) is not int or not 0 <= c <= size:
                bad.append(p)
                break
    return bad


def _check_faces(points, n_dim: int) -> None:
    """Raise :class:`WrongSpace` unless every point is a face of ``{0,1}^N``,
    the count grid of one toss."""
    if n_dim < 1:
        raise WrongSpace(f"faces need a dimension >= 1, got {n_dim}")
    bad = off_grid(points, 1, n_dim)
    if bad:
        raise WrongSpace(f"point {bad[0]!r} is not a face of {{0,1}}^{n_dim}")


@dataclass(frozen=True)
class Coin:
    """A distribution on the faces ``{0,1}^N`` of an N-coin."""

    n_dim: int
    dist: Dist

    def __post_init__(self):
        if check_count(self.n_dim, "dimension", 1) > MAX_DIMENSION:
            raise OutOfRange(
                f"dimension {self.n_dim} exceeds the supported maximum {MAX_DIMENSION}"
            )
        _check_faces(self.dist.support(), self.n_dim)

    def heads_probability(self, coord: int):
        """Marginal probability of a 1 in the given coordinate (0-based)."""
        if not 0 <= coord < self.n_dim:
            raise OutOfRange(f"coordinate {coord} out of range for N={self.n_dim}")
        if self.n_dim == 1:
            return self.dist(1)
        return dist_map(lambda p: p[coord], self.dist)(1)


@dataclass(frozen=True)
class GridDist:
    """A distribution on the count grid ``{0,...,K}^N`` after K tosses."""

    tosses: int
    n_dim: int
    dist: Dist

    def __post_init__(self):
        check_count(self.tosses, "toss count")
        check_count(self.n_dim, "dimension", 1)
        bad = off_grid(self.dist.support(), self.tosses, self.n_dim)
        if bad:
            raise WrongSpace(
                f"points {bad!r} fall outside the {self.tosses + 1}^{self.n_dim} grid"
            )


def two_coin(p00, p01, p10, p11) -> Coin:
    """Convenience constructor for a two-coin from its four face weights."""
    return Coin(2, Dist({(0, 0): p00, (0, 1): p01, (1, 0): p10, (1, 1): p11}))


def _check_probability(r):
    r = coerce_scalar(r, FLOAT if isinstance(r, float) else RATIONAL)
    if not 0 <= r <= 1:
        raise OutOfRange(f"probability {r!r} outside [0, 1]")
    return r


def flip(r) -> Coin:
    """Single biased coin: probability ``r`` of 1 and ``1 - r`` of 0."""
    r = _check_probability(r)
    return Coin(1, Dist({1: r, 0: 1 - r}))


def count_terms(tables, tosses: int):
    """Integer multinomial terms over per-face tables: ``term(counts)`` is
    ``tosses! / prod(m!) * prod(table[m])`` over the draw's face counts ``m``,
    one table per face, each indexed by ``m`` from 0 to ``tosses``."""
    fact = list(accumulate(range(1, tosses + 1), mul, initial=1))

    def term(counts) -> int:
        div = 1
        for m in counts:
            div *= fact[m]
        num = fact[tosses] // div
        for table, m in zip(tables, counts):
            num *= table[m]
        return num

    return term


def _powers(weights, tosses: int, mode: str):
    """``(tables, finish)`` for ``tosses`` draws over the given face weights:
    per-face tables indexed by ``m`` from 0 to ``tosses``, and ``finish``,
    which turns a sum of terms into a probability.  Rational tables hold
    ``(D * w) ** m``, with ``D`` the weights' common denominator, over ``D **
    tosses``; float tables hold ``log(w**m / m!)``, with ``0**0 = 1``."""
    check_count(tosses, "toss count")
    if mode == FLOAT:
        span = range(tosses + 1)
        lw = [math.log(w) if w > 0 else -math.inf for w in weights]
        return [[m * x - math.lgamma(m + 1) if m else 0.0 for m in span] for x in lw], float
    den = math.lcm(*(w.denominator for w in weights))
    nums = [w.numerator * (den // w.denominator) for w in weights]
    scale = den**tosses
    powers = [list(accumulate(repeat(n, tosses), mul, initial=1)) for n in nums]
    return powers, lambda total: Fraction(total, scale)


def face_terms(weights, tosses: int, mode: str):
    """The multinomial term engine: ``(term, prob)`` for size-``tosses``
    draws from an urn with the given face weights.  ``term(counts)`` is
    ``tosses! / prod(m!) * prod(w^m)`` over the draw's face counts ``m``, up
    to a scale common to the urn (exact integers in rational mode, one
    ``exp`` in log space in float mode, so nothing overflows at any K);
    ``prob`` turns a sum of terms into a probability.  Only
    :func:`multinomial`, the functorial oracle, uses it, in either mode;
    binomials and two-coin cells read first-bit rows."""
    tables, finish = _powers([coerce_scalar(w, mode) for w in weights], tosses, mode)
    if mode == RATIONAL:
        return count_terms(tables, tosses), finish
    lead = math.lgamma(tosses + 1)
    return (lambda counts: math.exp(lead + sum(map(getitem, tables, counts)))), finish


def binomial(tosses: int, r) -> Dist:
    """Number of 1s in ``tosses`` flips of a coin with bias ``r``."""
    r = _check_probability(r)
    mode = FLOAT if isinstance(r, float) else RATIONAL
    (off, on), finish = _powers([1 - r, r], tosses, mode)
    row = _binomial_rows(off, on, mode)(tosses)
    return Dist([(n, finish(t)) for n, t in enumerate(row)], mode=mode)


def multinomial(draws: int, omega: Dist) -> Dist:
    """Distribution of size-``draws`` multiset draws, with replacement,
    from the urn ``omega``."""
    faces = omega.support()
    term, prob = face_terms([v for _, v in omega.items()], draws, omega.mode)

    def draw_prob(phi: Multiset):
        counts = dict(phi.items())
        return prob(term([counts.get(x, 0) for x in faces]))

    return Dist([(phi, draw_prob(phi)) for phi in enumerate_msets(faces, draws)], mode=omega.mode)


def heads(phi: Multiset, n_dim: int | None = None):
    """Count the 1s per coordinate of a multiset over coin faces.

    Returns an N-tuple for multisets over ``{0,1}^N`` with N >= 2, and a bare
    count for multisets over ``{0,1}`` (so one-dimensional grids coincide
    with binomial supports).  The dimension is inferred from the support
    unless given; the empty multiset needs it explicitly.
    """
    support = phi.support()
    if n_dim is None:
        # the empty multiset has no point to read it from, and 0 fails the face test
        n_dim = len(point_coords(support[0])) if support else 0
    _check_faces(support, n_dim)
    counts = [0] * n_dim
    for p, m in phi.items():
        for i, bit in enumerate(p if n_dim > 1 else (p,)):
            if bit:
                counts[i] += m
    return counts[0] if n_dim == 1 else tuple(counts)


def fiber_counts(tosses: int, n1: int, n2: int) -> list[tuple[int, int, int, int]]:
    """Face counts ``(#00, #01, #10, #11)`` of the size-``tosses`` draws over
    ``{0,1}^2`` with heads ``(n1, n2)``, from the closed form

        ``(K-n1-n2+j, n2-j, n1-j, j)``

    for ``j`` (the count of ``|1,1>``) from ``min(n1, n2)`` down to
    ``max(0, n1+n2-K)``.
    """
    if not (0 <= n1 <= tosses and 0 <= n2 <= tosses):
        raise OutOfRange(f"heads ({n1}, {n2}) out of range for {tosses} tosses")
    return [
        (tosses - n1 - n2 + j, n2 - j, n1 - j, j)
        for j in range(min(n1, n2), max(0, n1 + n2 - tosses) - 1, -1)
    ]


def fiber_mean(draws, weights) -> tuple:
    """Weighted mean face counts ``(#00, #01, #10, #11)`` of fiber draws, as
    given by :func:`fiber_counts`: exact fractions for integer weights,
    floats for float weights.  The weights need a positive sum."""
    total = sum(weights)
    sums = [sum(map(mul, weights, column)) for column in zip(*draws)]
    if isinstance(total, int):
        return tuple(Fraction(s, total) for s in sums)
    return tuple(s / total for s in sums)


def fiber(tosses: int, n1: int, n2: int) -> list[Multiset]:
    """All size-``tosses`` multisets over ``{0,1}^2`` with heads ``(n1, n2)``,
    in the order of :func:`fiber_counts`; zero multiplicities are dropped."""
    return [Multiset(zip(TWO_BY_TWO, counts)) for counts in fiber_counts(tosses, n1, n2)]


def mvbin_functorial(tosses: int, coin: Coin) -> GridDist:
    """Multivariate binomial as a pushforward: enumerate all draws of the
    coin and map each through the marginal heads function."""
    grid = dist_map(lambda phi: heads(phi, coin.n_dim), multinomial(tosses, coin.dist))
    return GridDist(tosses, coin.n_dim, grid)


def _binomial_rows(off, on, mode: str):
    """Binomial rows over two of :func:`_powers`'s tables, each built on first
    use: ``row(m)[j]`` is ``C(m, j) * off[m - j] * on[j]`` for ``j`` from 0
    to ``m``, an exact integer, or in float mode one ``exp`` of the log
    tables' sum, which is the pmf entry when ``off + on = 1``."""

    @cache
    def row(m: int) -> list:
        if mode == FLOAT:
            lead = math.lgamma(m + 1)
            return [math.exp(lead + off[m - j] + on[j]) for j in range(m + 1)]
        term = count_terms((off, on), m)
        return [term((m - j, j)) for j in range(m + 1)]

    return row


def _cell_terms(tosses: int, coin: Coin):
    """``(terms, finish)`` for the grid cells of a two-coin, the fiber sum
    split on the first bit: the draw ``(a, b, c, d)`` = ``(#00, #01, #10,
    #11)`` has term ``lead[n1] * ones(n1)[d] * zeros(K-n1)[a]``, over
    second-bit rows for the tosses whose first bit is 1 and for the others.
    ``terms(n1, n2)`` is ``(lead[n1], low, products)``, with the row products
    for ``d`` from ``low`` up (``a - d = K - n1 - n2``, so the slices align),
    and the cell is ``finish(lead[n1] * sum(products))``.  Rational rows hold
    integer terms over ``D**K`` and ``lead[n1] = C(K, n1)``; float rows are
    ``Bin(m, p11 / p1)`` and ``Bin(m, p00 / p0)``, and ``lead`` is ``Bin(K, p1)``."""
    if coin.n_dim != 2:
        raise OutOfRange(f"requires a two-coin, got dimension {coin.n_dim}")
    weights = [coin.dist(p) for p in TWO_BY_TWO]
    if coin.dist.mode == FLOAT:
        p00, p01, p10, p11 = weights

        def rows(off: float, on: float):
            # a first bit that never comes up has lead 0 wherever these rows are read
            pair = [off / (off + on), on / (off + on)] if off + on else [1.0, 0.0]
            return _binomial_rows(*_powers(pair, tosses, FLOAT)[0], FLOAT)

        lead = rows(p00 + p01, p10 + p11)(tosses)
        ones, zeros, finish = rows(p10, p11), rows(p01, p00), float
    else:
        (p00, p01, p10, p11), finish = _powers(weights, tosses, RATIONAL)
        lead = [math.comb(tosses, n1) for n1 in range(tosses + 1)]
        ones, zeros = _binomial_rows(p10, p11, RATIONAL), _binomial_rows(p01, p00, RATIONAL)

    def terms(n1: int, n2: int) -> tuple:
        shift = tosses - n1 - n2  # a - d
        low, high = max(0, -shift), min(n1, n2)  # the range of d
        top = ones(n1)[low : high + 1]
        bottom = zeros(tosses - n1)[low + shift : high + shift + 1]
        return lead[n1], low, list(map(mul, top, bottom))

    return terms, finish


def bivbin_cell(tosses: int, coin: Coin, n1: int, n2: int):
    """Single grid-cell probability of the bivariate binomial, via the fiber.

    Points outside the ``{0,...,K}^2`` grid have probability zero, matching
    distribution-call semantics.
    """
    terms, finish = _cell_terms(tosses, coin)
    if not (0 <= n1 <= tosses and 0 <= n2 <= tosses):
        return zero(coin.dist.mode)
    lead, _, products = terms(n1, n2)
    return finish(lead * sum(products))


def bivbin_direct(tosses: int, coin: Coin) -> GridDist:
    """Bivariate binomial built cell by cell from the fiber closed form.

    Agrees exactly with :func:`mvbin_functorial` in rational mode but never
    materializes the full multinomial: each cell sums the fiber's terms
    split on the first bit, as products of two conditional binomial rows.
    """
    terms, finish = _cell_terms(tosses, coin)
    grid = grid_points(tosses, 2)
    cells = [(n, finish(lead * sum(p))) for n, (lead, _, p) in zip(grid, starmap(terms, grid))]
    return GridDist(tosses, 2, Dist(cells, mode=coin.dist.mode))


def bivbin_tails(tosses: int, coin: Coin) -> GridDist:
    """Tail-counting variant of the bivariate binomial.

    Cell ``(k, l)`` is the probability of ``k`` zeros in the first coordinate
    and ``l`` zeros in the second, i.e. the heads construction applied to the
    coin with both bits flipped.
    """
    if coin.n_dim != 2:
        raise OutOfRange(f"requires a two-coin, got dimension {coin.n_dim}")
    flipped = dist_map(lambda p: (1 - p[0], 1 - p[1]), coin.dist)
    return bivbin_direct(tosses, Coin(2, flipped))


def bivbin(tosses: int, coin: Coin) -> GridDist:
    """Multivariate binomial, choosing the fiber fast path for two-coins."""
    if coin.n_dim == 2:
        return bivbin_direct(tosses, coin)
    return mvbin_functorial(tosses, coin)


def recover_coin(grid, tosses: int, *, infeasible: str = "error") -> Coin:
    """Invert a bivariate binomial: read the two-coin off grid moments.

    The grid's mean and covariance are ``tosses`` times the coin's, so with
    mean ``(m1, m2)`` and cross covariance ``c``:

        g(1,1) = c/K + m1*m2/K^2,   g(1,0) = m1/K - g(1,1),
        g(0,1) = m2/K - g(1,1),     g(0,0) = 1 - the rest.

    For inputs that are exactly bivariate binomials this is an exact round
    trip in rational mode.  Otherwise the derived entries may leave [0, 1]:
    with ``infeasible="error"`` anything beyond the float tolerance raises
    :class:`OutOfRange`; with ``infeasible="clamp"`` entries are clamped into
    [0, 1] and renormalized (logged), which ``recover --clamp`` asks for.
    """
    if infeasible not in ("error", "clamp"):
        raise OutOfRange(f"infeasible must be 'error' or 'clamp', got {infeasible!r}")
    check_count(tosses, "toss count", 1)
    dist = grid.dist if isinstance(grid, GridDist) else grid
    if isinstance(grid, GridDist) and grid.n_dim != 2:
        raise OutOfRange(f"requires a two-dimensional grid, got N={grid.n_dim}")
    stats = moments(dist)
    if len(stats.mean) != 2:
        raise WrongSpace("grid points must be pairs of counts")
    m1, m2 = stats.mean
    g11 = stats.cov[0][1] / tosses + (m1 * m2) / (tosses * tosses)
    g10 = m1 / tosses - g11
    g01 = m2 / tosses - g11
    g00 = 1 - g11 - g10 - g01
    entries = {(0, 0): g00, (0, 1): g01, (1, 0): g10, (1, 1): g11}
    tol = RECOVER_FLOAT_TOL if dist.mode == FLOAT else 0
    out_of_band = [p for p, v in entries.items() if v < -tol or v > 1 + tol]
    if out_of_band and infeasible == "error":
        raise OutOfRange(
            f"derived entries {entries!r} are not a two-coin (infeasible moments)"
        )
    clamped = {p: min(max(v, zero(dist.mode)), 1) for p, v in entries.items()}
    if out_of_band:  # only reachable with infeasible="clamp"
        log.info("recover_coin clamped infeasible entries: %r", entries)
    # clamping, and float rounding, can leave the sum off one
    return Coin(2, Dist.from_weights(clamped, mode=dist.mode))
