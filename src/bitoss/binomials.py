"""Flip, binomial, multinomial, and multivariate binomial distributions.

A *coin* of dimension N is a distribution on ``{0,1}^N`` (bare bits for
N = 1, bit tuples for N >= 2); it may be entwined, i.e. different from the
product of its marginals.  Tossing it K times and counting, per coordinate,
how many tosses came up 1 yields a distribution on the ``{0,...,K}^N`` count
grid: the multivariate binomial.  It is computed here two ways,

* functorially, by pushing the multinomial of the coin forward along the
  marginal heads function, one face at a time, for any dimension; and
* directly, for N = 2, from the tosses split on the first bit, which
  avoids enumerating all draws.

A two-coin is a first-bit flip followed by a channel to the second bit.  In
rational mode, grid row ``n1`` is ``C(K, n1)`` times the coefficients of
``(p10 + p11*y)^n1 * (p00 + p01*y)^(K-n1)``, integers over ``D^K`` from one
three-term recurrence (:func:`_expand`), which also builds exact binomials.
In float mode each cell sums products of two conditional binomial rows,
log-space pmfs built once per grid, so float grids stay finite at any K.
:func:`face_terms` gives :func:`multinomial` one term per draw, and
:func:`mvbin_functorial` builds the same terms without building the draws.

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
    Infeasible,
    Multiset,
    OutOfRange,
    RATIONAL,
    TWO_BY_TWO,
    WrongSpace,
    check_count,
    check_mset_cap,
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


def _numerators(weights, tosses: int):
    """``(nums, D**tosses)``: rational weights over their common denominator ``D``."""
    check_count(tosses, "toss count")
    base = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (base // w.denominator) for w in weights], base**tosses


def _powers(weights, tosses: int):
    """Per-face float tables for ``tosses`` draws over the given weights:
    ``log(w**m / m!)`` for ``m`` from 0 to ``tosses``, with ``0**0 = 1``."""
    check_count(tosses, "toss count")
    lw = [math.log(w) if w > 0 else -math.inf for w in weights]
    return [[m * x - math.lgamma(m + 1) if m else 0.0 for m in range(tosses + 1)] for x in lw]


def _expand(alpha: int, beta: int, a: int, gamma: int, delta: int, b: int, scale: int = 1) -> list:
    """The exact row engine: ``scale`` times the coefficients ``c[j]`` of ``P
    = O**a * Z**b``, ``O = alpha + beta*y`` and ``Z = gamma + delta*y`` over
    integers ``>= 0``.  From ``O*Z*P' = P*(a*beta*Z + b*delta*O)``, ``c[-1] =
    0`` and ``c[0] = alpha**a * gamma**b``, ``(j+1)*alpha*gamma*c[j+1] =
    (a*beta*gamma + b*alpha*delta - (alpha*delta + beta*gamma)*j)*c[j] +
    beta*delta*(a+b-j+1)*c[j-1]``, so ``//`` is exact.  A factor with a zero
    coefficient is a monomial folded into the scale and a shift."""
    shift, factors = 0, []
    for c0, c1, e in ((alpha, beta, a), (gamma, delta, b)):
        if not (c0 and c1):  # c0**e, or c1**e * y**e, leaves the factor 1 + 0*y
            scale, shift, c0, c1, e = scale * (c0 or c1) ** e, shift + (0 if c0 else e), 1, 0, 0
        factors.append((c0, c1, e))
    (o0, o1, p), (z0, z1, q) = factors
    n, lead, slope = p + q, p * o1 * z0 + q * o0 * z1, o0 * z1 + o1 * z0
    cross, div = o1 * z1, o0 * z0  # div is never 0
    c = [0, scale * o0**p * z0**q]  # c[-1] and c[0] of the recurrence
    for j in range(n):
        c.append(((lead - slope * j) * c[-1] + cross * (n + 1 - j) * c[-2]) // (div * (j + 1)))
    return [0] * shift + c[1:] + [0] * (a + b - shift - n)


def _face_tables(weights, tosses: int, mode: str):
    """``(tables, den)``, per face ``n**m`` over ``den = D**tosses`` in rational
    mode and the :func:`_powers` table in float mode, ``m`` from 0 to ``tosses``."""
    weights = [coerce_scalar(w, mode) for w in weights]
    if mode == RATIONAL:
        nums, den = _numerators(weights, tosses)
        return [list(accumulate(repeat(n, tosses), mul, initial=1)) for n in nums], den
    return _powers(weights, tosses), None


def face_terms(weights, tosses: int, mode: str):
    """The multinomial term engine: ``(term, den)`` for size-``tosses``
    draws from an urn with the given face weights.  ``term(counts)`` is
    ``tosses! / prod(m!) * prod(w^m)`` over the draw's face counts ``m``:
    an exact integer over ``den`` in rational mode; in float mode the
    probability itself, one ``exp`` in log space so that nothing overflows
    at any K, and ``den`` is ``None``.  :func:`multinomial` takes one term
    per draw; :func:`mvbin_functorial` builds the same terms from the same
    tables one face at a time, without the draws."""
    tables, den = _face_tables(weights, tosses, mode)
    if den is not None:
        return count_terms(tables, tosses), den
    lead = math.lgamma(tosses + 1)
    return (lambda counts: math.exp(lead + sum(map(getitem, tables, counts)))), None


def binomial(tosses: int, r) -> Dist:
    """Number of 1s in ``tosses`` flips of a coin with bias ``r``."""
    r = _check_probability(r)
    if isinstance(r, float):
        return Dist(enumerate(_binomial_rows(*_powers([1 - r, r], tosses))(tosses)), FLOAT)
    (off, on), den = _numerators([1 - r, r], tosses)
    return Dist(enumerate(_expand(off, on, tosses, 1, 0, 0)), den=den)


def multinomial(draws: int, omega: Dist) -> Dist:
    """Distribution of size-``draws`` multiset draws, with replacement, from
    the urn ``omega``, each draw a built :class:`Multiset` point."""
    faces = omega.support()
    term, den = face_terms([v for _, v in omega.items()], draws, omega.mode)
    msets = enumerate_msets(faces, draws)
    index = {x: i for i, x in enumerate(faces)}
    terms = []
    for phi in msets:
        counts = [0] * len(faces)
        for x, m in phi.items():
            counts[index[x]] = m
        terms.append(term(counts))
    return Dist(zip(msets, terms), omega.mode, den)


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
    counts = [sum(m for p, m in phi.items() if point_coords(p)[i]) for i in range(n_dim)]
    return counts[0] if n_dim == 1 else tuple(counts)


def fiber_counts(tosses: int, n1: int, n2: int) -> list[tuple[int, int, int, int]]:
    """Face counts ``(#00, #01, #10, #11)`` of the size-``tosses`` draws over
    ``{0,1}^2`` with heads ``(n1, n2)``, from the closed form

        ``(K-n1-n2+j, n2-j, n1-j, j)``

    for ``j`` (the count of ``|1,1>``) from ``min(n1, n2)`` down to
    ``max(0, n1+n2-K)``.
    """
    check_count(n1, "n1")
    check_count(n2, "n2")
    if check_count(tosses, "toss count") < max(n1, n2):
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
    """Multivariate binomial as a pushforward, ``dist_map(heads,
    multinomial(K, coin.dist))``, walked one face at a time without building
    a draw.  Each face takes ``m = 1..r`` of the ``r`` tosses left, then 0,
    the sorted draw order, so each cell adds its terms in the same order.  A
    partial draw carries ``r``, its term and its grid index: the product of
    ``C(r, m) * n**m`` over ``D**K``, or the float table entries to sum."""
    faces, weights = zip(*coin.dist.items())
    tables, den = _face_tables(weights, tosses, coin.dist.mode)
    check_mset_cap(len(faces), tosses)
    comb, size, lead, n_dim = math.comb, tosses + 1, math.lgamma(tosses + 1), coin.n_dim
    # a face moves the grid index by its bits read as a number in base K + 1
    steps = [sum(c * size**i for i, c in enumerate(reversed(point_coords(f)))) for f in faces]
    draws = [(tosses, () if den is None else 1, 0)]
    for i, (table, step) in enumerate(zip(tables, steps)):
        left = {r for r, _, _ in draws}  # the last face takes the tosses left
        counts = {r: (r,) if i == len(faces) - 1 else (*range(1, r + 1), 0) for r in left}
        if den is None:
            draws = [(r - m, t + (table[m],), h + m * step) for r, t, h in draws for m in counts[r]]
        else:
            draws = [(r - m, t * comb(r, m) * table[m], h + m * step)
                     for r, t, h in draws for m in counts[r]]
    if den is None:  # one sum per draw, as sum rounds floats its own way from Python 3.12
        draws = [(0, math.exp(lead + sum(t)), h) for _, t, h in draws]
    cells = {h for _, _, h in draws}  # decoded alone, as a sparse coin's grid can dwarf its draws
    point = {h: h if n_dim == 1 else tuple(h // size**j % size for j in reversed(range(n_dim))) for h in cells}
    return GridDist(tosses, n_dim, Dist([(point[h], t) for _, t, h in draws], coin.dist.mode, den))


def _binomial_rows(off, on):
    """Float binomial rows over two :func:`_powers` tables, each built on first
    use: ``row(m)[j]`` is ``exp(log m! + off[m - j] + on[j])``, a pmf entry."""

    @cache
    def row(m: int) -> list:
        lead = math.lgamma(m + 1)
        return [math.exp(lead + off[m - j] + on[j]) for j in range(m + 1)]

    return row


def _face_weights(coin: Coin) -> list:
    if coin.n_dim != 2:
        raise OutOfRange(f"requires a two-coin, got dimension {coin.n_dim}")
    return [coin.dist(p) for p in TWO_BY_TWO]


def _cell_terms(tosses: int, coin: Coin):
    """A float two-coin's cells as fiber sums split on the first bit: the draw
    ``(a, b, c, d)`` = ``(#00, #01, #10, #11)`` has term ``lead[n1] *
    ones(n1)[d] * zeros(K-n1)[a]``, with ``lead`` = ``Bin(K, p1)`` and the
    rows ``Bin(m, p11 / p1)`` and ``Bin(m, p00 / p0)``.  ``terms(n1, n2)`` is
    ``(lead[n1], low, products)``, with the row products for ``d`` from
    ``low`` up, and the cell is ``lead[n1] * sum(products)``."""
    p00, p01, p10, p11 = _face_weights(coin)

    def rows(off: float, on: float):
        # a first bit that never comes up has lead 0 wherever these rows are read
        pair = [off / (off + on), on / (off + on)] if off + on else [1.0, 0.0]
        return _binomial_rows(*_powers(pair, tosses))

    lead = rows(p00 + p01, p10 + p11)(tosses)
    ones, zeros = rows(p10, p11), rows(p01, p00)

    def terms(n1: int, n2: int) -> tuple:
        shift = tosses - n1 - n2  # a - d
        low, high = max(0, -shift), min(n1, n2)  # the range of d
        top = ones(n1)[low : high + 1]
        bottom = zeros(tosses - n1)[low + shift : high + shift + 1]
        return lead[n1], low, list(map(mul, top, bottom))

    return terms


def _exact_rows(tosses: int, coin: Coin):
    """``(row, den)``: ``row(n1)`` holds the numerators over ``den = D**K`` of
    the cells ``(n1, 0..K)`` of a rational two-coin's grid, ``C(K, n1)``
    times the coefficients of ``(p10 + p11*y)**n1 * (p00 + p01*y)**(K-n1)``."""
    (p00, p01, p10, p11), den = _numerators(_face_weights(coin), tosses)
    return (lambda n1: _expand(p10, p11, n1, p00, p01, tosses - n1, math.comb(tosses, n1))), den


def bivbin_cell(tosses: int, coin: Coin, n1: int, n2: int):
    """Single grid-cell probability of the bivariate binomial: one exact row
    in rational mode, the cell's fiber terms in float mode.  Points outside
    the ``{0,...,K}^2`` grid have probability zero, as a distribution call."""
    exact = coin.dist.mode == RATIONAL
    cells, den = _exact_rows(tosses, coin) if exact else (_cell_terms(tosses, coin), None)
    if not (0 <= n1 <= tosses and 0 <= n2 <= tosses):
        return zero(coin.dist.mode)
    if exact:
        return Fraction(cells(n1)[n2], den)
    lead, _, products = cells(n1, n2)
    return lead * sum(products)


def bivbin_direct(tosses: int, coin: Coin) -> GridDist:
    """Bivariate binomial on the first-bit split: exact rows of integer
    numerators over ``D**K`` in rational mode, equal to :func:`mvbin_functorial`
    without its multinomial, and float cells from :func:`_cell_terms`."""
    if coin.dist.mode == RATIONAL:
        row, den = _exact_rows(tosses, coin)
        cells = [c for n1 in range(tosses + 1) for c in row(n1)]
    else:
        terms, den = _cell_terms(tosses, coin), None
        cells = [lead * sum(p) for lead, _, p in starmap(terms, grid_points(tosses, 2))]
    return GridDist(tosses, 2, Dist(zip(grid_points(tosses, 2), cells), coin.dist.mode, den))


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

    A :class:`GridDist` of other than ``tosses`` tosses raises :class:`OutOfRange`.
    A bare :class:`Dist` is read as a grid of ``tosses`` tosses, so a point
    beyond them raises :class:`WrongSpace`, but a support that fits inside a
    larger grid cannot be told apart.
    For inputs that are exactly bivariate binomials this is an exact round
    trip in rational mode.  Otherwise the derived entries may leave [0, 1]:
    with ``infeasible="error"`` anything beyond the float tolerance raises
    :class:`Infeasible`; with ``infeasible="clamp"`` entries are clamped into
    [0, 1] and renormalized (logged), which ``recover --clamp`` asks for.
    """
    if infeasible not in ("error", "clamp"):
        raise OutOfRange(f"infeasible must be 'error' or 'clamp', got {infeasible!r}")
    check_count(tosses, "toss count", 1)
    if not isinstance(grid, GridDist):
        grid = GridDist(tosses, len(point_coords(grid.support()[0])), grid)
    if grid.tosses != tosses:
        raise OutOfRange(f"the grid has K={grid.tosses} tosses, not {tosses}")
    dist = grid.dist
    stats = moments(dist)
    if len(stats.mean) != 2:
        raise WrongSpace(f"grid points must be pairs of counts, got dimension {len(stats.mean)}")
    m1, m2 = stats.mean
    g11 = stats.cov[0][1] / tosses + (m1 * m2) / (tosses * tosses)
    g10 = m1 / tosses - g11
    g01 = m2 / tosses - g11
    g00 = 1 - g11 - g10 - g01
    entries = {(0, 0): g00, (0, 1): g01, (1, 0): g10, (1, 1): g11}
    tol = RECOVER_FLOAT_TOL if dist.mode == FLOAT else 0
    out_of_band = [p for p, v in entries.items() if v < -tol or v > 1 + tol]
    if out_of_band and infeasible == "error":
        raise Infeasible(
            f"derived entries {entries!r} are not a two-coin (infeasible moments)"
        )
    clamped = {p: min(max(v, zero(dist.mode)), 1) for p, v in entries.items()}
    if out_of_band:  # only reachable with infeasible="clamp"
        log.info("recover_coin clamped infeasible entries: %r", entries)
    # clamping, and float rounding, can leave the sum off one
    return Coin(2, Dist.from_weights(clamped, mode=dist.mode))
