"""Reference computations the benchmark checks bitoss against.

Nothing here imports bitoss.  Each function recomputes a quantity from its
definition (a K-fold convolution, a binomial pmf, the README sampling spec,
the succession formulas), so a check that compares bitoss output with these
values does not lean on the code under test.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

FACES2 = ((0, 0), (0, 1), (1, 0), (1, 1))

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def convolve_power(coin: dict, tosses: int) -> dict:
    """K-fold convolution of a coin ``{face: weight}`` on the count grid.

    Faces are bit tuples; cell ``c`` of the result is the total weight of the
    toss sequences whose per-coordinate head counts are ``c``.  Works for any
    numeric weights (ints, floats, Fractions); zero-weight faces are skipped,
    so cells that no toss sequence reaches are absent.  Cells are indexed
    as base ``K+1`` integers while convolving, since no count exceeds K.
    """
    dim = len(next(iter(coin)))
    radix = tosses + 1
    faces = [(sum(b * radix**i for i, b in enumerate(f)), w) for f, w in coin.items() if w]
    grid = {0: 1}
    for _ in range(tosses):
        nxt: dict = {}
        get = nxt.get
        for idx, v in grid.items():
            for offset, w in faces:
                j = idx + offset
                nxt[j] = get(j, 0) + v * w
        grid = nxt
    return {tuple(idx // radix**i % radix for i in range(dim)): v for idx, v in grid.items()}


def exact_grid(coin: dict, tosses: int) -> dict:
    """Exact rational grid of a rational coin, by integer convolution.

    The coin is scaled to integers over its common denominator ``D``, so the
    convolution runs on Python ints and each cell is ``count / D**K``.
    """
    denom = math.lcm(*(Fraction(w).denominator for w in coin.values()))
    scaled = {f: int(Fraction(w) * denom) for f, w in coin.items()}
    total = denom**tosses
    return {c: Fraction(v, total) for c, v in convolve_power(scaled, tosses).items() if v}


def float_grid(coin: dict, tosses: int) -> dict:
    """Float grid of a float coin, by convolution."""
    grid = convolve_power({f: float(w) for f, w in coin.items()}, tosses)
    return {c: v for c, v in grid.items() if v}


def marginals(grid: dict, dim: int) -> list[dict]:
    """Per-coordinate marginal count distributions of a grid."""
    out: list[dict] = [{} for _ in range(dim)]
    for cell, v in grid.items():
        for i in range(dim):
            out[i][cell[i]] = out[i].get(cell[i], 0) + v
    return out


def coin_marginal(coin: dict, coord: int):
    """Probability of a 1 in one coordinate of a coin."""
    return sum(w for f, w in coin.items() if f[coord] == 1)


def exact_binomial(tosses: int, p: Fraction) -> dict:
    """Exact binomial pmf ``C(K,n) p^n (1-p)^(K-n)``, zero cells dropped."""
    out = {}
    for n in range(tosses + 1):
        v = math.comb(tosses, n) * p**n * (1 - p) ** (tosses - n)
        if v:
            out[n] = Fraction(v)
    return out


def log_binomial_pmf(tosses: int, p: float, n: int) -> float:
    """Binomial pmf evaluated in log space, valid for any K."""
    if p in (0.0, 1.0):
        return float(n == (tosses if p == 1.0 else 0))
    logp = (
        math.lgamma(tosses + 1)
        - math.lgamma(n + 1)
        - math.lgamma(tosses - n + 1)
        + n * math.log(p)
        + (tosses - n) * math.log1p(-p)
    )
    return math.exp(logp)


def close(a: float, b: float, rel: float = 1e-10, abs_tol: float = 1e-300) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


# ---------------------------------------------------------------------------
# Sampling (README "Sampling determinism")
# ---------------------------------------------------------------------------


def splitmix64(z: int) -> int:
    """The splitmix64 output function on a 64-bit state."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def draw_numerator(seed: int, index: int) -> int:
    """Numerator over 2^64 of draw ``index`` under ``seed``."""
    return splitmix64((seed + (index + 1) * GOLDEN) & MASK64)


def sample_counts(entries: list, n: int, seed: int) -> dict:
    """Draw ``n`` points from sorted ``(point, prob)`` entries per the README.

    Each draw is a dyadic uniform inverted through the CDF over the sorted
    point order; Fraction probabilities are compared exactly.
    """
    entries = sorted(entries)
    exact = isinstance(entries[0][1], Fraction)
    cum = []
    running = Fraction(0) if exact else 0.0
    for _, v in entries:
        running += v
        cum.append(running)
    counts: dict = {}
    for i in range(n):
        u = draw_numerator(seed, i)
        x = Fraction(u, 1 << 64) if exact else u / (1 << 64)
        idx = min(bisect_right(cum, x), len(entries) - 1)
        point = entries[idx][0]
        counts[point] = counts.get(point, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------


def em_divergence(data: dict, mixture: list, coins: list, tosses: int, floor: float) -> float:
    """KL from the data distribution to a floored mixture prediction.

    ``data`` maps cells to counts; ``mixture`` lists class weights and
    ``coins`` the class coins as ``{face: float}``.  Each class grid is the
    coin's convolution with ``floor`` added to every cell of the
    ``(K+1)^2`` grid and renormalised (the documented EM floor); the
    prediction is the mixture of those grids.
    """
    cells = [(a, b) for a in range(tosses + 1) for b in range(tosses + 1)]
    pred = dict.fromkeys(cells, 0.0)
    for weight, coin in zip(mixture, coins):
        grid = float_grid(coin, tosses)
        floored = {c: grid.get(c, 0.0) + floor for c in cells}
        total = sum(floored.values())
        for c in cells:
            pred[c] += weight * floored[c] / total
    n = sum(data.values())
    kl = sum(m / n * math.log((m / n) / pred[c]) for c, m in data.items())
    return max(kl, 0.0)


# ---------------------------------------------------------------------------
# Succession rules
# ---------------------------------------------------------------------------


def beta_mean(alpha: int, beta: int, tosses: int, heads: int) -> Fraction:
    """Beta/binomial rule: ``(alpha + n) / (alpha + beta + K)``."""
    return Fraction(alpha + heads, alpha + beta + tosses)


def dirichlet_mean(psi: dict, draw: dict) -> dict:
    """Dirichlet/multinomial rule: ``Flrn(psi + draw)``."""
    acc = {p: psi.get(p, 0) + draw.get(p, 0) for p in set(psi) | set(draw)}
    total = sum(acc.values())
    return {p: Fraction(m, total) for p, m in acc.items() if m}


def heads_fiber(tosses: int, n1: int, n2: int) -> list[dict]:
    """Face counts ``{face: mult}`` of K tosses with heads ``(n1, n2)``.

    With ``d`` tosses showing (1,1): (1,0) shows ``n1-d``, (0,1) shows
    ``n2-d`` and (0,0) the rest; every count must be nonnegative.
    """
    out = []
    for d in range(max(0, n1 + n2 - tosses), min(n1, n2) + 1):
        out.append({(0, 0): tosses - n1 - n2 + d, (0, 1): n2 - d, (1, 0): n1 - d, (1, 1): d})
    return out


def bivbin_dirichlet_formula(psi: dict, tosses: int, n1: int, n2: int) -> dict:
    """The paper's closed form: ``Flrn`` of the sum of ``psi + phi`` over
    the fiber of ``(n1, n2)``."""
    total = dict.fromkeys(FACES2, 0)
    for phi in heads_fiber(tosses, n1, n2):
        for f in FACES2:
            total[f] += psi.get(f, 0) + phi[f]
    size = sum(total.values())
    return {f: Fraction(m, size) for f, m in total.items() if m}


def poisson_binomial_mean(detect: float, rate: float, detected: int) -> float:
    """Poisson prior thinned by a detector: ``n + (1 - r) * rate``."""
    return detected + (1.0 - detect) * rate


def _log_pow(p: float, k: int) -> float:
    if k == 0:
        return 0.0
    return -math.inf if p == 0.0 else k * math.log(p)


def bivbin_cell_float(coin: dict, tosses: int, n1: int, n2: int) -> float:
    """One bivariate binomial cell, as a log-space sum over its fiber."""
    total = 0.0
    for phi in heads_fiber(tosses, n1, n2):
        log_t = math.lgamma(tosses + 1)
        for f in FACES2:
            log_t += _log_pow(coin[f], phi[f]) - math.lgamma(phi[f] + 1)
        total += math.exp(log_t)
    return total


def poisson_bivbin_truncated(coin: dict, rate: float, n1: int, n2: int, cutoff: int) -> float:
    """Posterior mean toss count under a Poisson prior, summed directly over
    toss counts up to ``cutoff``."""
    num = den = 0.0
    for k in range(max(n1, n2), cutoff + 1):
        prior = math.exp(k * math.log(rate) - rate - math.lgamma(k + 1))
        w = prior * bivbin_cell_float(coin, k, n1, n2)
        num += k * w
        den += w
    return num / den
