"""Expectation Maximisation for mixtures of bivariate binomials.

The model is a mixture over class labels with one two-coin per class; each
class predicts its coin's grid after ``K`` tosses.  An iteration is the
E-step as a Jeffrey update (in the paper's channel form, the data pushed
back through the dagger of the prediction channel) and the exact M-step:
each new coin is the frequency of its class's expected faces over the
observed cells' fibers.  A coin ``p`` weighs the draw ``(a, b, c, d)`` =
``(#00, #01, #10, #11)`` of cell ``(n1, n2)`` as ``K!/(a! b! c! d!) *
p00**(K-n1-n2) * p01**n2 * p10**n1 * psi**d``, with the odds ratio ``psi =
p00 p11 / (p01 p10)``: ``#11`` on a fiber is Fisher's noncentral
hypergeometric in ``psi``, over coefficients tabled once per fit.

Grids, mixtures and coins are floored (``delta`` added at every point, then
renormalized), so ``psi`` is finite and no inversion divides by zero.  Both
steps read only the data's support; the channel form is the tests' oracle.
A run records the KL divergence from the data to the prediction before each
step and after the last; up to the floors, it never rises.
"""

from __future__ import annotations

import math
import sys
from operator import mul

# not called here: perfbench/layers.py wraps bivbin, recover_coin, dagger, push, kl_divergence
from .binomials import bivbin, off_grid, recover_coin  # noqa: F401
from .channels import dagger, push  # noqa: F401
from .kernel import (
    Dist,
    FLOAT,
    Frozen,
    ModeMismatch,
    Multiset,
    OutOfRange,
    SupportMismatch,
    TWO_BY_TWO,
    check_count,
    counter_rng,
    flrn,
    kl_divergence,  # noqa: F401
    to_float,
)


class EMConfig(Frozen):
    """Run-time knob: the full-support floor applied to predicted grids and parameters."""

    floor: float = 1e-9


class EMState(Frozen):
    """Mixture over class labels ``0..C-1`` plus one two-coin per class."""

    mixture: Dist
    coins: tuple[Dist, ...]
    tosses: int

    def __post_init__(self):
        object.__setattr__(self, "coins", tuple(self.coins))
        check_count(self.tosses, "toss count", 1)
        n_classes = check_count(len(self.coins), "class count", 1)
        if self.mixture.mode != FLOAT or any(c.mode != FLOAT for c in self.coins):
            raise ModeMismatch("EM states are float mode")
        if self.mixture.support() != tuple(range(n_classes)):
            raise SupportMismatch(
                f"mixture must have full support on 0..{n_classes - 1}"
            )
        for i, coin in enumerate(self.coins):
            if coin.support() != TWO_BY_TWO:
                raise SupportMismatch(f"coin {i} must have full support on 2x2")

    @property
    def n_classes(self) -> int:
        return len(self.coins)


class EMRecord(Frozen):
    iteration: int
    divergence: float
    state: EMState


class EMTrace(Frozen):
    records: tuple[EMRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        for rec in self.records:
            if not rec.divergence >= 0.0:  # also rejects NaN
                raise OutOfRange(f"divergence {rec.divergence!r} at {rec.iteration}")

    def divergences(self) -> tuple[float, ...]:
        return tuple(r.divergence for r in self.records)

    @property
    def final_state(self) -> EMState:
        return self.records[-1].state


def _floored(values, delta: float, size: int, total: float = 1.0) -> list:
    """The shares ``v / total`` of weights on ``size`` points after ``delta``
    is added at every point and the mass renormalized to one; a grid's mass
    is one, so its cells are floored without reading the others."""
    norm = 1 + delta * size
    return [(v / total + delta) / norm for v in values]


def em_init(n_classes: int, tosses: int, seed: int, config: EMConfig = EMConfig()) -> EMState:
    """Deterministic random start: mixture and coins from the counter-based
    generator under ``seed``, floored to full support."""
    check_count(n_classes, "class count", 1)

    def draw(points, first: int) -> Dist:  # generator indices first, first + 1, ...
        weights = [counter_rng(seed, first + i) / float(1 << 64) + 1e-6 for i in range(len(points))]
        floored = _floored(weights, config.floor, len(points), sum(weights))
        return Dist(zip(points, floored), mode=FLOAT)

    mixture = draw(range(n_classes), 0)
    return EMState(mixture, tuple(draw(TWO_BY_TWO, n_classes + 4 * x) for x in range(n_classes)), tosses)


def _check_data(data_dist: Dist, tosses: int) -> None:
    if data_dist.mode != FLOAT:
        raise ModeMismatch("EM expects a float-mode data distribution")
    outside = off_grid(data_dist.support(), tosses, 2)
    if outside:
        raise SupportMismatch(f"data points {outside!r} fall outside the grid")


def _fibers(support, tosses: int, lpsi: float = 0.0) -> tuple:
    """The cells' fiber tables for the odds ratio ``psi = exp(lpsi)``, coin-free at
    1: ``(n1, n2, anchor, top, coeffs, moved)`` per cell, anchored at the lowest
    ``d`` in the first list (for ``psi < 1``) and the highest in the second, where
    ``coeffs[t] * exp(top) = K!/(a! b! c! d!) * psi**d`` at ``d = anchor ± t``
    and ``moved[t] = ±t * coeffs[t]``."""
    rising, falling, lg = [], [], math.lgamma
    for n1, n2 in support:
        low = max(0, n1 + n2 - tosses)
        logs = [lg(tosses + 1) - lg(tosses - n1 - n2 + d + 1) - lg(n2 - d + 1) - lg(n1 - d + 1)
                - lg(d + 1) + d * lpsi for d in range(low, min(n1, n2) + 1)]
        top = max(logs)
        coeffs = [math.exp(x - top) for x in logs]
        rising.append((n1, n2, low, top, coeffs, [t * c for t, c in enumerate(coeffs)]))
        coeffs = coeffs[::-1]
        falling.append((n1, n2, min(n1, n2), top, coeffs, [-t * c for t, c in enumerate(coeffs)]))
    return rising, falling


def _step(state: EMState, data_dist: Dist, config: EMConfig, fibers: tuple) -> tuple[float, EMState]:
    """``(divergence, next)``: the KL divergence from the data to the
    mixture's floored predicted grid, and the state after one E+M iteration.
    A class's cell and ``E[#11]`` are dot products of :func:`_fibers` tables
    with the powers ``psi**-t`` or ``psi**t``, none above one; its other faces
    follow from its expected heads and tosses, clamped at 0 against rounding."""
    freqs = [d for _, d in data_dist.items()]
    joint, expected = [], []
    for (_, w), coin in zip(state.mixture.items(), state.coins):
        l00, l01, l10, l11 = (math.log(p) for _, p in coin.items())
        lpsi = l00 + l11 - l01 - l10
        powers = [math.exp(-t * abs(lpsi)) for t in range(state.tosses // 2 + 1)]
        cells, means = [], []
        for n1, n2, anchor, top, coeffs, moved in fibers[lpsi >= 0]:
            total = sum(map(mul, coeffs, powers))
            if total >= sys.float_info.min:
                top, mean = top + anchor * lpsi, anchor + sum(map(mul, moved, powers)) / total
            else:  # a tail cell at K in the thousands under an extreme psi: log space
                _, _, low, top, weights, moved = _fibers([(n1, n2)], state.tosses, lpsi)[0][0]
                total, mean = sum(weights), low + sum(moved) / sum(weights)
            cells.append(math.exp(top + (state.tosses - n1 - n2) * l00 + n2 * l01 + n1 * l10) * total)
            means.append(mean)
        joint.append([w * g for g in _floored(cells, config.floor, (state.tosses + 1) ** 2)])
        expected.append(means)
    predicted = [sum(column) for column in zip(*joint)]
    divergence = sum(d * math.log(d / q) for d, q in zip(freqs, predicted))
    weighted = [[d * (j / q) for d, j, q in zip(freqs, row, predicted)] for row in joint]
    masses = [sum(row) for row in weighted]
    mixture = Dist(enumerate(_floored(masses, config.floor, len(masses), sum(masses))), mode=FLOAT)
    firsts, seconds = zip(*data_dist.support())
    coins = []
    for row, means, mass in zip(weighted, expected, masses):
        h1, h2, e11 = (sum(map(mul, row, column)) for column in (firsts, seconds, means))
        counts = [max(c, 0.0) for c in (state.tosses * mass - h1 - h2 + e11, h2 - e11, h1 - e11, e11)]
        floored = _floored(counts, config.floor, len(counts), sum(counts))
        coins.append(Dist(zip(TWO_BY_TWO, floored), mode=FLOAT))
    return max(divergence, 0.0), EMState(mixture, tuple(coins), state.tosses)


def em_step(state: EMState, data_dist: Dist, config: EMConfig = EMConfig()) -> EMState:
    """One E+M iteration against a data distribution on the grid."""
    _check_data(data_dist, state.tosses)
    return _step(state, data_dist, config, _fibers(data_dist.support(), state.tosses))[1]


def em_run(
    data: Multiset,
    n_classes: int,
    tosses: int,
    iterations: int,
    seed: int,
    config: EMConfig = EMConfig(),
) -> EMTrace:
    """Fit a mixture of bivariate binomials to a data multiset.

    Starts from :func:`em_init` under ``seed`` and applies ``iterations``
    steps, recording the divergence of every visited state.
    """
    check_count(iterations, "iteration count", 1)
    state = em_init(n_classes, tosses, seed, config)  # counts are checked before the data
    data_dist = to_float(flrn(data))
    _check_data(data_dist, tosses)
    fibers = _fibers(data_dist.support(), tosses)
    records = []
    for i in range(iterations + 1):  # the last step only measures the final state
        divergence, following = _step(state, data_dist, config, fibers)
        records.append(EMRecord(i, divergence, state))
        state = following
    return EMTrace(tuple(records))
