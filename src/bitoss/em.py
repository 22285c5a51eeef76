"""Expectation Maximisation for mixtures of bivariate binomials.

The model is a mixture distribution over class labels together with one
two-coin per class; class ``x`` predicts the grid distribution of its coin
after ``K`` tosses.  One iteration performs the E-step as a Jeffrey update
(in the paper's channel form, through ``push`` and
``dagger``, the new mixture is the data pushed back through the dagger of
the prediction channel) and the exact M-step: each new coin is the frequency
of its class's expected faces over the fibers of the observed cells.

Predicted grids, mixtures and coins are floored (a small ``delta`` added to
every point, then renormalized) so inversions never divide by zero.  Both
steps read only the data's support: one pass over each observed cell's
first-bit terms (:mod:`bitoss.binomials`) gives its probability and its
expected faces, on plain floats; the channel form is the tests' oracle.  The
run records the KL divergence from the data to the prediction before each
step and after the last; up to the floors, it never rises.
"""

from __future__ import annotations

import math
from itertools import count
from operator import mul

# not called here: perfbench/layers.py wraps bivbin, recover_coin, dagger, push, kl_divergence
from .binomials import Coin, _cell_terms, bivbin, off_grid, recover_coin  # noqa: F401
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
    draws = count()

    def draw(points) -> Dist:
        weights = [counter_rng(seed, next(draws)) / float(1 << 64) + 1e-6 for _ in points]
        floored = _floored(weights, config.floor, len(points), sum(weights))
        return Dist(zip(points, floored), mode=FLOAT)

    mixture = draw(range(n_classes))
    return EMState(mixture, tuple(draw(TWO_BY_TWO) for _ in range(n_classes)), tosses)


def _check_data(data_dist: Dist, tosses: int) -> None:
    if data_dist.mode != FLOAT:
        raise ModeMismatch("EM expects a float-mode data distribution")
    outside = off_grid(data_dist.support(), tosses, 2)
    if outside:
        raise SupportMismatch(f"data points {outside!r} fall outside the grid")


def _step(state: EMState, data_dist: Dist, config: EMConfig) -> tuple[float, EMState]:
    """``(divergence, next)``: the KL divergence from the data to the
    mixture's floored predicted grid, and the state after one E+M iteration.
    Each class takes the data mass it is responsible for at each observed cell ``(n1, n2)``,
    where it expects ``E[#11]`` draws of ``|1,1>`` (the mean over the cell's
    fiber, weighted by its coin's terms), ``n1 - E[#11]`` of ``|1,0>``, ``n2 -
    E[#11]`` of ``|0,1>`` and the rest of ``|0,0>``."""
    freqs = [d for _, d in data_dist.items()]
    joint, faces = [], []
    for (_, w), coin in zip(state.mixture.items(), state.coins):
        terms = _cell_terms(state.tosses, Coin(2, coin))
        cells, expected = [], []
        for n1, n2 in data_dist.support():
            lead, low, products = terms(n1, n2)
            total, span = sum(products), len(products) - 1
            cells.append(lead * total)
            # capped so that rounding makes no face negative; all-underflow cells read mid-fiber
            e11 = low + (min(sum(map(mul, count(), products)) / total, span) if total else span / 2)
            expected.append((state.tosses - n1 - n2 + e11, n2 - e11, n1 - e11, e11))
        joint.append([w * g for g in _floored(cells, config.floor, (state.tosses + 1) ** 2)])
        faces.append(expected)
    predicted = [sum(column) for column in zip(*joint)]
    divergence = sum(d * math.log(d / q) for d, q in zip(freqs, predicted))
    weighted = [[d * (j / q) for d, j, q in zip(freqs, row, predicted)] for row in joint]
    masses = [sum(row) for row in weighted]
    mixture = Dist(enumerate(_floored(masses, config.floor, len(masses), sum(masses))), mode=FLOAT)
    coins = []
    for row, expected in zip(weighted, faces):
        counts = [sum(map(mul, row, column)) for column in zip(*expected)]
        floored = _floored(counts, config.floor, len(counts), sum(counts))
        coins.append(Dist(zip(TWO_BY_TWO, floored), mode=FLOAT))
    return max(divergence, 0.0), EMState(mixture, tuple(coins), state.tosses)


def em_step(state: EMState, data_dist: Dist, config: EMConfig = EMConfig()) -> EMState:
    """One E+M iteration against a data distribution on the grid."""
    _check_data(data_dist, state.tosses)
    return _step(state, data_dist, config)[1]


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
    records = []
    for i in range(iterations + 1):  # the last step only measures the final state
        divergence, following = _step(state, data_dist, config)
        records.append(EMRecord(i, divergence, state))
        state = following
    return EMTrace(tuple(records))
