"""Expectation Maximisation for mixtures of bivariate binomials.

The model is a mixture distribution over class labels together with one
two-coin per class; class ``x`` predicts the grid distribution of its coin
after ``K`` tosses.  In the paper's channel form (:func:`prediction_channel`,
``push`` and ``dagger``), one iteration performs

* an E-step as a Jeffrey update: the new mixture is the data distribution
  pushed back through the dagger of the prediction channel, and
* an M-step via the double dagger: the dagger is inverted again with the
  data distribution as prior, and each class's resulting grid distribution
  is projected onto coin parameters through ``recover_coin``.

Predicted grids are floored (a small ``delta`` added to every cell, then
renormalized) so inversions never divide by zero; the moment projection
clamps and renormalizes when the double dagger is not exactly a bivariate
binomial.  Both steps read the prediction only at the data's support, so
:func:`em_step` and :func:`em_run` evaluate just those cells, by the
first-bit rows of :mod:`bitoss.binomials`, on plain floats; the channel
form stays as the oracle.  The run records the KL divergence from the data
distribution to the prediction before each step and after the last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

from .binomials import Coin, _cell_probability, bivbin, grid_points, off_grid, recover_coin
# dagger and kl_divergence stay importable from here: perfbench/layers.py wraps them by name
from .channels import Channel, dagger, push  # noqa: F401
from .kernel import (
    Dist,
    FLOAT,
    ModeMismatch,
    Multiset,
    OutOfRange,
    SupportMismatch,
    TWO_BY_TWO,
    counter_rng,
    flrn,
    kl_divergence,  # noqa: F401
    to_float,
)


@dataclass(frozen=True)
class EMConfig:
    """Run-time knob: the full-support floor applied to predicted grids and parameters."""

    floor: float = 1e-9


@dataclass(frozen=True)
class EMState:
    """Mixture over class labels ``0..C-1`` plus one two-coin per class."""

    mixture: Dist
    coins: tuple[Dist, ...]
    tosses: int

    def __post_init__(self):
        object.__setattr__(self, "coins", tuple(self.coins))
        if self.tosses < 1:
            raise OutOfRange(f"toss count must be >= 1, got {self.tosses}")
        n_classes = len(self.coins)
        if n_classes < 1:
            raise OutOfRange("need at least one class")
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


@dataclass(frozen=True)
class EMRecord:
    iteration: int
    divergence: float
    state: EMState


@dataclass(frozen=True)
class EMTrace:
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
    """Values of a distribution on ``size`` points with mass ``total`` after
    ``delta`` is added at every point and the mass renormalized to one; a
    grid's mass is one, so its cells are floored without reading the others."""
    norm = total + delta * size
    return [(v + delta) / norm for v in values]


def em_init(n_classes: int, tosses: int, seed: int, config: EMConfig = EMConfig()) -> EMState:
    """Deterministic random start: mixture and coins from the counter-based
    generator under ``seed``, floored to full support."""
    if n_classes < 1:
        raise OutOfRange(f"need at least one class, got {n_classes}")
    if tosses < 1:
        raise OutOfRange(f"toss count must be >= 1, got {tosses}")
    draws = count()

    def draw(points) -> Dist:
        weights = [counter_rng(seed, next(draws)) / float(1 << 64) + 1e-6 for _ in points]
        total = sum(weights)
        floored = _floored((w / total for w in weights), config.floor, len(points))
        return Dist(zip(points, floored), mode=FLOAT)

    mixture = draw(range(n_classes))
    return EMState(mixture, tuple(draw(TWO_BY_TWO) for _ in range(n_classes)), tosses)


def prediction_channel(state: EMState, config: EMConfig = EMConfig()) -> Channel:
    """Class label to floored predicted grid distribution."""
    grid = grid_points(state.tosses, 2)
    kernel = {}
    for x, coin in enumerate(state.coins):
        cells = map(bivbin(state.tosses, Coin(2, coin)).dist, grid)
        kernel[x] = Dist(zip(grid, _floored(cells, config.floor, len(grid))), mode=FLOAT)
    return Channel(tuple(range(state.n_classes)), kernel)


def predict(state: EMState, config: EMConfig = EMConfig()) -> Dist:
    """The mixture's predicted grid distribution."""
    return push(prediction_channel(state, config), state.mixture)


def _check_data(data_dist: Dist, tosses: int) -> None:
    if data_dist.mode != FLOAT:
        raise ModeMismatch("EM expects a float-mode data distribution")
    outside = off_grid(data_dist.support(), tosses, 2)
    if outside:
        raise SupportMismatch(f"data points {outside!r} fall outside the grid")


def _e_step(state: EMState, data_dist: Dist, config: EMConfig) -> tuple[float, list]:
    """``(divergence, weighted)``: the KL divergence from the data to
    :func:`predict`, and per class the data mass at each observed cell that
    the class is responsible for."""
    freqs = [d for _, d in data_dist.items()]
    joint = []
    for (_, w), coin in zip(state.mixture.items(), state.coins):
        cell = _cell_probability(state.tosses, Coin(2, coin))
        cells = (cell(n1, n2) for n1, n2 in data_dist.support())
        joint.append([w * g for g in _floored(cells, config.floor, (state.tosses + 1) ** 2)])
    predicted = [sum(column) for column in zip(*joint)]
    divergence = sum(d * math.log(d / q) for d, q in zip(freqs, predicted))
    weighted = [[d * (j / q) for d, j, q in zip(freqs, row, predicted)] for row in joint]
    return max(divergence, 0.0), weighted


def _m_step(state: EMState, points: tuple, weighted: list, config: EMConfig) -> EMState:
    """The mixture is each class's total responsibility for the data (the
    Jeffrey update); each coin is ``recover_coin`` of its class's normalized
    weighted data (the double dagger)."""
    masses = [sum(row) for row in weighted]
    mixture = _floored(masses, config.floor, len(masses), sum(masses))
    coins = []
    for row, mass in zip(weighted, masses):
        double = Dist(zip(points, (v / mass for v in row)), mode=FLOAT)
        coin = recover_coin(double, state.tosses, infeasible="clamp").dist
        faces = [coin(p) for p in TWO_BY_TWO]
        floored = _floored(faces, config.floor, len(faces), sum(faces))
        coins.append(Dist(zip(TWO_BY_TWO, floored), mode=FLOAT))
    return EMState(Dist(enumerate(mixture), mode=FLOAT), tuple(coins), state.tosses)


def em_step(state: EMState, data_dist: Dist, config: EMConfig = EMConfig()) -> EMState:
    """One E+M iteration against a data distribution on the grid."""
    _check_data(data_dist, state.tosses)
    return _m_step(state, data_dist.support(), _e_step(state, data_dist, config)[1], config)


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
    if iterations < 1:
        raise OutOfRange(f"need at least one iteration, got {iterations}")
    data_dist = to_float(flrn(data))
    _check_data(data_dist, tosses)
    state = em_init(n_classes, tosses, seed, config)
    records = []
    for i in range(iterations):
        divergence, weighted = _e_step(state, data_dist, config)
        records.append(EMRecord(i, divergence, state))
        state = _m_step(state, data_dist.support(), weighted, config)
    records.append(EMRecord(iterations, _e_step(state, data_dist, config)[0], state))
    return EMTrace(tuple(records))
