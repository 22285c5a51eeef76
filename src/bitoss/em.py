"""Expectation Maximisation for mixtures of bivariate binomials.

The model is a mixture distribution over class labels together with one
two-coin per class; class ``x`` predicts the grid distribution of its coin
after ``K`` tosses.  One iteration performs

* an E-step as a Jeffrey update: the new mixture is the data distribution
  pushed back through the dagger of the prediction channel, taken only at
  the data's support, and
* an M-step via the double dagger: the dagger is inverted again with the
  data distribution as prior, and each class's resulting grid distribution
  is projected onto coin parameters through ``recover_coin``.

Predicted grids are floored (a small ``delta`` added to every cell, then
renormalized) before any dagger is taken, so inversions never divide by
zero; the moment projection clamps and renormalizes when the double dagger
is not exactly a bivariate binomial.  The run records the KL divergence
from the data distribution to the prediction before each step and after
the last.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .binomials import Coin, bivbin, grid_points, off_grid, recover_coin
from .channels import Channel, dagger, push
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
    kl_divergence,
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


def _floored(dist: Dist, points: tuple, delta: float) -> Dist:
    """Give every listed point at least ``delta`` mass, then renormalize."""
    return Dist.from_weights({p: float(dist(p)) + delta for p in points}, mode=FLOAT)


def em_init(n_classes: int, tosses: int, seed: int, config: EMConfig = EMConfig()) -> EMState:
    """Deterministic random start: mixture and coins from the counter-based
    generator under ``seed``, floored to full support."""
    if n_classes < 1:
        raise OutOfRange(f"need at least one class, got {n_classes}")
    if tosses < 1:
        raise OutOfRange(f"toss count must be >= 1, got {tosses}")
    draws = count()

    def uniform() -> float:
        return counter_rng(seed, next(draws)) / float(1 << 64)

    mixture = _floored(
        Dist.from_weights({x: uniform() + 1e-6 for x in range(n_classes)}, mode=FLOAT),
        tuple(range(n_classes)),
        config.floor,
    )
    coins = tuple(
        _floored(
            Dist.from_weights({p: uniform() + 1e-6 for p in TWO_BY_TWO}, mode=FLOAT),
            TWO_BY_TWO,
            config.floor,
        )
        for _ in range(n_classes)
    )
    return EMState(mixture=mixture, coins=coins, tosses=tosses)


def prediction_channel(state: EMState, config: EMConfig = EMConfig()) -> Channel:
    """Class label to floored predicted grid distribution."""
    grid = grid_points(state.tosses, 2)
    kernel = {
        x: _floored(bivbin(state.tosses, Coin(2, state.coins[x])).dist, grid, config.floor)
        for x in range(state.n_classes)
    }
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


def _step(state: EMState, data_dist: Dist, chan: Channel, config: EMConfig) -> EMState:
    # the data distribution reads the inversion only at its own support
    inversion = dagger(chan, state.mixture, data_dist.support())
    new_mixture = _floored(
        push(inversion, data_dist), tuple(range(state.n_classes)), config.floor
    )
    double = dagger(inversion, data_dist)
    new_coins = tuple(
        _floored(
            recover_coin(double(x), state.tosses, infeasible="clamp").dist,
            TWO_BY_TWO,
            config.floor,
        )
        for x in range(state.n_classes)
    )
    return EMState(mixture=new_mixture, coins=new_coins, tosses=state.tosses)


def em_step(state: EMState, data_dist: Dist, config: EMConfig = EMConfig()) -> EMState:
    """One E+M iteration against a data distribution on the grid."""
    _check_data(data_dist, state.tosses)
    return _step(state, data_dist, prediction_channel(state, config), config)


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
        chan = prediction_channel(state, config)
        records.append(EMRecord(i, kl_divergence(data_dist, push(chan, state.mixture)), state))
        state = _step(state, data_dist, chan, config)
    records.append(
        EMRecord(len(records), kl_divergence(data_dist, predict(state, config)), state)
    )
    return EMTrace(tuple(records))
