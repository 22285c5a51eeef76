import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import settings
import hypothesis.strategies as st

from bitoss.binomials import Coin, grid_points, two_coin
from bitoss.kernel import DegenerateObservation, Dist, Multiset, OutOfRange, check_count
from bitoss.succession import poisson_pmf

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

TWO_BY_TWO = ((0, 0), (0, 1), (1, 0), (1, 1))

# The worked two-coin used throughout: entwined, with simple fractions.
EXAMPLE_COIN = two_coin(
    Fraction(3, 8), Fraction(5, 12), Fraction(1, 12), Fraction(1, 8)
)

# The two-component generator pair for the mixture experiments.
MIXTURE_COINS = (
    EXAMPLE_COIN,
    two_coin(Fraction(1, 10), Fraction(1, 10), Fraction(1, 5), Fraction(3, 5)),
)
MIXTURE_WEIGHTS = (Fraction(1, 3), Fraction(2, 3))


def bit_points(n_dim: int) -> tuple:
    """The faces ``{0,1}^N``: the count grid of one toss."""
    return grid_points(1, n_dim)


@pytest.fixture
def example_coin() -> Coin:
    return EXAMPLE_COIN


def random_rational_dist(rng: random.Random, points, max_weight: int = 30) -> Dist:
    """Full-support rational distribution with small random weights."""
    weights = {p: rng.randint(1, max_weight) for p in points}
    return Dist.from_weights(weights)


def random_rational_coin(rng: random.Random, n_dim: int = 2) -> Coin:
    if n_dim == 1:
        return Coin(1, random_rational_dist(rng, (0, 1)))
    return Coin(n_dim, random_rational_dist(rng, bit_points(n_dim)))


def rational_dists(points, min_weight: int = 0, max_weight: int = 12):
    """Hypothesis strategy for rational distributions over fixed points."""
    points = list(points)
    return (
        st.lists(
            st.integers(min_weight, max_weight),
            min_size=len(points),
            max_size=len(points),
        )
        .filter(lambda w: sum(w) > 0)
        .map(lambda w: Dist.from_weights(dict(zip(points, w))))
    )


def summed(pairs, mode: str) -> Dist:
    """Reference accumulation: add each point's values in the given order
    (exact for Fractions, bit for bit for floats), then build the Dist from
    the sums, so the constructor sees no repeated point."""
    acc = {}
    for p, v in pairs:
        acc[p] = acc.get(p, 0) + v
    return Dist(acc, mode=mode)


def multisets(points, max_mult: int = 5):
    """Hypothesis strategy for multisets over fixed points."""
    points = list(points)
    return st.lists(
        st.integers(0, max_mult), min_size=len(points), max_size=len(points)
    ).map(lambda m: Multiset(dict(zip(points, m))))


POISSON_TAIL_TOL = 1e-9
_DEGENERATE_FLOOR = 1e-300


def default_truncation(rate: float) -> int:
    """A toss-count cutoff leaving Poisson tail mass below the tolerance."""
    return max(60, math.ceil(rate + 12.0 * math.sqrt(rate) + 12.0))


@dataclass(frozen=True)
class PoissonParams:
    """Poisson rate (checked by ``poisson_pmf``) plus the truncation of the
    brute-force inversion, which must keep at least ``1 - 1e-9`` of the mass."""

    rate: float
    truncation: int

    def __post_init__(self):
        check_count(self.truncation, "truncation")
        mass = sum(poisson_pmf(self.rate, k) for k in range(self.truncation + 1))
        if mass < 1.0 - POISSON_TAIL_TOL:
            raise OutOfRange(
                f"truncation {self.truncation} keeps only {mass!r} of the prior mass"
            )

    @classmethod
    def with_default_truncation(cls, rate: float) -> "PoissonParams":
        return cls(rate, default_truncation(rate))


def truncated_dagger_mean(channel_for, prior: PoissonParams, observation) -> float:
    """Brute-force posterior mean toss count over the truncated prior.

    ``channel_for(K)`` must return something callable on observation points
    (a distribution works).  This inverts the channel directly,

        sum_K K * pois(K) * channel_for(K)(obs) / sum_K pois(K) * channel_for(K)(obs).
    """
    num = 0.0
    den = 0.0
    for k in range(prior.truncation + 1):
        w = poisson_pmf(prior.rate, k) * float(channel_for(k)(observation))
        num += k * w
        den += w
    if den < _DEGENERATE_FLOOR:
        raise DegenerateObservation(
            f"observation {observation!r} has ~zero truncated mass"
        )
    return num / den
