import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from bitoss.binomials import binomial, bivbin
from bitoss.channels import Channel, dagger, push
from bitoss.kernel import (
    Dist,
    DomainMismatch,
    ModeMismatch,
    to_float,
)

from conftest import MIXTURE_COINS, MIXTURE_WEIGHTS, rational_dists, summed


def small_channel(rng: random.Random, domain, codomain) -> Channel:
    kernel = {
        x: Dist.from_weights({y: rng.randint(1, 9) for y in codomain}) for x in domain
    }
    return Channel(tuple(domain), kernel)


class TestChannel:
    def test_missing_kernel_entry_rejected(self):
        with pytest.raises(DomainMismatch):
            Channel((0, 1), {0: Dist({0: 1})})

    def test_mixed_modes_rejected(self):
        with pytest.raises(ModeMismatch):
            Channel((0, 1), {0: Dist({0: 1}), 1: Dist({0: 1.0})})

    def test_call_outside_domain(self):
        chan = Channel((0,), {0: Dist({0: 1})})
        with pytest.raises(DomainMismatch):
            chan(3)


class TestPush:
    def test_constant_channel(self):
        sigma = Dist({0: Fraction(1, 4), 1: Fraction(3, 4)})
        chan = Channel(("a", "b"), {"a": sigma, "b": sigma})
        omega = Dist({"a": Fraction(2, 3), "b": Fraction(1, 3)})
        assert push(chan, omega) == sigma

    def test_point_mass_prior_selects_kernel(self):
        chan = Channel((0, 1), {0: Dist({0: 1}), 1: Dist({1: 1})})
        assert push(chan, Dist({1: 1})) == chan(1)

    def test_mixture_of_grids(self):
        # weighted sum of the two component grids, computed independently
        tosses = 15
        grids = [bivbin(tosses, coin).dist for coin in MIXTURE_COINS]
        chan = Channel((0, 1), dict(enumerate(grids)))
        omega = Dist(dict(enumerate(MIXTURE_WEIGHTS)))
        got = push(chan, omega)
        for point in got.support():
            expected = sum(
                w * g(point) for w, g in zip(MIXTURE_WEIGHTS, grids)
            )
            assert got(point) == expected

    def test_prior_outside_domain(self):
        chan = Channel((0,), {0: Dist({0: 1})})
        with pytest.raises(DomainMismatch):
            push(chan, Dist({0: Fraction(1, 2), 1: Fraction(1, 2)}))

    @given(rational_dists([0, 1, 2], min_weight=1))
    def test_total_probability_preserved(self, omega):
        rng = random.Random(7)
        chan = small_channel(rng, (0, 1, 2), "xyz")
        assert sum(v for _, v in push(chan, omega).items()) == 1

    @given(rational_dists([0, 1, 2]), st.integers(0, 2**32))
    def test_matches_summing_reference(self, omega, seed):
        # exact for Fractions, and bit for bit for floats
        rat = small_channel(random.Random(seed), (0, 1, 2), "wxyz")
        flt = Channel(rat.domain, {x: to_float(rat(x)) for x in rat.domain})
        for chan, prior in ((rat, omega), (flt, to_float(omega))):
            pairs = [(y, w * v) for x, w in prior.items() for y, v in chan(x).items()]
            assert push(chan, prior) == summed(pairs, prior.mode)


class TestDagger:
    def test_constant_channel_returns_prior(self):
        sigma = Dist({0: Fraction(1, 4), 1: Fraction(3, 4)})
        omega = Dist({"a": Fraction(2, 3), "b": Fraction(1, 3)})
        chan = Channel(("a", "b"), {"a": sigma, "b": sigma})
        inv = dagger(chan, omega)
        assert inv.domain == (0, 1)
        assert all(inv(y) == omega for y in inv.domain)

    def test_deterministic_injective_inverts(self):
        chan = Channel((0, 1, 2), {x: Dist({x + 10: 1}) for x in (0, 1, 2)})
        omega = Dist.from_weights({0: 1, 1: 2, 2: 3})
        inv = dagger(chan, omega)
        for x in (0, 1, 2):
            assert inv(x + 10) == Dist({x: 1})

    def test_binomial_bias_posterior(self):
        # uniform prior over biases {1/4, 3/4}, observe two heads in two
        # tosses: posterior odds are 1/16 against 9/16
        biases = (Fraction(1, 4), Fraction(3, 4))
        chan = Channel(biases, {r: binomial(2, r) for r in biases})
        omega = Dist({r: Fraction(1, 2) for r in biases})
        inv = dagger(chan, omega)
        assert inv(2) == Dist(
            {Fraction(1, 4): Fraction(1, 10), Fraction(3, 4): Fraction(9, 10)}
        )

    def test_domain_restricted_to_pushforward_support(self):
        chan = Channel((0,), {0: Dist({5: 1})})
        inv = dagger(chan, Dist({0: 1}))
        assert inv.domain == (5,)

    @given(rational_dists([0, 1, 2], min_weight=1))
    def test_bayes_consistency(self, omega):
        rng = random.Random(13)
        chan = small_channel(rng, (0, 1, 2), "uv")
        predicted = push(chan, omega)
        inv = dagger(chan, omega)
        for y in inv.domain:
            for x in omega.support():
                assert inv(y)(x) * predicted(y) == omega(x) * chan(x)(y)

    @given(rational_dists([0, 1, 2], min_weight=1))
    def test_double_dagger_round_trip(self, omega):
        rng = random.Random(29)
        chan = small_channel(rng, (0, 1, 2), "pqr")
        assert push(dagger(chan, omega), push(chan, omega)) == omega

    def test_float_mode_round_trip(self):
        rng = random.Random(3)
        chan = small_channel(rng, (0, 1), "xy")
        chan = Channel(chan.domain, {x: to_float(chan(x)) for x in chan.domain})
        omega = Dist({0: 0.3, 1: 0.7})
        back = push(dagger(chan, omega), push(chan, omega))
        for x in omega.support():
            assert float(back(x)) == pytest.approx(float(omega(x)), abs=1e-12)
