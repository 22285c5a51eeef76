import math
import random
from fractions import Fraction

import pytest

from bitoss.binomials import binomial, bivbin_cell, fiber, two_coin
from bitoss.kernel import (
    DegenerateObservation,
    Dist,
    Multiset,
    OutOfRange,
    WrongSpace,
    enumerate_msets,
    flrn,
    mset_coefficient,
)
from bitoss.succession import (
    BetaParams,
    DirichletParams,
    beta_succession_mean,
    beta_update,
    binomial_poisson_mean,
    bivbin_dirichlet_mean,
    bivbin_dirichlet_mean_oracle,
    bivbin_poisson_mean,
    dirichlet_succession_mean,
    dirichlet_update,
    poisson_pmf,
)

from conftest import PoissonParams, default_truncation, truncated_dagger_mean

UNIFORM_PSI = Multiset({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})


# Independent references for the heads-pair Dirichlet rules: they build
# every fiber draw as a multiset and take its Dirichlet-multinomial
# probability from rising factorials, without the library's fiber_mean and
# count_terms.


def _rising(a: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= a + i
    return out


def dirichlet_multinomial_pmf(params: DirichletParams, phi: Multiset) -> Fraction:
    """Probability of the draw ``phi`` with the urn integrated out."""
    num = mset_coefficient(phi)
    for x, m in phi.items():
        num *= _rising(params.psi(x), m)
    return Fraction(num, _rising(params.psi.size, phi.size))


def reference_formula(params: DirichletParams, tosses: int, n1: int, n2: int) -> Dist:
    """The paper's formula: ``Flrn`` of the sum of ``psi + phi`` over the fiber."""
    total = Multiset()
    for phi in fiber(tosses, n1, n2):
        total = total + params.psi + phi
    return flrn(total)


def reference_posterior(params: DirichletParams, tosses: int, n1: int, n2: int) -> Dist:
    """The posterior mean: ``Flrn(psi + phi)`` averaged over the fiber with
    Dirichlet-multinomial weights."""
    weights = []
    means = []
    for phi in fiber(tosses, n1, n2):
        weights.append(dirichlet_multinomial_pmf(params, phi))
        means.append(flrn(params.psi + phi))
    total = sum(weights)
    acc = {p: Fraction(0) for p in UNIFORM_PSI.support()}
    for w, mean in zip(weights, means):
        for p in acc:
            acc[p] += w * mean(p)
    return Dist({p: v / total for p, v in acc.items()})


class TestBeta:
    def test_no_observation_keeps_prior(self):
        assert beta_update(BetaParams(1, 1), 0, 0) == BetaParams(1, 1)

    def test_update_counts(self):
        assert beta_update(BetaParams(1, 1), 5, 3) == BetaParams(4, 3)
        assert beta_update(BetaParams(2, 7), 10, 10) == BetaParams(12, 7)

    def test_all_heads_sunrise(self):
        for tosses in (1, 5, 50):
            assert beta_succession_mean(BetaParams(1, 1), tosses, tosses) == Fraction(
                tosses + 1, tosses + 2
            )

    def test_prior_mean(self):
        assert beta_succession_mean(BetaParams(1, 1), 0, 0) == Fraction(1, 2)
        assert BetaParams(3, 5).mean() == Fraction(3, 8)

    def test_substitution(self):
        assert beta_succession_mean(BetaParams(2, 3), 4, 1) == Fraction(1, 3)

    def test_parameter_validation(self):
        with pytest.raises(OutOfRange):
            BetaParams(0, 1)
        with pytest.raises(OutOfRange):
            beta_update(BetaParams(1, 1), 2, 3)

    def test_matches_dirichlet_over_two_points(self):
        # heads count n identified with the draw n|1> + (K-n)|0>
        rng = random.Random(2)
        for _ in range(20):
            alpha, beta = rng.randint(1, 6), rng.randint(1, 6)
            tosses = rng.randint(0, 8)
            n = rng.randint(0, tosses)
            d = DirichletParams(Multiset({1: alpha, 0: beta}))
            mean = dirichlet_succession_mean(d, Multiset({1: n, 0: tosses - n}))
            assert mean(1) == beta_succession_mean(BetaParams(alpha, beta), tosses, n)


class TestDirichlet:
    def test_empty_draw_keeps_prior(self):
        d = DirichletParams(UNIFORM_PSI)
        assert dirichlet_update(d, Multiset()).psi == UNIFORM_PSI

    def test_update_adds_counts(self):
        d = DirichletParams(UNIFORM_PSI)
        got = dirichlet_update(d, Multiset({(0, 1): 1, (1, 0): 1}))
        assert got.psi == Multiset({(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1})

    def test_mean_is_flrn_of_sum(self):
        d = DirichletParams(UNIFORM_PSI)
        draw = Multiset({(0, 1): 2, (1, 1): 1})
        assert dirichlet_succession_mean(d, draw) == flrn(UNIFORM_PSI + draw)

    def test_draw_outside_base_rejected(self):
        d = DirichletParams(Multiset({"a": 1, "b": 2}))
        with pytest.raises(WrongSpace):
            dirichlet_update(d, Multiset({"c": 1}))


class TestBivbinDirichlet:
    def test_singleton_fiber_reduces_to_dirichlet(self):
        d = DirichletParams(Multiset({(0, 0): 2, (0, 1): 3, (1, 0): 1, (1, 1): 2}))
        for n1, n2 in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            phi = fiber(1, n1, n2)[0]
            assert bivbin_dirichlet_mean(d, 1, n1, n2) == dirichlet_succession_mean(
                d, phi
            )

    def test_uniform_psi_balanced_heads(self):
        d = DirichletParams(UNIFORM_PSI)
        got = bivbin_dirichlet_mean(d, 2, 1, 1)
        assert got == Dist({p: Fraction(1, 4) for p in UNIFORM_PSI.support()})
        assert bivbin_dirichlet_mean_oracle(d, 2, 1, 1) == got

    def test_forced_corner(self):
        d = DirichletParams(UNIFORM_PSI)
        got = bivbin_dirichlet_mean(d, 2, 2, 0)
        assert got == flrn(Multiset({(0, 0): 1, (0, 1): 1, (1, 0): 3, (1, 1): 1}))

    def test_oracle_pmf_normalizes(self):
        d = DirichletParams(Multiset({(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 3}))
        for draws in range(4):
            total = sum(
                dirichlet_multinomial_pmf(d, phi)
                for phi in enumerate_msets(UNIFORM_PSI.support(), draws)
            )
            assert total == 1

    def test_unit_psi_agrees_with_oracle(self):
        # with all pseudo-counts 1 every size-K draw is equally likely, so
        # the unweighted fiber sum equals the weighted posterior mean
        d = DirichletParams(UNIFORM_PSI)
        for tosses in range(1, 4):
            for n1 in range(tosses + 1):
                for n2 in range(tosses + 1):
                    assert bivbin_dirichlet_mean(
                        d, tosses, n1, n2
                    ) == bivbin_dirichlet_mean_oracle(d, tosses, n1, n2)

    def test_symmetric_psi_agrees_when_fiber_draws_share_shape(self):
        # at K = 2 the two balanced-heads draws are permutations of each
        # other, so any symmetric pseudo-counts give them equal weight
        for scale in (1, 2, 3):
            psi = Multiset({p: scale for p in UNIFORM_PSI.support()})
            d = DirichletParams(psi)
            for n1 in range(3):
                for n2 in range(3):
                    assert bivbin_dirichlet_mean(
                        d, 2, n1, n2
                    ) == bivbin_dirichlet_mean_oracle(d, 2, n1, n2)

    def test_scaled_symmetric_psi_counterexample(self):
        # doubling the pseudo-counts breaks the equality once a fiber mixes
        # draws of different multiplicity shapes: at K = 3, heads (1, 1),
        # the draws 2|00>+1|11> and 1|00>+1|01>+1|10> carry weights
        # 36/720 and 48/720, so the unweighted sum is biased
        d = DirichletParams(Multiset({p: 2 for p in UNIFORM_PSI.support()}))
        formula = bivbin_dirichlet_mean(d, 3, 1, 1)
        oracle = bivbin_dirichlet_mean_oracle(d, 3, 1, 1)
        assert formula == Dist(
            {
                (0, 0): Fraction(7, 22),
                (0, 1): Fraction(5, 22),
                (1, 0): Fraction(5, 22),
                (1, 1): Fraction(5, 22),
            }
        )
        assert oracle == Dist(
            {
                (0, 0): Fraction(24, 77),
                (0, 1): Fraction(18, 77),
                (1, 0): Fraction(18, 77),
                (1, 1): Fraction(17, 77),
            }
        )
        assert formula != oracle

    def test_asymmetric_psi_known_discrepancy(self):
        # multi-element fiber with uneven pseudo-counts: the unweighted
        # fiber sum and the weighted posterior mean genuinely differ
        d = DirichletParams(Multiset({(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 1}))
        formula = bivbin_dirichlet_mean(d, 2, 1, 1)
        oracle = bivbin_dirichlet_mean_oracle(d, 2, 1, 1)
        assert formula == Dist(
            {
                (0, 0): Fraction(5, 14),
                (0, 1): Fraction(3, 14),
                (1, 0): Fraction(3, 14),
                (1, 1): Fraction(3, 14),
            }
        )
        assert oracle == Dist(
            {
                (0, 0): Fraction(8, 21),
                (0, 1): Fraction(4, 21),
                (1, 0): Fraction(4, 21),
                (1, 1): Fraction(5, 21),
            }
        )
        assert formula != oracle

    def test_engine_matches_multiset_references(self):
        rng = random.Random(6)
        for _ in range(8):
            d = DirichletParams(Multiset({p: rng.randint(1, 6) for p in UNIFORM_PSI.support()}))
            for tosses in range(7):
                for n1 in range(tosses + 1):
                    for n2 in range(tosses + 1):
                        assert bivbin_dirichlet_mean(d, tosses, n1, n2) == reference_formula(
                            d, tosses, n1, n2
                        )
                        assert bivbin_dirichlet_mean_oracle(
                            d, tosses, n1, n2
                        ) == reference_posterior(d, tosses, n1, n2)

    def test_exact_posterior_at_large_K(self):
        # the fiber has 101 draws; the reference enumerates them one by one
        d = DirichletParams(Multiset({(0, 0): 2, (0, 1): 5, (1, 0): 1, (1, 1): 3}))
        assert bivbin_dirichlet_mean_oracle(d, 200, 100, 120) == reference_posterior(
            d, 200, 100, 120
        )

    def test_full_support_required(self):
        with pytest.raises(WrongSpace):
            bivbin_dirichlet_mean(
                DirichletParams(Multiset({(0, 0): 1})), 2, 1, 1
            )


class TestPoissonPmf:
    def test_zero_rate(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_rate_two_at_two(self):
        assert poisson_pmf(2.0, 2) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    def test_normalizes(self):
        total = sum(poisson_pmf(3.5, k) for k in range(200))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -1.0])
    def test_rate_must_be_finite_and_nonnegative(self, rate):
        with pytest.raises(OutOfRange):
            poisson_pmf(rate, 2)
        with pytest.raises(OutOfRange):
            binomial_poisson_mean(0.5, rate, 2)
        with pytest.raises(OutOfRange):
            bivbin_poisson_mean(two_coin(*(Fraction(1, 4),) * 4), rate, 1, 2)

    def test_params_validation(self):
        with pytest.raises(OutOfRange):
            PoissonParams(5.0, 2)  # keeps far too little mass
        PoissonParams.with_default_truncation(5.0)
        assert default_truncation(0.0) == 60


class TestBinomialPoisson:
    def test_perfect_detector(self):
        assert binomial_poisson_mean(1.0, 3.0, 4) == 4.0

    def test_blind_detector(self):
        assert binomial_poisson_mean(0.0, 2.5, 0) == 2.5

    def test_substitution(self):
        assert binomial_poisson_mean(0.5, 2.0, 3) == 4.0

    def test_against_truncated_dagger(self):
        prior = PoissonParams(2.0, 60)
        got = truncated_dagger_mean(lambda k: binomial(k, 0.5), prior, 3)
        assert got == pytest.approx(4.0, abs=1e-6)

    def test_grid_against_oracle(self):
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            for rate in (0.5, 2.0, 5.0):
                prior = PoissonParams(rate, 60)
                for n in (0, 1, 4, 8):
                    closed = binomial_poisson_mean(r, rate, n)
                    brute = truncated_dagger_mean(
                        lambda k, r=r: binomial(k, r), prior, n
                    )
                    assert abs(closed - brute) <= 1e-6


def _cell_channel(coin):
    return lambda k: (lambda obs: bivbin_cell(k, coin, obs[0], obs[1]))


class TestBivbinPoisson:
    def test_nothing_observed(self):
        coin = two_coin(0.375, 5 / 12, 1 / 12, 0.125)
        assert bivbin_poisson_mean(coin, 3.0, 0, 0) == pytest.approx(0.375 * 3.0)

    def test_example_coin_against_oracle(self):
        coin = two_coin(0.375, 5 / 12, 1 / 12, 0.125)
        prior = PoissonParams(3.0, 60)
        closed = bivbin_poisson_mean(coin, 3.0, 1, 2)
        brute = truncated_dagger_mean(_cell_channel(coin), prior, (1, 2))
        assert abs(closed - brute) <= 1e-6

    def test_swapped_observation_against_oracle(self):
        coin = two_coin(0.375, 5 / 12, 1 / 12, 0.125)
        prior = PoissonParams(3.0, 60)
        closed = bivbin_poisson_mean(coin, 3.0, 2, 1)
        brute = truncated_dagger_mean(_cell_channel(coin), prior, (2, 1))
        assert abs(closed - brute) <= 1e-6

    def test_product_coin_marginal_matches_scalar_rule(self):
        # independent coordinates: observing the pair (n, 0) with the second
        # coordinate never showing heads behaves like a single detector
        r, s = 0.6, 0.4
        coin = two_coin((1 - r) * (1 - s), (1 - r) * s, r * (1 - s), r * s)
        prior = PoissonParams(1.5, 60)
        for n1 in range(3):
            for n2 in range(3):
                closed = bivbin_poisson_mean(coin, 1.5, n1, n2)
                brute = truncated_dagger_mean(_cell_channel(coin), prior, (n1, n2))
                assert abs(closed - brute) <= 1e-6

    def test_large_rate_does_not_underflow(self):
        # rate 1e6 on a uniform coin: each face rate is 250000, the draws of
        # faces 01, 10, 11 are (1, 0, 1) and (2, 1, 0), weighted 1 : rate/8,
        # so E[#11] = 1/125001
        coin = two_coin(*(Fraction(1, 4),) * 4)
        expected = 250_000 + 3 - 1 / 125_001
        for n1, n2 in ((1, 2), (2, 1)):
            got = bivbin_poisson_mean(coin, 1e6, n1, n2)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_degenerate_observation(self):
        coin = two_coin(0.5, 0.0, 0.25, 0.25)
        # the (0,1) face never occurs, so strictly more heads in the second
        # coordinate are impossible
        with pytest.raises(DegenerateObservation):
            bivbin_poisson_mean(coin, 2.0, 0, 1)


class TestTruncatedDagger:
    def test_constant_channel_gives_prior_mean(self):
        prior = PoissonParams(2.0, 80)
        got = truncated_dagger_mean(lambda k: (lambda _: 1.0), prior, "anything")
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_degenerate_denominator(self):
        prior = PoissonParams(1.0, 60)
        with pytest.raises(DegenerateObservation):
            truncated_dagger_mean(lambda k: (lambda _: 0.0), prior, (0, 0))
