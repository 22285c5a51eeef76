import copy
import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from types import MappingProxyType

import pytest
from hypothesis import given
import hypothesis.strategies as st

from bitoss.kernel import (
    Dist,
    EmptyMultiset,
    FLOAT,
    Frozen,
    ModeMismatch,
    Multiset,
    NotNormalized,
    OutOfRange,
    RATIONAL,
    ResourceLimit,
    SupportMismatch,
    WrongSpace,
    coerce_scalar,
    convolve,
    count_msets,
    counter_rng,
    dist_map,
    enumerate_msets,
    flrn,
    is_entwined,
    kl_divergence,
    moments,
    mset_coefficient,
    mset_map,
    sample,
    tensor,
    to_float,
    validity,
)
from bitoss.binomials import (
    Coin,
    GridDist,
    binomial,
    bivbin,
    fiber,
    flip,
    mvbin_functorial,
    recover_coin,
    two_coin,
)
from bitoss.channels import Channel
from bitoss.em import EMConfig, EMRecord, EMState, EMTrace, em_init, em_run
from bitoss.succession import (
    BetaParams,
    DirichletParams,
    beta_succession_mean,
    binomial_poisson_mean,
    bivbin_dirichlet_mean,
    bivbin_dirichlet_mean_oracle,
    bivbin_poisson_mean,
    poisson_pmf,
)

from conftest import (
    EXAMPLE_COIN,
    bit_points,
    multisets,
    random_rational_coin,
    random_rational_dist,
    rational_dists,
    summed,
)

URN = Multiset({"R": 3, "G": 2, "B": 5})


# ---------------------------------------------------------------------------
# Multiset basics
# ---------------------------------------------------------------------------


class TestMultiset:
    def test_zero_multiplicities_dropped(self):
        assert Multiset({"a": 0, "b": 2}) == Multiset({"b": 2})

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(OutOfRange):
            Multiset({"a": -1})

    def test_size_counts_multiplicity(self):
        assert URN.size == 10

    @given(multisets("abc"), multisets("abc"), multisets("abc"))
    def test_addition_commutative_associative(self, x, y, z):
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x + Multiset() == x


# ---------------------------------------------------------------------------
# mset_map
# ---------------------------------------------------------------------------


class TestMsetMap:
    def test_identity(self):
        phi = Multiset({"R": 3, "G": 2})
        assert mset_map(lambda x: x, phi) == phi

    def test_projection_marginal(self):
        phi = Multiset({(0, 1): 1, (1, 0): 2, (1, 1): 1})
        assert mset_map(lambda p: p[0], phi) == Multiset({0: 1, 1: 3})

    def test_constant_collapses_to_size(self):
        assert mset_map(lambda _: "*", URN) == Multiset({"*": 10})

    @given(multisets("abcd"), multisets("abcd"))
    def test_monoid_homomorphism(self, phi, psi):
        collapse = {"a": 0, "b": 0, "c": 1, "d": 1}.get
        assert mset_map(collapse, phi + psi) == mset_map(collapse, phi) + mset_map(
            collapse, psi
        )
        assert mset_map(collapse, Multiset()) == Multiset()
        assert mset_map(collapse, phi).size == phi.size


# ---------------------------------------------------------------------------
# flrn
# ---------------------------------------------------------------------------


class TestFlrn:
    def test_urn(self):
        assert flrn(URN) == Dist(
            {"R": Fraction(3, 10), "G": Fraction(1, 5), "B": Fraction(1, 2)}
        )

    def test_singleton(self):
        assert flrn(Multiset({"x": 7})) == Dist({"x": 1})

    def test_two_equal(self):
        assert flrn(Multiset({"a": 1, "b": 1})) == Dist(
            {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        )

    def test_empty_rejected(self):
        with pytest.raises(EmptyMultiset):
            flrn(Multiset())


# ---------------------------------------------------------------------------
# enumerate_msets / mset_coefficient
# ---------------------------------------------------------------------------


class TestEnumeration:
    def test_two_points_size_two(self):
        got = enumerate_msets((0, 1), 2)
        assert got == [
            Multiset({0: 2}),
            Multiset({0: 1, 1: 1}),
            Multiset({1: 2}),
        ]

    def test_two_by_two_size_two_has_ten(self):
        base = [(0, 0), (0, 1), (1, 0), (1, 1)]
        got = enumerate_msets(base, 2)
        assert len(got) == 10
        assert len(set(got)) == 10
        assert all(phi.size == 2 for phi in got)

    def test_single_point(self):
        assert enumerate_msets(("a",), 5) == [Multiset({"a": 5})]

    @pytest.mark.parametrize("n_points,size", [(2, 4), (3, 3), (4, 5)])
    def test_count_matches_stars_and_bars(self, n_points, size):
        base = list(range(n_points))
        got = enumerate_msets(base, size)
        assert len(got) == count_msets(n_points, size) == math.comb(
            size + n_points - 1, n_points - 1
        )

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_equals_counted_sorted_sequences(self, n_dim):
        # a draw is a nondecreasing sequence of points, counted into a multiset
        points = bit_points(n_dim)
        for size in range(9):
            expected = [
                Multiset(Counter(seq))
                for seq in combinations_with_replacement(points, size)
            ]
            assert enumerate_msets(points, size) == expected

    def test_one_dimensional_draws_at_two_thousand(self):
        size = 2000
        expected = [Multiset({0: size - n, 1: n}) for n in range(size + 1)]
        assert enumerate_msets((1, 0), size) == expected

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("BITOSS_MSET_CAP", "3")
        with pytest.raises(ResourceLimit):
            enumerate_msets(range(2), 5)
        monkeypatch.setenv("BITOSS_MSET_CAP", "1000")
        assert len(enumerate_msets(range(2), 5)) == 6

    def test_coefficient_single_point(self):
        assert mset_coefficient(Multiset({"a": 2})) == 1

    def test_coefficient_pair(self):
        assert mset_coefficient(Multiset({"a": 1, "b": 1})) == 2

    def test_coefficient_four_distinct(self):
        phi = Multiset({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
        assert mset_coefficient(phi) == math.factorial(4) == 24


# ---------------------------------------------------------------------------
# Dist construction and mode discipline
# ---------------------------------------------------------------------------


class TestDist:
    def test_rational_must_sum_to_one(self):
        with pytest.raises(NotNormalized):
            Dist({"a": Fraction(1, 2), "b": Fraction(1, 3)})

    def test_float_tolerance(self):
        Dist({"a": 0.5, "b": 0.5 + 1e-12})
        with pytest.raises(NotNormalized):
            Dist({"a": 0.5, "b": 0.6})

    def test_mixed_scalars_rejected(self):
        with pytest.raises(ModeMismatch):
            Dist({"a": Fraction(1, 2), "b": 0.5})

    def test_negative_probability_rejected(self):
        with pytest.raises(OutOfRange):
            Dist({"a": Fraction(3, 2), "b": Fraction(-1, 2)})

    def test_zero_entries_dropped(self):
        assert Dist({"a": 1, "b": 0}).support() == ("a",)
        assert Dist([("a", 0.0), ("b", 1.0), ("a", 0.0), ("c", -0.0)]).support() == ("b",)

    def test_nan_probability_rejected(self):
        with pytest.raises(OutOfRange):
            Dist({0: 1.0, 1: float("nan")})

    def test_repeated_points_sum_exactly(self):
        got = Dist([("a", Fraction(1, 6)), ("b", Fraction(1, 2)), ("a", Fraction(1, 3))])
        assert got.items() == (("a", Fraction(1, 2)), ("b", Fraction(1, 2)))
        assert type(got("a")) is Fraction

    def test_repeated_points_sum_in_given_order(self):
        # (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit
        parts = [0.1, 0.2, 0.3]
        got = Dist([("a", v) for v in parts] + [("b", 0.4)])
        assert got("a") == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert Dist([("a", v) for v in reversed(parts)] + [("b", 0.4)])("a") == 0.3 + 0.2 + 0.1

    def test_negative_entry_at_repeated_point_rejected(self):
        with pytest.raises(OutOfRange):
            Dist([("a", Fraction(3, 4)), ("a", Fraction(-1, 4)), ("b", Fraction(1, 2))])
        with pytest.raises(OutOfRange):
            Dist([("a", 0.75), ("a", -0.25), ("b", 0.5)])

    def test_cross_mode_operations_error(self):
        rat = Dist({0: Fraction(1, 2), 1: Fraction(1, 2)})
        flt = Dist({0: 0.5, 1: 0.5})
        with pytest.raises(ModeMismatch):
            tensor(rat, flt)
        with pytest.raises(ModeMismatch):
            convolve(rat, flt)

    def test_to_float(self):
        d = to_float(Dist({0: Fraction(1, 4), 1: Fraction(3, 4)}))
        assert d.mode == FLOAT and d(0) == 0.25

    def test_near_miss_not_normalized(self):
        third = Fraction(1, 3)
        with pytest.raises(NotNormalized):
            Dist({"a": third, "b": third, "c": third - Fraction(1, 10**300)})

    def test_prime_denominators_off_by_their_product(self):
        primes = [p for p in range(1000, 1400) if all(p % d for d in range(2, 38))][:50]
        assert len(primes) == 50
        parts = {p: Fraction(1, p) for p in primes}
        rest = 1 - sum(parts.values())
        Dist({**parts, 0: rest})
        with pytest.raises(NotNormalized):
            Dist({**parts, 0: rest - Fraction(1, math.prod(primes))})


class TestCoerceScalar:
    def test_rejects_bool(self):
        for mode in (RATIONAL, FLOAT):
            with pytest.raises(OutOfRange):
                coerce_scalar(True, mode)

    def test_rejects_cross_mode(self):
        with pytest.raises(ModeMismatch):
            coerce_scalar(Fraction(1, 2), FLOAT)
        with pytest.raises(ModeMismatch):
            coerce_scalar(0.5, RATIONAL)

    def test_rejects_unknown_mode(self):
        for value in (Fraction(1, 2), 0.5, 1):
            with pytest.raises(OutOfRange):
                coerce_scalar(value, "decimal")

    def test_converts_subclasses_and_ints(self):
        class Half(float):
            pass

        got = coerce_scalar(Half(0.5), FLOAT)
        assert type(got) is float and got == 0.5
        assert type(coerce_scalar(3, FLOAT)) is float
        got = coerce_scalar(3, RATIONAL)
        assert type(got) is Fraction and got == 3


# ---------------------------------------------------------------------------
# The stored numerators over one denominator
# ---------------------------------------------------------------------------


class TestNumerators:
    # the example coin's faces are over D = 24, so its K = 3 grid is over D**3
    CELLS = dict(bivbin(3, EXAMPLE_COIN).dist.items())

    def three_ways(self) -> list:
        """The same grid from Fractions, and from integer numerators over
        ``L``, ``2 L``, ``D**K`` and ``(2 D)**K``."""
        cells = self.CELLS
        low = math.lcm(*(v.denominator for v in cells.values()))
        assert 24**3 % low == 0
        over = [Dist({p: int(v * den) for p, v in cells.items()}, den=den)
                for den in (low, 2 * low, 24**3, 48**3)]
        return [Dist(cells)] + over

    def test_three_ways_agree(self):
        first, *rest = self.three_ways()
        for other in rest:
            assert other == first and hash(other) == hash(first)
            assert other.items() == first.items() and other.support() == first.support()
            assert repr(other) == repr(first)
            assert moments(other) == moments(first)
            assert sample(other, 500, 17) == sample(first, 500, 17)
        assert first.items() == tuple(sorted(self.CELLS.items()))
        assert all(type(v) is Fraction for _, v in first.items())

    def test_sum_must_be_the_denominator(self):
        with pytest.raises(NotNormalized):
            Dist({0: 1, 1: 1}, den=3)
        with pytest.raises(NotNormalized):
            Dist({0: 1, 1: 0}, den=2)

    def test_negative_numerator_rejected(self):
        with pytest.raises(OutOfRange):
            Dist({0: 3, 1: -1}, den=2)
        with pytest.raises(OutOfRange):
            Dist([(0, 3), (0, -1), (1, 1)], den=3)

    def test_denominator_is_a_positive_int_and_rational(self):
        for den in (0, True, 2.0):
            with pytest.raises(OutOfRange):
                Dist({0: 1, 1: 1}, den=den)
        with pytest.raises(ModeMismatch):
            Dist({0: 1}, mode=FLOAT, den=1)
        assert Dist({0: 1, 1: 1}, mode=RATIONAL, den=2) == Dist({0: HALF, 1: HALF})

    @given(st.randoms(use_true_random=False), st.integers(1, 7), st.integers(1, 30))
    def test_round_trip(self, rng, n_points, scale):
        omega = random_rational_dist(rng, range(n_points))
        den = scale * math.lcm(*(v.denominator for _, v in omega.items()))
        # each numerator split in two, so the parts add up at their point
        parts = [(p, part) for p, v in omega.items()
                 for part in (int(v * den) // 3, int(v * den) - int(v * den) // 3)]
        again = Dist(parts, den=den)
        assert again == omega and hash(again) == hash(omega)
        assert again.items() == omega.items() and repr(again) == repr(omega)

    @pytest.mark.parametrize("n_dim", [2, 3])
    def test_bivbin_equals_functorial(self, n_dim):
        coin = random_rational_coin(random.Random(7 + n_dim), n_dim)
        acc = Dist({(0,) * n_dim: 1})
        for tosses in range(1, 5):
            acc = convolve(acc, coin.dist)  # no multinomial term: an independent grid
            got = bivbin(tosses, coin).dist
            assert got == mvbin_functorial(tosses, coin).dist == acc
            assert hash(got) == hash(acc) and got.items() == acc.items()


# ---------------------------------------------------------------------------
# dist_map / tensor / is_entwined
# ---------------------------------------------------------------------------


class TestDistMap:
    def test_identity(self):
        omega = Dist({0: Fraction(1, 3), 1: Fraction(2, 3)})
        assert dist_map(lambda x: x, omega) == omega

    def test_marginal(self):
        tau = Dist({(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
        assert dist_map(lambda p: p[0], tau) == Dist(
            {0: Fraction(1, 2), 1: Fraction(1, 2)}
        )

    @given(rational_dists([(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (1, 2)]))
    def test_matches_summing_reference(self, omega):
        # exact for Fractions, and bit for bit for floats
        for f in (lambda p: p[0] + p[1], lambda p: p[0], lambda p: 0):
            for dist in (omega, to_float(omega)):
                pairs = [(f(p), v) for p, v in dist.items()]
                assert dist_map(f, dist) == summed(pairs, dist.mode)

    @given(rational_dists([(0, 0), (0, 1), (1, 0), (1, 1)]))
    def test_preserves_normalization_exactly(self, omega):
        pushed = dist_map(lambda p: p[0] + p[1], omega)
        assert sum(v for _, v in pushed.items()) == 1


class TestTensor:
    def test_point_mass_unit(self):
        omega = Dist({0: Fraction(1, 3), 1: Fraction(2, 3)})
        got = tensor(Dist({"a": 1}), omega)
        assert got == Dist({("a", 0): Fraction(1, 3), ("a", 1): Fraction(2, 3)})

    def test_fair_flips(self):
        got = tensor(flip(Fraction(1, 2)).dist, flip(Fraction(1, 2)).dist)
        assert all(v == Fraction(1, 4) for _, v in got.items())

    def test_third_and_quarter(self):
        got = tensor(flip(Fraction(1, 3)).dist, flip(Fraction(1, 4)).dist)
        assert got == Dist(
            {
                (0, 0): Fraction(1, 2),
                (0, 1): Fraction(1, 6),
                (1, 0): Fraction(1, 4),
                (1, 1): Fraction(1, 12),
            }
        )

    @given(rational_dists([0, 1]), rational_dists([0, 1, 2]))
    def test_marginals_recover_factors(self, omega, rho):
        prod = tensor(omega, rho)
        assert dist_map(lambda p: p[0], prod) == omega
        assert dist_map(lambda p: p[1], prod) == rho


class TestEntwined:
    def test_example_coin_is_entwined(self):
        assert is_entwined(EXAMPLE_COIN.dist)

    @given(rational_dists([0, 1]), rational_dists([0, 1]))
    def test_products_never_entwined(self, omega, rho):
        assert not is_entwined(tensor(omega, rho))

    def test_uniform_not_entwined(self):
        quarter = Fraction(1, 4)
        tau = Dist({p: quarter for p in [(0, 0), (0, 1), (1, 0), (1, 1)]})
        assert not is_entwined(tau)

    def test_wrong_space_rejected(self):
        with pytest.raises(WrongSpace):
            is_entwined(Dist({(0, 2): 1}))


# ---------------------------------------------------------------------------
# convolve
# ---------------------------------------------------------------------------


class TestConvolve:
    def test_unit_law(self):
        omega = Dist({0: Fraction(1, 3), 2: Fraction(2, 3)})
        assert convolve(omega, Dist({0: 1})) == omega

    def test_two_flips_make_binomial(self):
        third = flip(Fraction(1, 3)).dist
        assert convolve(third, third) == binomial(2, Fraction(1, 3)) == Dist(
            {0: Fraction(4, 9), 1: Fraction(4, 9), 2: Fraction(1, 9)}
        )

    def test_tuple_points_add_componentwise(self):
        a = Dist({(0, 1): 1})
        b = Dist({(2, 3): 1})
        assert convolve(a, b) == Dist({(2, 4): 1})

    @given(
        rational_dists(range(4), max_weight=6),
        rational_dists(range(4), max_weight=6),
        rational_dists(range(4), max_weight=6),
    )
    def test_commutative_associative(self, a, b, c):
        assert convolve(a, b) == convolve(b, a)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))

    @given(rational_dists(range(5), max_weight=9), rational_dists(range(4), max_weight=9))
    def test_matches_summing_reference(self, a, b):
        # exact for Fractions, and bit for bit for floats
        for x, y in ((a, b), (to_float(a), to_float(b))):
            pairs = [(p + q, vp * vq) for p, vp in x.items() for q, vq in y.items()]
            assert convolve(x, y) == summed(pairs, x.mode)


# ---------------------------------------------------------------------------
# validity / moments
# ---------------------------------------------------------------------------


def brute_force_second_moment(omega, i, j):
    """Independent double loop over the support, for checking moments()."""
    total = Fraction(0)
    for p, v in omega.items():
        coords = p if isinstance(p, tuple) else (p,)
        total += v * coords[i] * coords[j]
    return total


class TestValidity:
    def test_constant_one_is_normalization(self):
        omega = Dist({"a": Fraction(2, 5), "b": Fraction(3, 5)})
        assert validity(omega, lambda _: 1) == 1

    def test_flip_identity(self):
        assert validity(flip(Fraction(7, 10)).dist, lambda x: x) == Fraction(7, 10)

    def test_binomial_20_mean(self):
        dist = binomial(20, Fraction(7, 10))
        # independent brute-force expectation over the explicit pmf
        expected = sum(
            n * math.comb(20, n) * Fraction(7, 10) ** n * Fraction(3, 10) ** (20 - n)
            for n in range(21)
        )
        assert validity(dist, lambda n: n) == expected == 14

    def test_mode_guard(self):
        omega = Dist({0: Fraction(1, 2), 1: Fraction(1, 2)})
        with pytest.raises(ModeMismatch):
            validity(omega, lambda x: float(x))


class TestMoments:
    def test_point_mass(self):
        got = moments(Dist({(3, 5): 1}))
        assert got.mean == (3, 5)
        assert got.var == (0, 0)
        assert got.cov[0][1] == 0

    def test_example_coin_values(self):
        got = moments(EXAMPLE_COIN.dist)
        assert got.mean == (Fraction(5, 24), Fraction(13, 24))
        assert got.var[0] == Fraction(95, 576)
        assert got.cov[0][1] == Fraction(7, 576)

    def test_binomial_variance(self):
        got = moments(binomial(4, Fraction(1, 2)))
        assert got.var == (1,)

    @pytest.mark.parametrize(
        "coin",
        [EXAMPLE_COIN, two_coin(Fraction(7, 31), 0, Fraction(11, 31), Fraction(13, 31))],
    )
    def test_grid_is_sixty_times_the_coin(self, coin):
        grid, face = moments(bivbin(60, coin).dist), moments(coin.dist)
        assert grid.mean == tuple(60 * m for m in face.mean)
        assert grid.cov == tuple(tuple(60 * c for c in row) for row in face.cov)

    @given(rational_dists([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]))
    def test_agrees_with_double_loop(self, omega):
        got = moments(omega)
        for i in range(2):
            for j in range(2):
                second = brute_force_second_moment(omega, i, j)
                assert got.cov[i][j] == second - got.mean[i] * got.mean[j]


# ---------------------------------------------------------------------------
# KL divergence
# ---------------------------------------------------------------------------


class TestKL:
    def test_self_divergence_zero(self):
        p = Dist({0: 0.25, 1: 0.75})
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        p = Dist({"a": 1})
        q = Dist({"a": Fraction(1, 2), "b": Fraction(1, 2)})
        assert kl_divergence(p, q) == pytest.approx(math.log(2), abs=1e-15)

    def test_quarter_vs_half(self):
        got = kl_divergence(flip(0.25).dist, flip(0.5).dist)
        expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.1308, abs=5e-5)

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            kl_divergence(Dist({"a": 0.5, "b": 0.5}), Dist({"a": 1.0}))

    @pytest.mark.parametrize("r, s", [(Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 2)),
                                      (Fraction(1, 2), Fraction(1, 3))], ids=["self", "p-below", "q-below"])
    def test_exact_cells_below_the_least_float(self, r, s):
        # (1/3)**1000 is a positive cell of Bin(1000, 1/3) that a float rounds
        # to 0; KL(Bin(K, r) || Bin(K, s)) is K times KL(flip(r) || flip(s))
        tosses = 1000
        expected = tosses * (r * math.log(r / s) + (1 - r) * math.log((1 - r) / (1 - s)))
        got = kl_divergence(binomial(tosses, r), binomial(tosses, s))
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @given(
        rational_dists([0, 1, 2], min_weight=1),
        rational_dists([0, 1, 2], min_weight=1),
    )
    def test_nonnegative_zero_iff_equal(self, p, q):
        got = kl_divergence(to_float(p), to_float(q))
        assert got >= 0.0
        if p == q:
            assert got <= 1e-12
        elif got <= 1e-12:
            assert p == q


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


class TestSample:
    def test_point_mass(self):
        assert sample(Dist({"x": 1}), 5, 999) == Multiset({"x": 5})

    def test_zero_draws(self):
        assert sample(Dist({0: 0.5, 1: 0.5}), 0, 1) == Multiset()

    def test_deterministic(self):
        omega = Dist({0: 0.2, 1: 0.3, 2: 0.5})
        assert sample(omega, 1000, 42) == sample(omega, 1000, 42)

    def test_seed_matters(self):
        omega = Dist({0: 0.5, 1: 0.5})
        assert sample(omega, 200, 1) != sample(omega, 200, 2)

    def test_support_and_size(self):
        omega = Dist({0: Fraction(1, 3), 5: Fraction(2, 3)})
        got = sample(omega, 137, 3)
        assert got.size == 137
        assert set(got.support()) <= {0, 5}

    def test_rational_and_float_modes_agree(self):
        rat = Dist({0: Fraction(3, 10), 1: Fraction(7, 10)})
        assert sample(rat, 500, 11) == sample(to_float(rat), 500, 11)

    def test_empirical_frequency(self):
        got = sample(flip(Fraction(7, 10)).dist, 100_000, 42)
        freq = flrn(got)(1)
        assert abs(float(freq) - 0.7) < 0.01

    def test_negative_size_rejected(self):
        with pytest.raises(OutOfRange):
            sample(Dist({0: 1}), -1, 0)

    @given(rational_dists(range(7), max_weight=40), st.integers(0, 2**64 - 1))
    def test_rational_matches_fraction_thresholds(self, omega, seed):
        # inverse CDF with each uniform and each threshold a Fraction
        thresholds = list(accumulate(v for _, v in omega.items()))
        points = omega.support()
        draws = [
            points[bisect_right(thresholds, Fraction(counter_rng(seed, i), 2**64))]
            for i in range(300)
        ]
        assert sample(omega, 300, seed) == Multiset(Counter(draws))


# ---------------------------------------------------------------------------
# Count arguments
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)
PSI = DirichletParams(Multiset({(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 3}))

# each call takes the count as its one argument; the second value is the least count
COUNT_ARGUMENTS = [
    pytest.param(lambda v: Coin(v, flip(HALF).dist), 1, id="Coin.n_dim"),
    pytest.param(lambda v: GridDist(v, 1, Dist({0: 1})), 0, id="GridDist.tosses"),
    pytest.param(lambda v: GridDist(2, v, binomial(2, HALF)), 1, id="GridDist.n_dim"),
    pytest.param(lambda v: bivbin(v, EXAMPLE_COIN), 0, id="bivbin"),
    pytest.param(lambda v: binomial(v, HALF), 0, id="binomial"),
    pytest.param(lambda v: recover_coin(bivbin(1, EXAMPLE_COIN), v), 1, id="recover_coin"),
    pytest.param(lambda v: Multiset({0: v}), 0, id="Multiset"),
    pytest.param(lambda v: enumerate_msets([0, 1], v), 0, id="enumerate_msets"),
    pytest.param(lambda v: sample(Dist({0: 1}), v, 0), 0, id="sample"),
    pytest.param(lambda v: em_init(v, 2, 0), 1, id="em_init.n_classes"),
    pytest.param(lambda v: em_init(1, v, 0), 1, id="em_init.tosses"),
    pytest.param(lambda v: em_run(Multiset({(0, 0): 1}), 1, 2, v, 0), 1, id="em_run.iterations"),
    pytest.param(lambda v: BetaParams(v, 1), 1, id="BetaParams.alpha"),
    pytest.param(lambda v: BetaParams(1, v), 1, id="BetaParams.beta"),
    pytest.param(lambda v: beta_succession_mean(BetaParams(1, 1), v, 0), 0,
                 id="beta_succession_mean.tosses"),
    pytest.param(lambda v: beta_succession_mean(BetaParams(1, 1), 3, v), 0,
                 id="beta_succession_mean.heads"),
    pytest.param(lambda v: binomial_poisson_mean(0.5, 1.0, v), 0, id="binomial_poisson_mean"),
    pytest.param(lambda v: bivbin_poisson_mean(EXAMPLE_COIN, 1.0, v, 0), 0,
                 id="bivbin_poisson_mean.n1"),
    pytest.param(lambda v: bivbin_poisson_mean(EXAMPLE_COIN, 1.0, 0, v), 0,
                 id="bivbin_poisson_mean.n2"),
    pytest.param(lambda v: poisson_pmf(1.0, v), 0, id="poisson_pmf"),
    pytest.param(lambda v: fiber(v, 0, 0), 0, id="fiber.tosses"),
    pytest.param(lambda v: bivbin_dirichlet_mean(PSI, v, 0, 0), 0, id="bivbin_dirichlet_mean.tosses"),
    pytest.param(lambda v: bivbin_dirichlet_mean(PSI, 3, v, 1), 0, id="bivbin_dirichlet_mean.n1"),
    pytest.param(lambda v: bivbin_dirichlet_mean_oracle(PSI, v, 0, 0), 0,
                 id="bivbin_dirichlet_mean_oracle.tosses"),
    pytest.param(lambda v: bivbin_dirichlet_mean_oracle(PSI, 3, 1, v), 0,
                 id="bivbin_dirichlet_mean_oracle.n2"),
]


@pytest.mark.parametrize("kind", ["bool", "float", "str", "below"])
@pytest.mark.parametrize("call, low", COUNT_ARGUMENTS)
def test_counts_are_ints_from_their_least_value(call, low, kind):
    call(low)
    bad = {"bool": True, "float": 2.0, "str": "2", "below": low - 1}[kind]
    with pytest.raises(OutOfRange):
        call(bad)


# ---------------------------------------------------------------------------
# Probability arguments
# ---------------------------------------------------------------------------

# each call takes the probability as its one argument
PROBABILITY_ARGUMENTS = [
    pytest.param(flip, id="flip"),
    pytest.param(lambda v: binomial(3, v), id="binomial"),
    pytest.param(lambda v: binomial_poisson_mean(v, 1.0, 2), id="binomial_poisson_mean"),
]


@pytest.mark.parametrize("bad", [True, False, "0.5", 1.5, Fraction(-1, 4), math.nan],
                         ids=["true", "false", "str", "above", "below", "nan"])
@pytest.mark.parametrize("call", PROBABILITY_ARGUMENTS)
def test_probabilities_are_numbers_in_the_unit_interval(call, bad):
    for good in (0, 1, 0.5, Fraction(1, 3)):
        call(good)
    with pytest.raises(OutOfRange):
        call(bad)


@pytest.mark.parametrize("call, text", [(flip, "probability"),
                                        (lambda v: binomial_poisson_mean(v, 1.0, 2), "detection probability")])
def test_probability_message_names_the_argument(call, text):
    with pytest.raises(OutOfRange, match=rf"^{text} 1\.5 outside \[0, 1\]$"):
        call(1.5)


# ---------------------------------------------------------------------------
# Frozen value classes
# ---------------------------------------------------------------------------

MIXTURE = Dist({0: 0.25, 1: 0.75})
FACES = Dist({(0, 0): 0.5, (0, 1): 0.125, (1, 0): 0.125, (1, 1): 0.25})
STATE = EMState(MIXTURE, (FACES, FACES), 3)
FACES_TEXT = "Dist[float](0.5|(0, 0)> + 0.125|(0, 1)> + 0.125|(1, 0)> + 0.25|(1, 1)>)"
STATE_TEXT = f"EMState(mixture=Dist[float](0.25|0> + 0.75|1>), coins=({FACES_TEXT}, {FACES_TEXT}), tosses=3)"
KERNEL = {0: Dist({"a": 1}), 1: Dist({"a": Fraction(1, 2), "b": Fraction(1, 2)})}

# (class, field names, field values, the repr the earlier dataclasses printed)
FROZEN_VALUES = [
    pytest.param(Coin, ("n_dim", "dist"), (1, Dist({0: Fraction(1, 3), 1: Fraction(2, 3)})),
                 "Coin(n_dim=1, dist=Dist[rational](1/3|0> + 2/3|1>))", id="Coin"),
    pytest.param(GridDist, ("tosses", "n_dim", "dist"),
                 (2, 1, Dist({0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)})),
                 "GridDist(tosses=2, n_dim=1, dist=Dist[rational](1/4|0> + 1/2|1> + 1/4|2>))",
                 id="GridDist"),
    pytest.param(Channel, ("domain", "kernel"), ((0, 1), KERNEL),
                 "Channel(domain=(0, 1), kernel={0: Dist[rational](1|a>), "
                 "1: Dist[rational](1/2|a> + 1/2|b>)})", id="Channel"),
    pytest.param(EMConfig, ("floor",), (1e-6,), "EMConfig(floor=1e-06)", id="EMConfig"),
    pytest.param(EMState, ("mixture", "coins", "tosses"), (MIXTURE, (FACES, FACES), 3),
                 STATE_TEXT, id="EMState"),
    pytest.param(EMRecord, ("iteration", "divergence", "state"), (2, 0.125, STATE),
                 f"EMRecord(iteration=2, divergence=0.125, state={STATE_TEXT})", id="EMRecord"),
    pytest.param(EMTrace, ("records",), ((EMRecord(0, 0.5, STATE),),),
                 f"EMTrace(records=(EMRecord(iteration=0, divergence=0.5, state={STATE_TEXT}),))",
                 id="EMTrace"),
    pytest.param(BetaParams, ("alpha", "beta"), (2, 3), "BetaParams(alpha=2, beta=3)",
                 id="BetaParams"),
    pytest.param(DirichletParams, ("psi",), (Multiset({"a": 2, "b": 1}),),
                 "DirichletParams(psi=2|a> + 1|b>)", id="DirichletParams"),
]


@pytest.mark.parametrize("cls, names, values, text", FROZEN_VALUES)
class TestFrozenValues:
    def test_positional_and_keyword_construction(self, cls, names, values, text):
        value = cls(*values)
        assert tuple(getattr(value, name) for name in names) == values
        assert cls(**dict(zip(names, values))) == value
        assert cls(values[0], **dict(zip(names[1:], values[1:]))) == value

    def test_equal_and_hash_by_value(self, cls, names, values, text):
        value = cls(*values)
        assert copy.deepcopy(value) == value and not copy.deepcopy(value) != value
        if cls is Channel:  # its kernel is a dict
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(copy.deepcopy(value)) == hash(value) == hash(values)

    def test_other_class_is_never_equal(self, cls, names, values, text):
        # a frozen class with the same fields, and the tuple of the values
        twin = type(f"Twin{cls.__name__}", (Frozen,), {"__annotations__": dict.fromkeys(names)})
        assert twin(*values) == twin(*values)
        assert cls(*values) != twin(*values) and twin(*values) != cls(*values)
        assert cls(*values) != values

    def test_repr_is_unchanged(self, cls, names, values, text):
        assert repr(cls(*values)) == text

    def test_assignment_is_refused(self, cls, names, values, text):
        value = cls(*values)
        for name in (*names, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, values[0])
        for name in names:
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert tuple(getattr(value, name) for name in names) == values

    def test_missing_or_unknown_field_is_refused(self, cls, names, values, text):
        refused = [
            ((*values, None), {}),  # one field too many
            (values, {"unknown": None}),
            (values, {names[0]: values[0]}),  # a field given twice
        ]
        if cls is not EMConfig:  # the one class with a default
            refused.append((values[:-1], {}))
        for args, kwargs in refused:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


def test_em_config_default_floor():
    assert EMConfig() == EMConfig(1e-9) == EMConfig(floor=1e-9)
    assert repr(EMConfig()) == "EMConfig(floor=1e-09)"


def test_post_init_normalises_fields():
    state = EMState(MIXTURE, [FACES, FACES], 3)
    assert state == STATE and type(state.coins) is tuple
    trace = EMTrace(iter([EMRecord(0, 0.5, STATE)]))
    assert trace.records == (EMRecord(0, 0.5, STATE),) and type(trace.records) is tuple
    chan = Channel([0, 1], MappingProxyType(KERNEL))
    assert type(chan.domain) is tuple and type(chan.kernel) is dict
    assert chan == Channel((0, 1), KERNEL)


def test_post_init_still_validates():
    with pytest.raises(WrongSpace):
        Coin(2, Dist({(0, 2): 1}))
    with pytest.raises(OutOfRange):
        DirichletParams(Multiset())
