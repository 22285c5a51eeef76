import logging
import math
import random
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
import hypothesis.strategies as st

from bitoss.binomials import (
    Coin,
    GridDist,
    _expand,
    binomial,
    bivbin,
    bivbin_cell,
    bivbin_direct,
    bivbin_tails,
    face_terms,
    fiber,
    fiber_counts,
    flip,
    grid_points,
    heads,
    multinomial,
    mvbin_functorial,
    off_grid,
    recover_coin,
    two_coin,
)
from bitoss.kernel import (
    Dist,
    FLOAT,
    Infeasible,
    Multiset,
    OutOfRange,
    RATIONAL,
    ResourceLimit,
    TWO_BY_TWO,
    WrongSpace,
    convolve,
    count_msets,
    dist_map,
    enumerate_msets,
    mset_coefficient,
    moments,
    tensor,
    to_float,
    validity,
)

from conftest import MIXTURE_COINS, bit_points, random_rational_coin, random_rational_dist
from conftest import rational_dists

ZERO_FACE_COIN = two_coin(Fraction(7, 31), Fraction(0), Fraction(11, 31), Fraction(13, 31))

# The ten draw probabilities of two tosses of the example coin, keyed by the
# draw multiset, and the nine grid cells they push to.
EXAMPLE_DRAWS = {
    Multiset({(0, 0): 2}): Fraction(9, 64),
    Multiset({(0, 0): 1, (0, 1): 1}): Fraction(5, 16),
    Multiset({(0, 1): 2}): Fraction(25, 144),
    Multiset({(0, 0): 1, (1, 0): 1}): Fraction(1, 16),
    Multiset({(0, 1): 1, (1, 0): 1}): Fraction(5, 72),
    Multiset({(1, 0): 2}): Fraction(1, 144),
    Multiset({(0, 0): 1, (1, 1): 1}): Fraction(3, 32),
    Multiset({(0, 1): 1, (1, 1): 1}): Fraction(5, 48),
    Multiset({(1, 0): 1, (1, 1): 1}): Fraction(1, 48),
    Multiset({(1, 1): 2}): Fraction(1, 64),
}

EXAMPLE_GRID = {
    (0, 0): Fraction(9, 64),
    (0, 1): Fraction(5, 16),
    (0, 2): Fraction(25, 144),
    (1, 0): Fraction(1, 16),
    (1, 1): Fraction(47, 288),
    (1, 2): Fraction(5, 48),
    (2, 0): Fraction(1, 144),
    (2, 1): Fraction(1, 48),
    (2, 2): Fraction(1, 64),
}


class TestFlip:
    def test_zero_bias(self):
        assert flip(0).dist == Dist({0: 1})

    def test_fair(self):
        assert flip(Fraction(1, 2)).dist == Dist(
            {0: Fraction(1, 2), 1: Fraction(1, 2)}
        )

    def test_seven_tenths(self):
        assert flip(Fraction(7, 10)).dist == Dist(
            {1: Fraction(7, 10), 0: Fraction(3, 10)}
        )

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            flip(Fraction(3, 2))
        with pytest.raises(OutOfRange):
            flip(-0.1)


class TestBinomial:
    def test_zero_tosses(self):
        assert binomial(0, Fraction(1, 3)) == Dist({0: 1})

    def test_two_fair_tosses(self):
        assert binomial(2, Fraction(1, 2)) == Dist(
            {0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)}
        )

    def test_twenty_tosses_bias_seven_tenths(self):
        dist = binomial(20, Fraction(7, 10))
        mode_point = max(dist.items(), key=lambda kv: kv[1])[0]
        assert mode_point == 14
        assert validity(dist, lambda n: n) == 14

    def test_large_toss_count_stays_finite(self):
        # log-space reference with the exact integer coefficient
        got = binomial(2000, 0.5)
        for n in range(2001):
            ref = math.exp(math.log(math.comb(2000, n)) + 2000 * math.log(0.5))
            assert got(n) == pytest.approx(ref, rel=1e-9, abs=1e-300)

    def test_variance_is_k_r_one_minus_r(self):
        for tosses in range(9):
            for r in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(7, 10)):
                var = moments(binomial(tosses, r)).var[0]
                assert var == tosses * r * (1 - r)
        # guards against the K*(K-1)*r variant
        assert moments(binomial(4, Fraction(1, 2))).var[0] != 4 * 3 * Fraction(1, 2)


class TestMultinomial:
    def test_single_draw_relabels(self, example_coin):
        got = multinomial(1, example_coin.dist)
        for point, value in example_coin.dist.items():
            assert got(Multiset({point: 1})) == value

    def test_example_coin_two_draws(self, example_coin):
        got = multinomial(2, example_coin.dist)
        assert dict(got.items()) == EXAMPLE_DRAWS

    def test_identifies_with_binomial_over_two_points(self):
        tosses, r = 3, Fraction(1, 3)
        multi = multinomial(tosses, flip(r).dist)
        bino = binomial(tosses, r)
        relabeled = dist_map(
            lambda n: Multiset({1: n, 0: tosses - n}), bino
        )
        assert relabeled == multi

    def test_convolution_closure(self, example_coin):
        one = multinomial(1, example_coin.dist)
        two = multinomial(2, example_coin.dist)
        assert convolve(one, one) == two


class TestHeads:
    def test_diagonal_pair(self):
        assert heads(Multiset({(0, 0): 1, (1, 1): 1})) == (1, 1)

    def test_repeated_point(self):
        assert heads(Multiset({(1, 0): 2})) == (2, 0)

    def test_mixed(self):
        assert heads(Multiset({(0, 1): 1, (1, 0): 1, (1, 1): 1})) == (2, 2)

    def test_univariate_counts_ones(self):
        assert heads(Multiset({0: 2, 1: 3})) == 3

    def test_wrong_space(self):
        cases = [
            (Multiset({(0, 2): 1}), None),
            (Multiset({(1,): 1}), None),
            (Multiset({2: 1}), None),
            (Multiset({(0, 1, 1): 1}), 2),
            (Multiset({"R": 1}), None),
            (Multiset({"R": 1}), 1),
        ]
        for phi, n_dim in cases:
            with pytest.raises(WrongSpace):
                heads(phi, n_dim)

    def test_thirty_dimensions(self):
        # the faces are checked one by one: 2^30 of them are never built
        ones, alternating = (1,) * 30, (0, 1) * 15
        assert heads(Multiset({ones: 2, alternating: 3})) == (2, 5) * 15


class TestFiber:
    def test_balanced_pair(self):
        assert fiber(2, 1, 1) == [
            Multiset({(0, 0): 1, (1, 1): 1}),
            Multiset({(0, 1): 1, (1, 0): 1}),
        ]

    def test_forced_corner(self):
        assert fiber(2, 2, 0) == [Multiset({(1, 0): 2})]
        assert fiber(2, 0, 0) == [Multiset({(0, 0): 2})]

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            fiber(2, 3, 0)

    @pytest.mark.parametrize("tosses", range(7))
    def test_matches_brute_force_filter(self, tosses):
        all_draws = enumerate_msets(bit_points(2), tosses)
        for n1 in range(tosses + 1):
            for n2 in range(tosses + 1):
                expected = [phi for phi in all_draws if heads(phi, 2) == (n1, n2)]
                assert sorted(fiber(tosses, n1, n2)) == sorted(expected)

    def test_empty_multiset_needs_dimension(self):
        assert heads(Multiset(), 2) == (0, 0)
        with pytest.raises(WrongSpace):
            heads(Multiset())


class TestGridConstructions:
    def test_example_grid_functorial(self, example_coin):
        got = mvbin_functorial(2, example_coin)
        assert dict(got.dist.items()) == EXAMPLE_GRID

    def test_example_grid_direct(self, example_coin):
        assert dict(bivbin_direct(2, example_coin).dist.items()) == EXAMPLE_GRID

    def test_zero_tosses(self, example_coin):
        assert mvbin_functorial(0, example_coin).dist == Dist({(0, 0): 1})
        assert bivbin_tails(0, example_coin).dist == Dist({(0, 0): 1})

    def test_one_toss_is_the_coin(self, example_coin):
        assert bivbin_direct(1, example_coin).dist == example_coin.dist

    def test_univariate_reduces_to_binomial(self):
        assert mvbin_functorial(3, flip(Fraction(1, 3))).dist == binomial(
            3, Fraction(1, 3)
        )

    def test_direct_equals_functorial_random(self):
        rng = random.Random(101)
        for _ in range(10):
            coin = random_rational_coin(rng)
            tosses = rng.randint(0, 5)
            assert bivbin_direct(tosses, coin).dist == mvbin_functorial(
                tosses, coin
            ).dist

    def test_cell_matches_grid(self, example_coin):
        grid = bivbin_direct(3, example_coin).dist
        for n1 in range(4):
            for n2 in range(4):
                assert bivbin_cell(3, example_coin, n1, n2) == grid((n1, n2))
        assert bivbin_cell(3, example_coin, 7, 1) == 0

    @pytest.mark.parametrize("tosses", [15, 30, 60])
    @pytest.mark.parametrize("coin", MIXTURE_COINS + (ZERO_FACE_COIN,))
    def test_float_grid_matches_exact(self, coin, tosses):
        exact = bivbin(tosses, coin).dist
        got = dict(bivbin(tosses, Coin(2, to_float(coin.dist))).dist.items())
        assert set(got) == set(exact.support())
        for point, value in exact.items():
            assert got[point] == pytest.approx(float(value), rel=1e-12)

    def test_cell_at_large_toss_count_stays_finite(self):
        coin = two_coin(0.3, 0.2, 0.1, 0.4)
        # log-space reference with the exact integer coefficient
        ref = sum(
            math.exp(
                math.log(mset_coefficient(phi))
                + sum(m * math.log(coin.dist(x)) for x, m in phi.items())
            )
            for phi in fiber(700, 350, 350)
        )
        got = bivbin_cell(700, coin, 350, 350)
        assert math.isfinite(got) and got > 0
        assert got == pytest.approx(ref, rel=1e-9)

    def test_three_dimensional_coin(self):
        rng = random.Random(5)
        coin = Coin(3, random_rational_dist(rng, bit_points(3)))
        grid = bivbin(2, coin)
        assert grid.n_dim == 3
        assert sum(v for _, v in grid.dist.items()) == 1
        # coordinate marginals are binomials of the marginal biases
        for i in range(3):
            marg = dist_map(lambda p, i=i: p[i], grid.dist)
            assert marg == binomial(2, moments(coin.dist).mean[i])

    def test_dimension_cap(self):
        with pytest.raises(OutOfRange):
            Coin(4, Dist({(0, 0, 0, 0): 1}))

    def test_one_tuple_face_is_wrong_space(self):
        with pytest.raises(WrongSpace):
            Coin(1, Dist({(0,): Fraction(1, 2), (1,): Fraction(1, 2)}))


class TestGridCheck:
    CANDIDATES = (
        0, 1, 2, 3, -1, 0.5, 1.0, True, "R", None, (), (0,), (1,), (0, 1), (2, 2),
        (3, 0), (0, -1), (1, 0.5), (0, 1, 1), (1, 2, 0), (0, 0, 3), ("R", 0), Multiset({0: 1}),
    )

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_matches_membership_in_the_built_grid(self, size, n_dim):
        # membership with int coordinates: 1.0 and True equal 1 but are not counts
        grid = set(grid_points(size, n_dim))

        def on_grid(p):
            coords = p if isinstance(p, tuple) else (p,)
            return p in grid and all(type(c) is int for c in coords)

        expected = [p for p in self.CANDIDATES if not on_grid(p)]
        assert off_grid(self.CANDIDATES, size, n_dim) == expected

    def test_bools_are_not_counts(self):
        assert off_grid([(True, 1)], 2, 2) == [(True, 1)]
        assert off_grid([False, 1], 2, 1) == [False]
        with pytest.raises(WrongSpace):
            GridDist(2, 2, Dist({(True, 1): 1}))

    def test_grid_dist_refuses_points_off_the_grid(self):
        with pytest.raises(WrongSpace):
            GridDist(2, 2, Dist({(3, 0): 1}))
        with pytest.raises(WrongSpace):
            GridDist(2, 2, Dist({(1, 1, 0): 1}))
        with pytest.raises(WrongSpace):
            GridDist(2, 1, Dist({(1,): 1}))

    @pytest.mark.parametrize("tosses,n_dim,point", [(400, 2, (17, 400)), (60, 3, (1, 60, 0))])
    def test_one_entry_grid_builds_no_grid(self, tosses, n_dim, point):
        dist = Dist({point: 1})
        tracemalloc.start()
        try:
            GridDist(tosses, n_dim, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_grid_check_does_not_grow_with_the_toss_count(self):
        start = time.perf_counter()
        grid = GridDist(10**6, 2, Dist({(1, 2): 1}))
        assert time.perf_counter() - start < 0.1
        assert off_grid([(1, 2), (10**6 + 1, 0)], grid.tosses, 2) == [(10**6 + 1, 0)]


class TestTails:
    def test_uniform_coin_one_toss(self):
        quarter = Fraction(1, 4)
        coin = two_coin(quarter, quarter, quarter, quarter)
        got = bivbin_tails(1, coin)
        assert all(v == quarter for _, v in got.dist.items())

    def test_counts_zeros_of_each_coordinate(self, example_coin):
        flipped = Coin(
            2, dist_map(lambda p: (1 - p[0], 1 - p[1]), example_coin.dist)
        )
        assert bivbin_tails(2, example_coin).dist == mvbin_functorial(2, flipped).dist


def heads_coefficient_sum(tosses: int, n_dim: int, target) -> int:
    total = 0
    for phi in enumerate_msets(bit_points(n_dim), tosses):
        if heads(phi, n_dim) == target:
            total += mset_coefficient(phi)
    return total


def per_draw_cell(tosses: int, coin: Coin, n1: int, n2: int) -> Fraction:
    """Independent reference for rational cells: the fiber sum with one full
    multinomial term per draw, as the grid was built before the first-bit
    split."""
    term, den = face_terms([coin.dist(p) for p in TWO_BY_TWO], tosses, RATIONAL)
    return Fraction(sum(term(c) for c in fiber_counts(tosses, n1, n2)), den)


@lru_cache(maxsize=None)
def per_draw_grid(tosses: int, coin: Coin) -> Dist:
    cells = [(n, per_draw_cell(tosses, coin, *n)) for n in grid_points(tosses, 2)]
    return Dist(cells, mode=RATIONAL)


def per_draw_float_cell(tosses: int, coin: Coin, n1: int, n2: int) -> float:
    """Reference for float cells: the fiber sum with one log-space
    multinomial term per draw, as float grids were built before the
    first-bit split."""
    term, _ = face_terms([coin.dist(p) for p in TWO_BY_TWO], tosses, FLOAT)
    return sum(term(c) for c in fiber_counts(tosses, n1, n2))


@lru_cache(maxsize=None)
def per_draw_float_grid(tosses: int, coin: Coin) -> dict:
    cells = ((n, per_draw_float_cell(tosses, coin, *n)) for n in grid_points(tosses, 2))
    return {n: v for n, v in cells if v}


def _coin_from_weights(*weights) -> Coin:
    return Coin(2, Dist.from_weights(dict(zip(TWO_BY_TWO, weights))))


SPLIT_COINS = (
    MIXTURE_COINS
    + tuple(  # one zero face each
        _coin_from_weights(*(0 if i == zero_face else i + 2 for i in range(4)))
        for zero_face in range(4)
    )
    + (two_coin(0, 0, Fraction(1, 2), Fraction(1, 2)),)
    + tuple(Coin(2, Dist({face: 1})) for face in TWO_BY_TWO)  # point masses
)


class TestSplitKernel:
    """The rational grid splits each fiber term on the first bit; every cell
    must equal the per-draw fiber sum exactly."""

    @pytest.mark.parametrize("tosses", [*range(9), 15, 30, 60])
    @pytest.mark.parametrize("coin", SPLIT_COINS)
    def test_grids_equal_per_draw_sum(self, coin, tosses):
        ref = per_draw_grid(tosses, coin)
        assert bivbin(tosses, coin).dist == ref
        assert bivbin_direct(tosses, coin).dist == ref
        # tails count zeros: cell (k, l) is the heads cell (K - k, K - l)
        tails = bivbin_tails(tosses, coin).dist
        assert tails == Dist([((tosses - a, tosses - b), v) for (a, b), v in ref.items()])
        for n1, n2 in {(0, 0), (tosses, tosses), (tosses // 2, tosses // 3), (0, tosses)}:
            assert bivbin_cell(tosses, coin, n1, n2) == ref((n1, n2))

    @given(rational_dists(TWO_BY_TWO, max_weight=6), st.integers(0, 10))
    def test_random_coins_with_zero_faces(self, dist, tosses):
        coin = Coin(2, dist)
        ref = per_draw_grid(tosses, coin)
        assert bivbin(tosses, coin).dist == ref
        assert bivbin_tails(tosses, coin).dist == Dist(
            [((tosses - a, tosses - b), v) for (a, b), v in ref.items()]
        )

    @pytest.mark.parametrize("coin", SPLIT_COINS[:3])
    def test_single_cell_at_two_hundred_tosses(self, coin):
        for n1, n2 in ((0, 0), (67, 100), (100, 100), (200, 13), (150, 180)):
            assert bivbin_cell(200, coin, n1, n2) == per_draw_cell(200, coin, n1, n2)

    @pytest.mark.parametrize("tosses", [*range(9), 15, 30, 60])
    @pytest.mark.parametrize("coin", SPLIT_COINS)
    def test_float_grids_match_per_draw_sum_and_exact_grid(self, coin, tosses):
        exact = per_draw_grid(tosses, coin)
        float_coin = Coin(2, to_float(coin.dist))
        ref = per_draw_float_grid(tosses, float_coin)
        assert set(ref) == set(exact.support())

        def assert_close(got: dict):
            assert set(got) == set(ref)
            for n, v in got.items():
                assert math.isclose(v, ref[n], rel_tol=1e-12)
                assert math.isclose(v, float(exact(n)), rel_tol=1e-12)

        assert_close(dict(bivbin(tosses, float_coin).dist.items()))
        assert_close(dict(bivbin_direct(tosses, float_coin).dist.items()))
        tails = bivbin_tails(tosses, float_coin).dist
        assert_close({(tosses - a, tosses - b): v for (a, b), v in tails.items()})
        for n1, n2 in {(0, 0), (tosses, tosses), (tosses // 2, tosses // 3), (0, tosses)}:
            got = bivbin_cell(tosses, float_coin, n1, n2)
            assert math.isclose(got, ref.get((n1, n2), 0.0), rel_tol=1e-12)

    @pytest.mark.parametrize("coin", [MIXTURE_COINS[0], Coin(2, to_float(MIXTURE_COINS[0].dist))])
    def test_negative_toss_count(self, coin):
        with pytest.raises(OutOfRange):
            bivbin_cell(-1, coin, 0, 0)
        with pytest.raises(OutOfRange):
            bivbin_direct(-1, coin)


def comb_binomial(tosses: int, r: Fraction) -> Dist:
    """Reference exact binomial, one ``math.comb`` term per count."""
    return Dist(
        [(j, math.comb(tosses, j) * r**j * (1 - r) ** (tosses - j)) for j in range(tosses + 1)],
        mode=RATIONAL,
    )


def naive_expand(alpha, beta, a, gamma, delta, b) -> list:
    """Coefficients of ``(alpha + beta*y)**a * (gamma + delta*y)**b`` by
    multiplying the two binomial expansions term by term."""
    left = [math.comb(a, j) * alpha ** (a - j) * beta**j for j in range(a + 1)]
    right = [math.comb(b, j) * gamma ** (b - j) * delta**j for j in range(b + 1)]
    out = [0] * (a + b + 1)
    for i, x in enumerate(left):
        for j, y in enumerate(right):
            out[i + j] += x * y
    return out


# Each of the 15 non-empty face supports of a two-coin, under three weightings.
FACE_SUPPORT_COINS = [
    _coin_from_weights(*(w if mask >> i & 1 else 0 for i, w in enumerate(weights)))
    for mask in range(1, 16)
    for weights in ((1, 1, 1, 1), (3, 5, 2, 7), (11, 1, 4, 9))
]


class TestExactRowEngine:
    """Rational grids, binomials and cells read integer rows from one
    three-term recurrence; each is checked against an independent sum.
    ``Dist`` equality compares the stored points, numerators and denominator."""

    @given(
        st.integers(0, 6), st.integers(0, 6), st.integers(0, 9),
        st.integers(0, 6), st.integers(0, 6), st.integers(0, 9), st.integers(0, 5),
    )
    def test_engine_equals_the_expanded_product(self, alpha, beta, a, gamma, delta, b, scale):
        expected = [scale * c for c in naive_expand(alpha, beta, a, gamma, delta, b)]
        assert _expand(alpha, beta, a, gamma, delta, b, scale) == expected

    @pytest.mark.parametrize("coin", FACE_SUPPORT_COINS)
    def test_every_face_support_equals_functorial(self, coin):
        for tosses in range(9):
            assert bivbin_direct(tosses, coin).dist == mvbin_functorial(tosses, coin).dist

    @pytest.mark.parametrize("r", [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(7, 10)])
    def test_rational_binomial_equals_comb_terms(self, r):
        for tosses in range(41):
            assert binomial(tosses, r) == comb_binomial(tosses, r)

    @pytest.mark.parametrize("coin", SPLIT_COINS)
    def test_cell_equals_grid_cell(self, coin):
        for tosses in range(13):
            grid = bivbin_direct(tosses, coin).dist
            for n1 in range(-1, tosses + 2):
                for n2 in range(-1, tosses + 2):
                    assert bivbin_cell(tosses, coin, n1, n2) == grid((n1, n2))

    def test_marginals_at_two_hundred_tosses_are_exact_binomials(self, example_coin):
        grid = bivbin_direct(200, example_coin).dist
        for i in range(2):
            marginal = dist_map(lambda p, i=i: p[i], grid)
            assert marginal == comb_binomial(200, moments(example_coin.dist).mean[i])


class TestCombinatorialIdentities:
    @pytest.mark.parametrize("big,small", [(b, g) for b in range(9) for g in range(9)])
    def test_vandermonde(self, big, small):
        for k in range(big + small + 1):
            lhs = math.comb(big + small, k)
            rhs = sum(
                math.comb(big, b) * math.comb(small, k - b)
                for b in range(min(big, k) + 1)
                if k - b <= small
            )
            assert lhs == rhs

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_heads_fiber_coefficients(self, n_dim):
        for tosses in range(5):
            for target in grid_points(tosses, n_dim):
                coords = target if isinstance(target, tuple) else (target,)
                expected = math.prod(math.comb(tosses, n) for n in coords)
                assert heads_coefficient_sum(tosses, n_dim, target) == expected


class TestMarginalAndTensorLaws:
    def test_example_grid_first_marginal(self, example_coin):
        # row sums of the two-toss grid form the binomial with the coin's
        # first-coordinate heads probability 1/12 + 1/8 = 5/24
        grid = bivbin_direct(2, example_coin).dist
        assert dist_map(lambda p: p[0], grid) == binomial(2, Fraction(5, 24))

    def test_grid_marginals_are_binomials(self):
        rng = random.Random(17)
        for _ in range(10):
            coin = random_rational_coin(rng)
            tosses = rng.randint(0, 5)
            grid = bivbin_direct(tosses, coin).dist
            for i in range(2):
                assert dist_map(lambda p, i=i: p[i], grid) == binomial(
                    tosses, moments(coin.dist).mean[i]
                )

    def test_product_coin_gives_product_grid(self):
        rng = random.Random(23)
        for _ in range(10):
            c1 = random_rational_dist(rng, (0, 1))
            c2 = random_rational_dist(rng, (0, 1))
            tosses = rng.randint(0, 5)
            coin = Coin(2, tensor(c1, c2))
            assert bivbin_direct(tosses, coin).dist == tensor(
                binomial(tosses, c1(1)), binomial(tosses, c2(1))
            )


class TestConvolutionClosure:
    def test_closure_under_convolution(self):
        rng = random.Random(31)
        for _ in range(8):
            coin = random_rational_coin(rng)
            k = rng.randint(0, 3)
            l = rng.randint(0, 5 - k)
            lhs = convolve(bivbin_direct(k, coin).dist, bivbin_direct(l, coin).dist)
            assert lhs == bivbin_direct(k + l, coin).dist

    def test_k_fold_convolution_of_the_coin(self):
        # the convolution computes no multinomial term: an oracle for the
        # grid, its tails (the mirrored grid) and its marginal binomials
        for coin in MIXTURE_COINS + (ZERO_FACE_COIN,):
            acc = Dist({(0, 0): 1})
            for tosses in range(1, 9):
                acc = convolve(acc, coin.dist)
                assert bivbin(tosses, coin).dist == acc
                assert bivbin_tails(tosses, coin).dist == dist_map(
                    lambda p: (tosses - p[0], tosses - p[1]), acc
                )
                for i in range(2):
                    assert binomial(tosses, moments(coin.dist).mean[i]) == dist_map(
                        lambda p, i=i: p[i], acc
                    )


class TestMomentScaling:
    def test_grid_moments_are_k_times_coin_moments(self):
        rng = random.Random(41)
        for _ in range(10):
            coin = random_rational_coin(rng)
            tosses = rng.randint(1, 5)
            coin_m = moments(coin.dist)
            grid_m = moments(bivbin_direct(tosses, coin).dist)
            assert grid_m.mean == tuple(tosses * m for m in coin_m.mean)
            assert grid_m.var == tuple(tosses * v for v in coin_m.var)
            assert grid_m.cov[0][1] == tosses * coin_m.cov[0][1]

    def test_draw_moment_identities(self):
        # sums over all draws of multiplicity products, against closed forms
        rng = random.Random(43)
        for points in ("ab", "abc", "abcd"):
            omega = random_rational_dist(rng, tuple(points))
            for tosses in range(7):
                draws = multinomial(tosses, omega)
                y, z = points[0], points[1]
                first = sum(v * phi(y) for phi, v in draws.items())
                mixed = sum(v * phi(y) * phi(z) for phi, v in draws.items())
                square = sum(v * phi(y) ** 2 for phi, v in draws.items())
                assert first == tosses * omega(y)
                assert mixed == tosses * (tosses - 1) * omega(y) * omega(z)
                assert square == tosses * (tosses - 1) * omega(y) ** 2 + tosses * omega(y)


class TestRecover:
    def test_round_trip_example(self, example_coin):
        grid = bivbin_direct(2, example_coin)
        assert recover_coin(grid, 2).dist == example_coin.dist

    def test_round_trip_random(self):
        rng = random.Random(53)
        for _ in range(15):
            coin = random_rational_coin(rng)
            tosses = rng.randint(1, 6)
            assert recover_coin(bivbin_direct(tosses, coin), tosses).dist == coin.dist

    def test_product_grid_recovers_product_coin(self):
        r, s = Fraction(2, 5), Fraction(1, 6)
        tosses = 4
        grid = GridDist(tosses, 2, tensor(binomial(tosses, r), binomial(tosses, s)))
        assert recover_coin(grid, tosses).dist == tensor(flip(r).dist, flip(s).dist)

    def test_point_mass_grid(self):
        grid = GridDist(3, 2, Dist({(0, 0): 1}))
        assert recover_coin(grid, 3).dist == Dist({(0, 0): 1})

    def test_infeasible_moments_raise(self):
        # anti-diagonal mass makes the derived (1,1) entry negative
        grid = GridDist(2, 2, Dist({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}))
        with pytest.raises(OutOfRange):
            recover_coin(grid, 2)

    def test_infeasible_moments_clamp(self):
        # the derived entries are -1/4, 3/4, 3/4, -1/4: clamped and renormalized
        for half in (Fraction(1, 2), 0.5):
            grid = GridDist(2, 2, Dist({(2, 0): half, (0, 2): half}))
            coin = recover_coin(grid, 2, infeasible="clamp")
            assert coin.dist == Dist({(0, 1): half, (1, 0): half})

    def test_clamp_logs_one_info_record(self, caplog):
        grid = GridDist(2, 2, Dist({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}))
        with caplog.at_level(logging.INFO, logger="bitoss.binomials"):
            recover_coin(grid, 2, infeasible="clamp")
        assert [(r.name, r.levelno) for r in caplog.records] == [("bitoss.binomials", logging.INFO)]
        assert caplog.records[0].getMessage().startswith("recover_coin clamped infeasible entries")

    def test_float_round_trip_close(self, example_coin):
        grid = bivbin_direct(5, Coin(2, to_float(example_coin.dist)))
        coin = recover_coin(grid, 5)
        for p, v in example_coin.dist.items():
            assert float(coin.dist(p)) == pytest.approx(float(v), abs=1e-12)

    def test_infeasible_moments_are_infeasible(self):
        grid = GridDist(2, 2, Dist({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}))
        with pytest.raises(Infeasible):
            recover_coin(grid, 2)

    @pytest.mark.parametrize("grid_tosses, tosses", [(3, 2), (4, 2), (2, 3)])
    def test_other_toss_count_is_refused(self, grid_tosses, tosses):
        # read with 2, the uniform coin's K = 3 grid gave 9/16 at (1, 1), and
        # its K = 4 grid all the mass
        quarter = Fraction(1, 4)
        grid = bivbin(grid_tosses, two_coin(quarter, quarter, quarter, quarter))
        with pytest.raises(OutOfRange) as caught:
            recover_coin(grid, tosses)
        assert not isinstance(caught.value, Infeasible)
        assert recover_coin(grid.dist, grid_tosses).dist == Dist({p: quarter for p in TWO_BY_TWO})
        # a bare Dist shows a smaller toss count by a point beyond it
        if grid_tosses > tosses:
            with pytest.raises(WrongSpace):
                recover_coin(grid.dist, tosses)

    @pytest.mark.parametrize("n_dim", [1, 3])
    def test_grid_of_other_dimension_names_it(self, n_dim):
        grid = bivbin(2, Coin(n_dim, Dist.from_weights({p: 1 for p in bit_points(n_dim)})))
        for read in (grid, grid.dist):
            with pytest.raises(WrongSpace, match=f"dimension {n_dim}"):
                recover_coin(read, 2)


def face_support_coins(n_dim: int, weightings: int) -> list:
    """One coin per non-empty face support of ``{0,1}^N``, per weighting and
    mode, with unequal weights so that float cells add unequal terms."""
    faces, coins = bit_points(n_dim), []
    for mask in range(1, 2 ** len(faces)):
        support = [f for i, f in enumerate(faces) if mask >> i & 1]
        for step in range(1, 2 * weightings, 2):
            weights = [1 + step * i for i in range(len(support))]
            exact = Dist.from_weights(dict(zip(support, weights)))
            coins += [Coin(n_dim, exact), Coin(n_dim, to_float(exact))]
    return coins


def pushforward_grid(tosses: int, coin: Coin) -> Dist:
    """The functorial definition itself: every draw built and read back."""
    return dist_map(lambda phi: heads(phi, coin.n_dim), multinomial(tosses, coin.dist))


class TestFaceWalk:
    """``mvbin_functorial`` walks the draws face by face; the pushforward of
    the built draws is its oracle.  ``Dist`` equality compares the stored
    points, numerators and denominator, so float cells must be the same
    doubles, added in the same order."""

    @pytest.mark.parametrize("n_dim, weightings, max_tosses", [(1, 3, 12), (2, 3, 12), (3, 1, 7)])
    def test_every_face_support_equals_the_pushforward(self, n_dim, weightings, max_tosses):
        for coin in face_support_coins(n_dim, weightings):
            for tosses in range(max_tosses + 1):
                got = mvbin_functorial(tosses, coin)
                assert (got.tosses, got.n_dim) == (tosses, n_dim)
                assert got.dist == pushforward_grid(tosses, coin), (coin.dist, tosses)

    @pytest.mark.parametrize("r", [Fraction(3, 7), 0.3])
    def test_long_flip_equals_the_pushforward(self, r):
        assert mvbin_functorial(2000, flip(r)).dist == pushforward_grid(2000, flip(r))

    @pytest.mark.parametrize("weights", [{(1, 0, 1): 1}, {(0, 0, 0): Fraction(2, 5), (1, 1, 1): Fraction(3, 5)},
                                         {(0, 0, 0): 0.4, (1, 1, 1): 0.6}])
    def test_sparse_coin_builds_only_its_cells(self, weights):
        # a 2001-cell grid out of 2001**3: the walk must not build the whole grid
        coin = Coin(3, Dist(weights))
        assert mvbin_functorial(2000, coin).dist == pushforward_grid(2000, coin)

    def test_cap_counts_the_draws(self, monkeypatch):
        coin = Coin(3, Dist.from_weights({p: 1 for p in bit_points(3)}))
        count = count_msets(8, 3)
        monkeypatch.setenv("BITOSS_MSET_CAP", str(count - 1))
        with pytest.raises(ResourceLimit, match=f"{count} multisets of size 3 exceed the cap"):
            mvbin_functorial(3, coin)
        monkeypatch.setenv("BITOSS_MSET_CAP", str(count))
        assert mvbin_functorial(3, coin).dist == pushforward_grid(3, coin)
