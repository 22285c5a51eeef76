import math
import random

import pytest

from bitoss.binomials import Coin, bivbin, fiber, fiber_counts, grid_points, multinomial
from bitoss.channels import Channel, dagger, push
from bitoss.em import (
    EMConfig,
    EMState,
    EMTrace,
    em_init,
    em_run,
    em_step,
)
from bitoss.kernel import (
    Dist,
    FLOAT,
    OutOfRange,
    SupportMismatch,
    TWO_BY_TWO,
    flrn,
    kl_divergence,
    sample,
    to_float,
)
from bitoss.serialize import trace_to_json

from conftest import MIXTURE_COINS, MIXTURE_WEIGHTS


def mixture_dist(tosses: int) -> Dist:
    chan = Channel(
        (0, 1),
        {i: to_float(bivbin(tosses, c).dist) for i, c in enumerate(MIXTURE_COINS)},
    )
    weights = Dist({i: float(w) for i, w in enumerate(MIXTURE_WEIGHTS)}, mode=FLOAT)
    return push(chan, weights)


@pytest.fixture(scope="module")
def sampled_data():
    return sample(mixture_dist(15), 1000, 42)


def floored(dist: Dist, points, delta: float) -> Dist:
    return Dist.from_weights({p: float(dist(p)) + delta for p in points}, mode=FLOAT)


def prediction_channel(state: EMState, config: EMConfig = EMConfig()) -> Channel:
    """Class label to floored predicted grid distribution, over full grids."""
    grid = grid_points(state.tosses, 2)
    return Channel(
        tuple(range(state.n_classes)),
        {x: floored(bivbin(state.tosses, Coin(2, coin)).dist, grid, config.floor)
         for x, coin in enumerate(state.coins)},
    )


def predict(state: EMState, config: EMConfig = EMConfig()) -> Dist:
    """The mixture's predicted grid distribution."""
    return push(prediction_channel(state, config), state.mixture)


def channel_step(state: EMState, data_dist: Dist, config: EMConfig = EMConfig()) -> EMState:
    """Reference: one iteration on full floored grids renormalized by their
    sums.  The mixture is the data pushed back through the dagger of the
    prediction channel, in the paper's channel form.  Each coin is the
    floored frequency of the faces of every observed cell's fiber multisets,
    weighted by their ``multinomial`` probability under the class's coin and
    by the class's responsibility for the cell's data mass."""
    inversion = dagger(prediction_channel(state, config), state.mixture)
    mixture = floored(push(inversion, data_dist), range(state.n_classes), config.floor)
    coins = []
    for x, coin in enumerate(state.coins):
        draws = dict(multinomial(state.tosses, coin).items())
        faces = dict.fromkeys(TWO_BY_TWO, 0.0)
        for n, mass in data_dist.items():
            msets = fiber(state.tosses, *n)
            weights = [draws[phi] for phi in msets]
            for phi, w in zip(msets, weights):
                for face in TWO_BY_TWO:
                    faces[face] += mass * inversion(n)(x) * w / sum(weights) * phi(face)
        coins.append(floored(Dist.from_weights(faces, mode=FLOAT), TWO_BY_TWO, config.floor))
    return EMState(mixture=mixture, coins=tuple(coins), tosses=state.tosses)


def log_space_step(state: EMState, data_dist: Dist, config: EMConfig = EMConfig()) -> EMState:
    """Reference: one iteration that weighs every draw of every observed
    cell's fiber in log space, ``log K!/(a! b! c! d!) + sum(count * log p)``,
    and sums each class's expected faces cell by cell, so no term underflows
    before it is scaled by its cell's largest."""
    tosses, floor, lg = state.tosses, config.floor, math.lgamma
    cells = data_dist.items()
    joint, faces = [], []
    for (_, w), coin in zip(state.mixture.items(), state.coins):
        logp = [math.log(coin(face)) for face in TWO_BY_TWO]
        row, expected = [], []
        for (n1, n2), _ in cells:
            draws = fiber_counts(tosses, n1, n2)
            logs = [lg(tosses + 1) + math.fsum(m * l - lg(m + 1) for m, l in zip(counts, logp))
                    for counts in draws]
            top = max(logs)
            weights = [math.exp(x - top) for x in logs]
            total = math.fsum(weights)
            row.append(w * (math.exp(top) * total + floor) / (1 + floor * (tosses + 1) ** 2))
            expected.append([math.fsum(v * c[i] for v, c in zip(weights, draws)) / total
                             for i in range(4)])
        joint.append(row)
        faces.append(expected)
    predicted = [math.fsum(column) for column in zip(*joint)]
    resp = [[d * j / q for (_, d), j, q in zip(cells, row, predicted)] for row in joint]
    mixture = Dist.from_weights({x: math.fsum(r) for x, r in enumerate(resp)}, mode=FLOAT)
    coins = []
    for r, expected in zip(resp, faces):
        counts = {f: math.fsum(v * e[i] for v, e in zip(r, expected)) for i, f in enumerate(TWO_BY_TWO)}
        coins.append(floored(Dist.from_weights(counts, mode=FLOAT), TWO_BY_TWO, floor))
    return EMState(floored(mixture, mixture.support(), floor), tuple(coins), tosses)


def random_cells(tosses: int, n_cells: int, seed: int, extra=()) -> Dist:
    """Data on ``n_cells`` distinct seeded random grid cells, plus ``extra``."""
    rng = random.Random(seed)
    points = set(extra)
    while len(points) < n_cells + len(extra):
        points.add((rng.randint(0, tosses), rng.randint(0, tosses)))
    return Dist.from_weights({p: rng.random() + 0.01 for p in points}, mode=FLOAT)


def float_coin(p00: float, p01: float, p10: float, p11: float) -> Dist:
    return Dist(zip(TWO_BY_TWO, (p00, p01, p10, p11)), mode=FLOAT)


ENTWINED = float_coin(0.5 - 1e-9, 1e-9, 1e-9, 0.5 - 1e-9)  # psi about 2.5e17, at the floor
OPPOSED = float_coin(1e-9, 0.5 - 1e-9, 0.5 - 1e-9, 1e-9)  # psi about 4e-18


def assert_states_close(got: EMState, ref: EMState, rel: float) -> None:
    for x in range(ref.n_classes):
        assert math.isclose(got.mixture(x), ref.mixture(x), rel_tol=rel), x
        for face in TWO_BY_TWO:
            assert math.isclose(got.coins[x](face), ref.coins[x](face), rel_tol=rel), (x, face)


class TestFiberTables:
    """The E-step reads each cell's fiber as a noncentral hypergeometric in
    the coin's odds ratio; a log-space sum over the fiber's draws is the oracle."""

    @pytest.mark.parametrize("tosses", [60, 300])
    def test_floor_coin_matches_log_space(self, tosses):
        # under this coin a fiber's weights can span more than a double's range
        state = EMState(Dist({0: 1.0}), (ENTWINED,), tosses)
        data_dist = random_cells(tosses, 60, tosses)
        assert_states_close(em_step(state, data_dist), log_space_step(state, data_dist), 1e-12)

    @pytest.mark.parametrize("tosses", [1048, 2000])
    @pytest.mark.parametrize("coins", [(ENTWINED,), (OPPOSED,), (ENTWINED, OPPOSED)])
    def test_extreme_odds_ratio_at_large_tosses(self, coins, tosses):
        # at the diagonal cell (K/2, K/2) the scaled fiber weights sum to a
        # subnormal at K = 1048 and to 0 at K = 2000 under both coins, so the
        # cell is weighed in log space
        mixture = Dist({x: 1 / len(coins) for x in range(len(coins))}, mode=FLOAT)
        state = EMState(mixture, coins, tosses)
        extra = [(tosses // 2, tosses // 2), (0, tosses), (tosses, tosses)]
        data_dist = random_cells(tosses, 60, 7, extra)
        got = em_step(state, data_dist)
        assert all(math.isfinite(v) and v > 0 for c in (got.mixture, *got.coins) for _, v in c.items())
        assert_states_close(got, log_space_step(state, data_dist), 1e-12)

    def test_product_coin_is_central(self):
        # psi = 1: the product coin and the uniform coin, for which log psi is exactly 0
        tosses = 8
        coins = (float_coin(0.28, 0.42, 0.12, 0.18), float_coin(0.25, 0.25, 0.25, 0.25))
        state = EMState(Dist({0: 0.4, 1: 0.6}), coins, tosses)
        data_dist = to_float(flrn(sample(mixture_dist(tosses), 500, 3)))
        assert_states_close(em_step(state, data_dist), channel_step(state, data_dist), 1e-12)


class TestInit:
    def test_deterministic(self):
        assert em_init(2, 15, 7) == em_init(2, 15, 7)
        assert em_init(2, 15, 7) != em_init(2, 15, 8)

    def test_single_class_mixture_is_point_mass(self):
        state = em_init(1, 5, 3)
        assert state.mixture == Dist({0: 1.0})

    def test_structure(self):
        cfg = EMConfig()
        state = em_init(2, 15, 7)
        assert state.n_classes == 2 and state.tosses == 15
        for coin in state.coins:
            assert len(coin.support()) == 4
            assert all(float(v) >= cfg.floor / 2 for _, v in coin.items())
            assert sum(float(v) for _, v in coin.items()) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(OutOfRange):
            em_init(0, 5, 1)
        with pytest.raises(OutOfRange):
            em_init(2, 0, 1)


class TestStep:
    def test_single_class_keeps_point_mass(self, sampled_data):
        state = em_init(1, 15, 3)
        data_dist = to_float(flrn(sampled_data))
        new = em_step(state, data_dist)
        assert new.mixture == Dist({0: 1.0})

    def test_single_class_converges_to_moment_fit(self, sampled_data):
        # with one class every cell is the class's own, so its expected heads
        # are the data's and one step lands each coin marginal on the moment
        # fit's: the data mean over K, up to the floor
        data_dist = to_float(flrn(sampled_data))
        state = em_step(em_init(1, 15, 3), data_dist)
        for i in (0, 1):
            mean = sum(float(v) * p[i] for p, v in data_dist.items()) / 15
            marginal = sum(float(v) for p, v in state.coins[0].items() if p[i])
            assert marginal == pytest.approx(mean, abs=1e-8)

    def test_equal_coins_leave_mixture_unchanged(self, sampled_data):
        coin = to_float(MIXTURE_COINS[0].dist)
        state = EMState(
            mixture=Dist({0: 0.3, 1: 0.7}), coins=(coin, coin), tosses=15
        )
        data_dist = to_float(flrn(sampled_data))
        new = em_step(state, data_dist)
        for x in (0, 1):
            assert float(new.mixture(x)) == pytest.approx(float(state.mixture(x)), abs=1e-9)

    def test_one_step_reduces_divergence(self, sampled_data):
        data_dist = to_float(flrn(sampled_data))
        state = em_init(2, 15, 5)
        before = kl_divergence(data_dist, predict(state))
        after = kl_divergence(data_dist, predict(em_step(state, data_dist)))
        assert after < before

    def test_data_outside_grid_rejected(self):
        state = em_init(2, 3, 1)
        bad = Dist({(0, 0): 0.5, (9, 9): 0.5})
        with pytest.raises(SupportMismatch):
            em_step(state, bad)

    def test_jeffrey_fixed_point(self):
        cfg = EMConfig()
        state = em_init(2, 4, 123, cfg)
        data_dist = predict(state, cfg)
        stepped = em_step(state, data_dist, cfg)
        assert kl_divergence(data_dist, predict(stepped, cfg)) <= 1e-9


class TestRun:
    def test_zero_iterations_rejected(self, sampled_data):
        with pytest.raises(OutOfRange):
            em_run(sampled_data, 2, 15, 0, 1)

    def test_records_every_state(self, sampled_data):
        trace = em_run(sampled_data, 2, 15, 3, 5)
        assert [r.iteration for r in trace.records] == [0, 1, 2, 3]
        assert all(r.divergence >= 0.0 for r in trace.records)

    def test_single_class_single_component_data(self):
        grid = to_float(bivbin(8, MIXTURE_COINS[0]).dist)
        data = sample(grid, 500, 9)
        trace = em_run(data, 1, 8, 4, 2)
        divs = trace.divergences()
        assert divs[-1] <= divs[0]

    def test_state_invariants_along_the_run(self, sampled_data):
        trace = em_run(sampled_data, 2, 15, 4, 5)
        for rec in trace.records:
            st = rec.state
            assert sum(float(v) for _, v in st.mixture.items()) == pytest.approx(1.0, abs=1e-9)
            for coin in st.coins:
                assert sum(float(v) for _, v in coin.items()) == pytest.approx(1.0, abs=1e-9)
                assert all(float(v) > 0 for _, v in coin.items())

    def test_deterministic_traces(self, sampled_data):
        a = em_run(sampled_data, 2, 15, 4, 11)
        b = em_run(sampled_data, 2, 15, 4, 11)
        assert trace_to_json(a) == trace_to_json(b)

    def test_class_label_symmetry(self, sampled_data):
        data_dist = to_float(flrn(sampled_data))
        state = em_init(2, 15, 5)
        swapped = EMState(
            mixture=Dist({0: float(state.mixture(1)), 1: float(state.mixture(0))}),
            coins=(state.coins[1], state.coins[0]),
            tosses=15,
        )
        new = em_step(state, data_dist)
        new_swapped = em_step(swapped, data_dist)
        assert float(new_swapped.mixture(0)) == pytest.approx(
            float(new.mixture(1)), abs=1e-14
        )
        for p, v in new.coins[0].items():
            assert float(new_swapped.coins[1](p)) == pytest.approx(float(v), abs=1e-14)
        for p, v in new.coins[1].items():
            assert float(new_swapped.coins[0](p)) == pytest.approx(float(v), abs=1e-14)

    @pytest.mark.parametrize(
        "tosses,n_classes,seeds", [(15, 2, range(20)), (15, 4, range(4)), (30, 2, range(4))]
    )
    def test_divergence_never_rises(self, tosses, n_classes, seeds):
        # Up to the floors each iteration is an EM step, which cannot raise KL.
        # The floors on the new mixture and coins lower no predicted cell by
        # more than a factor (1 + C delta) (1 + 4 delta)^K, so they raise KL by
        # at most (C + 4K) delta.
        tol = (n_classes + 4 * tosses) * EMConfig().floor
        data = sample(mixture_dist(tosses), 1000, 42)
        for seed in seeds:
            divs = em_run(data, n_classes, tosses, 10, seed).divergences()
            rises = [b - a for a, b in zip(divs, divs[1:]) if b - a > tol]
            assert not rises, (seed, rises)

    def test_trace_validation(self):
        state = em_init(1, 2, 1)
        from bitoss.em import EMRecord

        with pytest.raises(OutOfRange):
            EMTrace((EMRecord(0, float("nan"), state),))


class TestChannelForm:
    """EM reads the prediction only at the data's support; the paper's
    channel form over full grids is the oracle."""

    @pytest.mark.parametrize("tosses,n_classes", [(15, 2), (15, 4), (30, 2)])
    def test_step_equals_channel_form(self, tosses, n_classes):
        data_dist = to_float(flrn(sample(mixture_dist(tosses), 1000, 42)))
        for seed in range(3):
            state = em_init(n_classes, tosses, seed)
            for _ in range(2):
                got, ref = em_step(state, data_dist), channel_step(state, data_dist)
                for x in range(n_classes):
                    assert math.isclose(got.mixture(x), ref.mixture(x), rel_tol=1e-12)
                    for face in TWO_BY_TWO:
                        assert math.isclose(
                            got.coins[x](face), ref.coins[x](face), rel_tol=1e-12
                        )
                state = ref

    @pytest.mark.parametrize("tosses,n_classes,seed", [(15, 2, 0), (15, 4, 1), (30, 2, 0)])
    def test_reported_divergence_is_kl_to_prediction(self, tosses, n_classes, seed):
        data = sample(mixture_dist(tosses), 1000, 42)
        data_dist = to_float(flrn(data))
        trace = em_run(data, n_classes, tosses, 5, seed)
        for rec in trace.records:
            expected = kl_divergence(data_dist, predict(rec.state))
            assert math.isclose(rec.divergence, expected, rel_tol=1e-12)
