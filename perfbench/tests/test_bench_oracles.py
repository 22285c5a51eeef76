"""Tests of the benchmark's own oracles and bookkeeping.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root;
the project's own test run collects ``tests/`` only.
"""

import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles as O  # noqa: E402
import run  # noqa: E402
from harness import Attempt, CheckFailed, KnownFault, Op, judge, run_rounds  # noqa: E402

README_COIN = {(0, 0): F(3, 8), (0, 1): F(5, 12), (1, 0): F(1, 12), (1, 1): F(1, 8)}


def test_convolution_reproduces_readme_worked_example():
    grid = O.exact_grid(README_COIN, 2)
    assert grid[(1, 1)] == F(47, 288)
    assert sum(grid.values()) == 1
    # two tosses: both tails needs (0,0) twice
    assert grid[(0, 0)] == F(3, 8) ** 2


def test_convolution_marginals_are_binomials():
    grid = O.exact_grid(README_COIN, 7)
    first, second = O.marginals(grid, 2)
    assert first == O.exact_binomial(7, O.coin_marginal(README_COIN, 0))
    assert second == O.exact_binomial(7, O.coin_marginal(README_COIN, 1))


def test_convolution_drops_unreachable_cells():
    coin = {(0, 0): F(1, 2), (0, 1): F(0), (1, 0): F(1, 4), (1, 1): F(1, 4)}
    grid = O.exact_grid(coin, 3)
    assert all(n2 <= n1 for n1, n2 in grid)
    assert sum(grid.values()) == 1


def test_sampler_matches_readme_spec_on_hand_worked_draws():
    # Draw i under seed 0 is splitmix64((i+1) * 0x9E3779B97F4A7C15); for
    # i = 0, 1 these are the generator's published first two outputs.
    assert O.draw_numerator(0, 0) == 0xE220A8397B1DCDAF  # u = 0.8833...
    assert O.draw_numerator(0, 1) == 0x6E789E6AA1B965F4  # u = 0.4315...
    # CDF over sorted points 0, 1, 2 is 1/4, 1/2, 1: u = 0.88 -> 2, u = 0.43 -> 1
    urn = [(2, F(1, 2)), (0, F(1, 4)), (1, F(1, 4))]
    assert O.sample_counts(urn, 1, 0) == {2: 1}
    assert O.sample_counts(urn, 2, 0) == {2: 1, 1: 1}
    floats = [(p, float(v)) for p, v in urn]
    assert O.sample_counts(floats, 2, 0) == {2: 1, 1: 1}


def test_bivbin_dirichlet_formula_on_a_singleton_fiber():
    # K = 1, heads (1, 0): the only draw is one (1,0) face
    psi = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    mean = O.bivbin_dirichlet_formula(psi, 1, 1, 0)
    assert mean == {(0, 0): F(1, 5), (0, 1): F(1, 5), (1, 0): F(2, 5), (1, 1): F(1, 5)}


def _op(name, value=None, raises=None, check=None):
    def run():
        if raises is not None:
            raise raises
        return value

    return Op(name, run, check or (lambda out: None))


def _fail_check(exc):
    def check(out):
        raise exc

    return check


def test_raising_and_wrong_operations_count_as_failed_without_aborting():
    ops = [
        _op("ok", 1),
        _op("raises", raises=OverflowError("int too large to convert to float")),
        _op("wrong", 2, check=_fail_check(CheckFailed("cell differs"))),
        _op("after", 3),
    ]
    reference = {}
    attempts = run_rounds(ops, 0, reference)
    assert [a.op.name for a in attempts] == ["ok", "raises", "wrong", "after"]
    failed, correct, problems = judge(attempts, reference, ops)
    assert failed == 2
    assert not correct
    assert set(problems) == {"raises", "wrong"}


def test_known_fault_counts_as_failed_but_keeps_the_run_correct():
    ops = [_op("ok", 1), _op("fault", 2, check=_fail_check(KnownFault("KL rose")))]
    reference = {}
    attempts = run_rounds(ops, 0, reference)
    attempts += run_rounds(ops, 0, reference)
    failed, correct, _ = judge(attempts, reference, ops)
    assert (len(attempts), failed, correct) == (4, 2, True)


def test_output_that_changes_between_rounds_fails():
    outputs = iter([1, 2])
    ops = [Op("drifts", lambda: next(outputs), lambda out: None)]
    reference = {}
    attempts = run_rounds(ops, 0, reference) + run_rounds(ops, 0, reference)
    failed, correct, problems = judge(attempts, reference, ops)
    assert (failed, correct) == (1, False)
    assert "differs" in problems["drifts"][1]


def test_metrics_come_from_each_operations_median():
    cheap, costly = _op("cheap"), _op("costly")
    rounds = [(0.1, 0.4), (0.1, 0.4), (0.1, 5.0)]  # the last costly attempt stalls
    attempts = [Attempt(op, secs, None)
                for pair in rounds for op, secs in zip((cheap, costly), pair)]
    m = run.end_to_end(attempts, [0.3, 0.1, 0.2], 20.0)
    assert m["ops_per_s"]["value"] == pytest.approx(2 / 0.5)
    assert m["op_p50_ms"]["value"] == pytest.approx(200.0)  # sqrt(100 ms * 400 ms)
    assert m["setup_s"]["value"] == 0.2
