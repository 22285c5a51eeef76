import json
from fractions import Fraction

import pytest

from bitoss.binomials import bivbin
from bitoss.em import em_run
from bitoss.kernel import BitossError, Multiset, OutOfRange, sample, to_float
from bitoss.serialize import (
    FormatError,
    dist_from_json,
    dist_to_json,
    dumps,
    emstate_to_json,
    grid_from_json,
    grid_to_csv,
    grid_to_json,
    multiset_from_json,
    multiset_to_json,
    point_from_json,
    point_to_json,
    trace_to_json,
    trace_to_csv,
)

from conftest import EXAMPLE_COIN


class TestPoints:
    def test_bare_int_round_trip(self):
        assert point_from_json(point_to_json(5)) == 5

    def test_tuple_round_trip(self):
        assert point_from_json(point_to_json((1, 2, 3))) == (1, 2, 3)

    def test_labels_refused(self):
        with pytest.raises(Exception):
            point_to_json("R")

    def test_bad_document(self):
        with pytest.raises(FormatError):
            point_from_json([])
        with pytest.raises(FormatError):
            point_from_json("nope")

    def test_format_error_is_a_bitoss_value_error(self):
        assert issubclass(FormatError, BitossError) and issubclass(FormatError, ValueError)

    @pytest.mark.parametrize("obj", [[True], [False], [1, False], [0, True, 1]])
    def test_bools_refused(self, obj):
        with pytest.raises(FormatError):
            point_from_json(obj)
        with pytest.raises(OutOfRange):
            point_to_json(obj[0] if len(obj) == 1 else tuple(obj))


class TestRoundTrips:
    def test_multiset(self):
        phi = Multiset({(0, 1): 2, (1, 1): 5, (0, 0): 1})
        assert multiset_from_json(multiset_to_json(phi)) == phi

    def test_rational_dist(self):
        assert dist_from_json(dist_to_json(EXAMPLE_COIN.dist)) == EXAMPLE_COIN.dist

    def test_float_dist(self):
        d = to_float(EXAMPLE_COIN.dist)
        assert dist_from_json(dist_to_json(d)) == d

    def test_grid(self):
        grid = bivbin(3, EXAMPLE_COIN)
        back = grid_from_json(grid_to_json(grid))
        assert back.dist == grid.dist and back.tosses == 3 and back.n_dim == 2

    def test_em_state_and_trace(self):
        # EM states and traces are written only; their documents follow the
        # schema, and the distributions inside read back
        grid = to_float(bivbin(6, EXAMPLE_COIN).dist)
        trace = em_run(sample(grid, 300, 4), 2, 6, 2, 5)
        state = trace.final_state
        doc = json.loads(dumps(emstate_to_json(state)))
        assert set(doc) == {"K", "mixture", "coins"} and doc["K"] == 6
        assert dist_from_json(doc["mixture"]) == state.mixture
        assert tuple(dist_from_json(c) for c in doc["coins"]) == state.coins
        records = json.loads(dumps(trace_to_json(trace)))["records"]
        assert [set(r) for r in records] == [{"iteration", "kl", "state"}] * len(records)
        assert [(r["iteration"], r["kl"]) for r in records] == [
            (rec.iteration, rec.divergence) for rec in trace.records
        ]
        assert records[-1]["state"] == doc

    def test_json_text_stable(self):
        grid = bivbin(2, EXAMPLE_COIN)
        assert dumps(grid_to_json(grid)) == dumps(grid_to_json(grid))
        parsed = json.loads(dumps(grid_to_json(grid)))
        assert parsed["K"] == 2 and parsed["N"] == 2

    def test_bad_documents(self):
        with pytest.raises(FormatError):
            dist_from_json({"mode": "nope", "entries": []})
        with pytest.raises(FormatError):
            dist_from_json({"mode": "rational"})
        with pytest.raises(FormatError):
            multiset_from_json({"entries": [{"point": [0], "mult": "x"}]})


# each document would read as a distribution if bools and strings were numbers
NON_NUMBER_VALUES = {
    "num true": ("rational", [{"num": True, "den": 2}, {"num": 1, "den": 2}]),
    "den true": ("rational", [{"num": 1, "den": True}]),
    "num str": ("rational", [{"num": "1", "den": 2}, {"num": 1, "den": 2}]),
    "p true": ("float", [{"p": True}]),
    "p str": ("float", [{"p": "0.5"}, {"p": 0.5}]),
}


@pytest.mark.parametrize("name", NON_NUMBER_VALUES)
def test_entry_values_are_numbers(name):
    mode, values = NON_NUMBER_VALUES[name]
    doc = {"mode": mode, "entries": [{"point": [i], **v} for i, v in enumerate(values)]}
    with pytest.raises(FormatError, match="^bad distribution document: "):
        dist_from_json(doc)
    with pytest.raises(FormatError, match="^bad distribution document: "):
        grid_from_json(doc | {"K": 1, "N": 1})


class TestCSV:
    def test_grid_matrix_layout(self):
        grid = bivbin(2, EXAMPLE_COIN)
        lines = grid_to_csv(grid).strip().split("\n")
        assert len(lines) == 3
        matrix = [[float(v) for v in line.split(",")] for line in lines]
        assert matrix[1][1] == pytest.approx(float(Fraction(47, 288)))
        assert sum(sum(row) for row in matrix) == pytest.approx(1.0)

    def test_trace_header(self):
        grid = to_float(bivbin(5, EXAMPLE_COIN).dist)
        trace = em_run(sample(grid, 100, 4), 1, 5, 2, 5)
        text = trace_to_csv(trace)
        assert text.startswith("iteration,kl\n")
        assert len(text.strip().split("\n")) == len(trace.records) + 1
