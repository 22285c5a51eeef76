import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import bitoss
from bitoss.binomials import Coin, GridDist, bivbin
from bitoss.channels import Channel, push
from bitoss.cli import main
from bitoss.kernel import Dist, FLOAT, Multiset, to_float
from bitoss.serialize import (
    dist_to_json,
    dumps,
    grid_to_json,
    multiset_from_json,
    multiset_to_json,
)

from conftest import EXAMPLE_COIN, MIXTURE_COINS, MIXTURE_WEIGHTS


@pytest.fixture
def coin_file(tmp_path):
    path = tmp_path / "coin.json"
    path.write_text(dumps(dist_to_json(EXAMPLE_COIN.dist)))
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestBivbin:
    def test_published_grid(self, tmp_path, coin_file, capsys):
        out = tmp_path / "grid.json"
        csv = tmp_path / "grid.csv"
        assert run("bivbin", "--coin", coin_file, "--K", 2, "--out", out, "--csv", csv) == 0
        doc = json.loads(out.read_text())
        assert doc["K"] == 2 and doc["N"] == 2
        cell = {
            tuple(e["point"]): Fraction(e["num"], e["den"]) for e in doc["entries"]
        }
        assert cell[(1, 1)] == Fraction(47, 288)
        assert cell[(0, 0)] == Fraction(9, 64)
        assert len(cell) == 9
        rows = csv.read_text().strip().split("\n")
        assert len(rows) == 3

    def test_readme_coin_bytes_at_thirty_tosses(self, tmp_path, coin_file, capsys):
        # sha256 of the grid JSON, its CSV and the recover output: the bytes
        # stay fixed however the grid is computed
        out, csv = tmp_path / "grid.json", tmp_path / "grid.csv"
        assert run("bivbin", "--coin", coin_file, "--K", 30, "--out", out, "--csv", csv) == 0
        capsys.readouterr()
        assert run("recover", "--grid", out, "--K", 30) == 0
        artifacts = (out.read_bytes(), csv.read_bytes(), capsys.readouterr().out.encode())
        assert [hashlib.sha256(a).hexdigest() for a in artifacts] == [
            "596970c3cb390ad6b9af3bbdfe9c529291d592467aa3f89756f0db98c5fb773f",
            "62f6b9e7ebba4f063130ff2e255f8e09de827b4fc00f9c7a55f9bd2a85842017",
            "360c76411818af00b5f9ec8c8eb797e6f96bdd5d57593e0a689ef8528c50e843",
        ]

    def test_zero_tosses(self, tmp_path, coin_file):
        out = tmp_path / "grid.json"
        assert run("bivbin", "--coin", coin_file, "--K", 0, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["entries"] == [{"den": 1, "num": 1, "point": [0, 0]}]

    def test_surface_mode_for_ten_tosses(self, tmp_path, coin_file):
        out = tmp_path / "grid.json"
        assert run("bivbin", "--coin", coin_file, "--K", 10, "--out", out) == 0
        doc = json.loads(out.read_text())
        best = max(doc["entries"], key=lambda e: Fraction(e["num"], e["den"]))
        assert tuple(best["point"]) == (2, 5)

    def test_one_dimensional_float_coin_at_large_K(self, tmp_path):
        coin = tmp_path / "coin1.json"
        coin.write_text(dumps(dist_to_json(Dist({0: 0.7, 1: 0.3}))))
        out = tmp_path / "grid.json"
        assert run("bivbin", "--coin", coin, "--K", 2000, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert (doc["K"], doc["N"], doc["mode"]) == (2000, 1, FLOAT)
        assert sum(e["p"] for e in doc["entries"]) == pytest.approx(1.0)

    def test_csv_of_one_dimensional_coin_writes_nothing(self, tmp_path):
        coin = tmp_path / "coin1.json"
        coin.write_text(dumps(dist_to_json(Dist({0: 0.7, 1: 0.3}))))
        out, csv = tmp_path / "g1.json", tmp_path / "g1.csv"
        assert run("bivbin", "--coin", coin, "--K", 4, "--out", out, "--csv", csv) == 2
        assert not out.exists() and not csv.exists()

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("bivbin", "--coin", bad, "--K", 2, "--out", tmp_path / "o.json") == 2

    def test_missing_file(self, tmp_path):
        assert (
            run("bivbin", "--coin", tmp_path / "none.json", "--K", 2, "--out", tmp_path / "o.json")
            == 2
        )

    def test_dimension_flag_mismatch(self, tmp_path, coin_file):
        assert (
            run("bivbin", "--coin", coin_file, "--K", 2, "--n", 3, "--out", tmp_path / "o.json")
            == 2
        )

    def test_resource_limit(self, tmp_path, monkeypatch):
        coin3 = tmp_path / "coin3.json"
        eighth = Fraction(1, 8)
        faces = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        coin3.write_text(dumps(dist_to_json(Dist({p: eighth for p in faces}))))
        monkeypatch.setenv("BITOSS_MSET_CAP", "5")
        assert run("bivbin", "--coin", coin3, "--K", 3, "--out", tmp_path / "o.json") == 3

    def test_unwritable_out_is_usage_error(self, tmp_path, coin_file, capsys):
        out = tmp_path / "missing" / "grid.json"
        assert run("bivbin", "--coin", coin_file, "--K", 3, "--out", out) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_unwritable_csv_is_usage_error(self, tmp_path, coin_file, capsys):
        out, csv = tmp_path / "grid.json", tmp_path / "missing" / "grid.csv"
        assert run("bivbin", "--coin", coin_file, "--K", 3, "--out", out, "--csv", csv) == 2
        assert "cannot write" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coin.json"]

    def test_unwritable_csv_keeps_existing_out(self, tmp_path, coin_file):
        out, csv = tmp_path / "grid.json", tmp_path / "missing" / "grid.csv"
        out.write_bytes(b"earlier grid")
        assert run("bivbin", "--coin", coin_file, "--K", 3, "--out", out, "--csv", csv) == 2
        assert out.read_bytes() == b"earlier grid"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coin.json", "grid.json"]

    def test_csv_below_a_file_writes_nothing(self, tmp_path, coin_file, capsys):
        out, csv = tmp_path / "grid.json", coin_file / "grid.csv"
        assert run("bivbin", "--coin", coin_file, "--K", 3, "--out", out, "--csv", csv) == 2
        assert "cannot write" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coin.json"]

    def test_nan_face_is_usage_error(self, tmp_path):
        coin = tmp_path / "coin.json"
        faces = [[[0, 0], 0.5], [[0, 1], 0.25], [[1, 0], 0.25], [[1, 1], float("nan")]]
        entries = [{"point": p, "p": v} for p, v in faces]
        coin.write_text(json.dumps({"mode": "float", "entries": entries}))
        assert run("bivbin", "--coin", coin, "--K", 3, "--out", tmp_path / "g.json") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coin.json"]

    def test_out_and_csv_naming_one_file_write_nothing(
        self, tmp_path, coin_file, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code = run("bivbin", "--coin", coin_file, "--K", 3, "--out", "./p.json", "--csv", "p.json")
        assert code == 2
        assert "name the same file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coin.json"]

    def test_directory_csv_writes_nothing(self, tmp_path, coin_file, capsys):
        out, csv = tmp_path / "grid.json", tmp_path / "surface"
        csv.mkdir()
        assert run("bivbin", "--coin", coin_file, "--K", 3, "--out", out, "--csv", csv) == 2
        assert "is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coin.json", "surface"]


class TestSample:
    def test_zero_draws(self, tmp_path, coin_file):
        out = tmp_path / "s.json"
        assert run("sample", "--dist", coin_file, "--n", 0, "--seed", 1, "--out", out) == 0
        assert multiset_from_json(json.loads(out.read_text())) == Multiset()

    def test_point_mass(self, tmp_path):
        dist = tmp_path / "point.json"
        dist.write_text(dumps(dist_to_json(Dist({(3, 4): 1}))))
        out = tmp_path / "s.json"
        assert run("sample", "--dist", dist, "--n", 7, "--seed", 5, "--out", out) == 0
        assert multiset_from_json(json.loads(out.read_text())) == Multiset({(3, 4): 7})

    def test_byte_identical_reruns(self, tmp_path, coin_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("sample", "--dist", coin_file, "--n", 500, "--seed", 9, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mixture_has_two_humps(self, tmp_path):
        tosses = 15
        chan = Channel(
            (0, 1),
            {i: to_float(bivbin(tosses, c).dist) for i, c in enumerate(MIXTURE_COINS)},
        )
        weights = Dist({i: float(w) for i, w in enumerate(MIXTURE_WEIGHTS)}, mode=FLOAT)
        sigma = push(chan, weights)
        dist = tmp_path / "mix.json"
        dist.write_text(dumps(dist_to_json(sigma)))
        out = tmp_path / "s.json"
        assert run("sample", "--dist", dist, "--n", 1000, "--seed", 42, "--out", out) == 0
        drawn = multiset_from_json(json.loads(out.read_text()))
        # the components separate along the first coordinate (means ~3.1 and 12)
        low = sum(m for p, m in drawn.items() if p[0] <= 7)
        assert drawn.size == 1000
        assert abs(low / 1000 - 1 / 3) < 0.05

    def test_unwritable_out_is_usage_error(self, tmp_path, coin_file, capsys):
        out = tmp_path / "missing" / "s.json"
        assert run("sample", "--dist", coin_file, "--n", 5, "--seed", 1, "--out", out) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_nan_probability_is_usage_error(self, tmp_path):
        # json reads NaN, and the other entries alone sum to one
        dist = tmp_path / "d.json"
        dist.write_text(
            '{"mode": "float", "entries": [{"point": [0], "p": 1.0}, {"point": [1], "p": NaN}]}'
        )
        out = tmp_path / "s.json"
        assert run("sample", "--dist", dist, "--n", 5, "--seed", 1, "--out", out) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json"]


class TestEm:
    def make_data(self, tmp_path, tosses=8, n=400):
        grid = to_float(bivbin(tosses, MIXTURE_COINS[0]).dist)
        from bitoss.kernel import sample

        data = sample(grid, n, 21)
        path = tmp_path / "data.json"
        path.write_text(dumps(multiset_to_json(data)))
        return path

    def test_single_class_recovers_generator(self, tmp_path):
        data = self.make_data(tmp_path)
        out, trace = tmp_path / "state.json", tmp_path / "trace.csv"
        # exact EM converges linearly: 40 steps bring the fit within 0.02 of
        # the generator, where its fixed point (the MLE) lies 0.016 away
        code = run(
            "em", "--data", data, "--K", 8, "--classes", 1, "--iters", 40,
            "--seed", 3, "--out", out, "--trace", trace,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        fitted = {tuple(e["point"]): e["p"] for e in doc["coins"][0]["entries"]}
        for p, v in MIXTURE_COINS[0].dist.items():
            assert abs(fitted[p] - float(v)) < 0.02
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "iteration,kl"
        assert len(lines) == 42

    def test_trace_json_and_decreasing_divergences(self, tmp_path):
        data = self.make_data(tmp_path)
        out, trace, tj = tmp_path / "s.json", tmp_path / "t.csv", tmp_path / "t.json"
        code = run(
            "em", "--data", data, "--K", 8, "--classes", 2, "--iters", 5,
            "--seed", 5, "--out", out, "--trace", trace, "--trace-json", tj,
        )
        assert code == 0
        doc = json.loads(tj.read_text())
        kls = [r["kl"] for r in doc["records"]]
        assert kls[-1] <= kls[0]

    def test_zero_iterations_usage_error(self, tmp_path):
        data = self.make_data(tmp_path)
        code = run(
            "em", "--data", data, "--K", 8, "--classes", 2, "--iters", 0,
            "--seed", 1, "--out", tmp_path / "o.json", "--trace", tmp_path / "t.csv",
        )
        assert code == 2

    @pytest.mark.parametrize("tosses", [0, -3])
    def test_bad_toss_count_usage_error(self, tmp_path, tosses):
        # the toss count is checked before the data is read against the grid
        code = run(
            "em", "--data", self.make_data(tmp_path), "--K", tosses, "--classes", 2,
            "--iters", 2, "--seed", 1, "--out", tmp_path / "o.json", "--trace", tmp_path / "t.csv",
        )
        assert code == 2

    def test_data_outside_grid(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(dumps(multiset_to_json(Multiset({(30, 2): 5}))))
        code = run(
            "em", "--data", path, "--K", 8, "--classes", 2, "--iters", 2,
            "--seed", 1, "--out", tmp_path / "o.json", "--trace", tmp_path / "t.csv",
        )
        assert code == 4

    def test_byte_identical_reruns(self, tmp_path):
        data = self.make_data(tmp_path, n=200)
        outs = []
        for tag in "ab":
            out, trace = tmp_path / f"s{tag}.json", tmp_path / f"t{tag}.csv"
            assert (
                run(
                    "em", "--data", data, "--K", 8, "--classes", 2, "--iters", 3,
                    "--seed", 7, "--out", out, "--trace", trace,
                )
                == 0
            )
            outs.append((out.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_unwritable_output_is_usage_error(self, tmp_path, flag, capsys):
        paths = {"--out": tmp_path / "s.json", "--trace": tmp_path / "t.csv"}
        paths[flag] = tmp_path / "missing" / "x"
        code = run(
            "em", "--data", self.make_data(tmp_path, n=50), "--K", 8, "--classes", 1,
            "--iters", 1, "--seed", 1, "--out", paths["--out"], "--trace", paths["--trace"],
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_out_and_trace_naming_one_file_write_nothing(self, tmp_path, capsys):
        code = run(
            "em", "--data", self.make_data(tmp_path, n=50), "--K", 8, "--classes", 1,
            "--iters", 1, "--seed", 1, "--out", tmp_path / "s.json",
            "--trace", tmp_path / "s.json",
        )
        assert code == 2
        assert "name the same file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.json"]

    def test_trace_json_naming_the_trace_through_a_link_writes_nothing(self, tmp_path):
        (tmp_path / "t.csv").write_bytes(b"earlier trace")
        (tmp_path / "link.csv").symlink_to(tmp_path / "t.csv")
        code = run(
            "em", "--data", self.make_data(tmp_path, n=50), "--K", 8, "--classes", 1,
            "--iters", 1, "--seed", 1, "--out", tmp_path / "s.json",
            "--trace", tmp_path / "t.csv", "--trace-json", tmp_path / "link.csv",
        )
        assert code == 2
        assert (tmp_path / "t.csv").read_bytes() == b"earlier trace"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.json", "link.csv", "t.csv"]

    def test_unwritable_trace_json_writes_nothing(self, tmp_path, capsys):
        data = self.make_data(tmp_path, n=50)
        code = run(
            "em", "--data", data, "--K", 8, "--classes", 1, "--iters", 1, "--seed", 1,
            "--out", tmp_path / "state.json", "--trace", tmp_path / "trace.csv",
            "--trace-json", tmp_path / "missing" / "t.json",
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.json"]


class TestRecover:
    def test_round_trip_via_files(self, tmp_path, coin_file, capsys):
        grid_path = tmp_path / "grid.json"
        assert run("bivbin", "--coin", coin_file, "--K", 4, "--out", grid_path) == 0
        assert run("recover", "--grid", grid_path, "--K", 4) == 0
        doc = json.loads(capsys.readouterr().out)
        got = {tuple(e["point"]): Fraction(e["num"], e["den"]) for e in doc["entries"]}
        assert got == dict(EXAMPLE_COIN.dist.items())
        assert doc["clamped"] is False

    def test_point_mass_grid(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(dumps(grid_to_json(GridDist(3, 2, Dist({(0, 0): 1})))))
        assert run("recover", "--grid", grid_path, "--K", 3) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == [{"den": 1, "num": 1, "point": [0, 0]}]

    def test_infeasible_grid_exits_five(self, tmp_path):
        grid = GridDist(2, 2, Dist({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(dumps(grid_to_json(grid)))
        assert run("recover", "--grid", grid_path, "--K", 2) == 5

    def test_one_dimensional_grid_is_usage_error(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(dumps(grid_to_json(bivbin(4, Coin(1, Dist({0: 0.7, 1: 0.3}))))))
        assert run("recover", "--grid", grid_path, "--K", 4) == 2

    def test_zero_tosses_is_usage_error(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(dumps(grid_to_json(GridDist(0, 2, Dist({(0, 0): 1})))))
        assert run("recover", "--grid", grid_path, "--K", 0) == 2

    def test_infeasible_grid_clamped(self, tmp_path, capsys):
        for half in (Fraction(1, 2), 0.5):
            grid = GridDist(2, 2, Dist({(2, 0): half, (0, 2): half}))
            grid_path = tmp_path / "grid.json"
            grid_path.write_text(dumps(grid_to_json(grid)))
            assert run("recover", "--grid", grid_path, "--K", 2, "--clamp") == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc == dist_to_json(Dist({(0, 1): half, (1, 0): half})) | {"clamped": True}

    @pytest.mark.parametrize("field, value", [("K", True), ("K", 1.0), ("N", 2.0)])
    def test_non_integer_count_is_usage_error(self, tmp_path, capsys, field, value):
        doc = grid_to_json(GridDist(1, 2, Dist({(0, 0): 1})))
        doc[field] = value
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(doc))
        assert run("recover", "--grid", grid_path, "--K", 1) == 2
        assert capsys.readouterr().out == ""

    def test_k_mismatch_is_usage_error(self, tmp_path, coin_file):
        grid_path = tmp_path / "grid.json"
        assert run("bivbin", "--coin", coin_file, "--K", 4, "--out", grid_path) == 0
        assert run("recover", "--grid", grid_path, "--K", 5) == 2


class TestSuccession:
    def test_beta(self, capsys):
        assert run("succession", "beta", "--alpha", 1, "--beta", 1, "--K", 10, "--n", 10) == 0
        assert json.loads(capsys.readouterr().out)["mean"] == "11/12"

    def test_poisson_binomial(self, capsys):
        assert run("succession", "poisson-binomial", "--r", 0.5, "--rate", 2, "--n", 3) == 0
        assert json.loads(capsys.readouterr().out)["mean"] == 4.0

    def test_bivbin_dirichlet_uniform(self, tmp_path, capsys):
        psi = tmp_path / "psi.json"
        psi.write_text(
            dumps(multiset_to_json(Multiset({p: 1 for p in EXAMPLE_COIN.dist.support()})))
        )
        assert run("succession", "bivbin-dirichlet", "--psi", psi, "--K", 2, "--n1", 1, "--n2", 1) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(e["num"] == 1 and e["den"] == 4 for e in doc["mean"]["entries"])

    def test_dirichlet(self, tmp_path, capsys):
        psi = tmp_path / "psi.json"
        draw = tmp_path / "draw.json"
        psi.write_text(dumps(multiset_to_json(Multiset({0: 1, 1: 1}))))
        draw.write_text(dumps(multiset_to_json(Multiset({1: 2}))))
        assert run("succession", "dirichlet", "--psi", psi, "--draw", draw) == 0
        doc = json.loads(capsys.readouterr().out)
        got = {tuple(e["point"])[0] if len(e["point"]) > 1 else e["point"][0]:
               Fraction(e["num"], e["den"]) for e in doc["mean"]["entries"]}
        assert got == {0: Fraction(1, 4), 1: Fraction(3, 4)}

    def test_poisson_bivbin(self, tmp_path, coin_file, capsys):
        assert run(
            "succession", "poisson-bivbin", "--coin", coin_file, "--rate", 3, "--n1", 1, "--n2", 2
        ) == 0
        mean = json.loads(capsys.readouterr().out)["mean"]
        assert mean == pytest.approx(3.419117647058824, abs=1e-12)

    def test_poisson_bivbin_at_large_rate(self, tmp_path, capsys):
        coin = tmp_path / "uniform.json"
        quarter = {p: Fraction(1, 4) for p in EXAMPLE_COIN.dist.support()}
        coin.write_text(dumps(dist_to_json(Dist(quarter))))
        assert run(
            "succession", "poisson-bivbin", "--coin", coin, "--rate", 1e6, "--n1", 1, "--n2", 2
        ) == 0
        mean = json.loads(capsys.readouterr().out)["mean"]
        assert mean == pytest.approx(250_000 + 3 - 1 / 125_001, rel=1e-12)

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_non_finite_rate_is_usage_error(self, coin_file, rate, capsys):
        assert run("succession", "poisson-binomial", "--r", 0.5, f"--rate={rate}", "--n", 2) == 2
        assert run(
            "succession", "poisson-bivbin", "--coin", coin_file, f"--rate={rate}",
            "--n1", 1, "--n2", 2,
        ) == 2
        assert capsys.readouterr().out == ""

    def test_bad_params(self, capsys):
        assert run("succession", "beta", "--alpha", 0, "--beta", 1, "--K", 1, "--n", 0) == 2


class TestBoolPoints:
    """JSON ``true`` and ``false`` are not integer points: every reader refuses
    them before anything is computed or written."""

    HALF_BOOL_DIST = {
        "mode": "rational",
        "entries": [{"point": [0], "num": 1, "den": 2}, {"point": [True], "num": 1, "den": 2}],
    }

    def test_sample_writes_nothing(self, tmp_path, capsys):
        dist, out = tmp_path / "d.json", tmp_path / "s.json"
        dist.write_text(json.dumps(self.HALF_BOOL_DIST))
        assert run("sample", "--dist", dist, "--n", 5, "--seed", 1, "--out", out) == 2
        assert not out.exists()
        assert "integer array" in capsys.readouterr().err

    def test_bivbin_writes_nothing(self, tmp_path, capsys):
        coin, out = tmp_path / "c.json", tmp_path / "g.json"
        coin.write_text(json.dumps(self.HALF_BOOL_DIST))
        assert run("bivbin", "--coin", coin, "--K", 2, "--out", out) == 2
        assert not out.exists()
        assert "integer array" in capsys.readouterr().err

    def test_succession_dirichlet_prints_nothing(self, tmp_path, capsys):
        psi, draw = tmp_path / "psi.json", tmp_path / "draw.json"
        psi.write_text(json.dumps({"entries": [{"point": [True, False], "mult": 2}]}))
        draw.write_text(dumps(multiset_to_json(Multiset({(0, 0): 1}))))
        assert run("succession", "dirichlet", "--psi", psi, "--draw", draw) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integer array" in captured.err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run("bogus") == 2

    def test_unknown_flag(self, capsys):
        assert run("sample", "--nope", 1) == 2

    def test_no_arguments(self, capsys):
        assert run() == 2


def test_start_up_imports_no_dataclasses_inspect_or_logging():
    # every process pays for what importing bitoss.cli loads; site may load
    # modules through .pth files, so compare with a bare interpreter
    src = os.path.dirname(os.path.dirname(bitoss.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys; print(' '.join(sys.modules))"

    def loaded(code):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split())

    added = loaded("import bitoss.cli; " + probe) - loaded(probe)
    assert "bitoss.cli" in added
    assert not added & {"dataclasses", "inspect", "logging"}


def _entries(*pairs, mode="rational"):
    """A distribution document with one entry per ``(point, weight)`` pair."""
    if mode == "float":
        return {"mode": mode, "entries": [{"point": p, "p": w} for p, w in pairs]}
    return {"mode": mode, "entries": [{"point": p, "num": n, "den": d} for p, (n, d) in pairs]}


_HALF = (1, 2)
# Malformed and edge-case input documents, each read by every command of
# CORPUS_COMMANDS; a str is written as it is, anything else as JSON.
CORPUS = {
    "not json": "{not json",
    "empty file": "",
    "null": "null",
    "array": "[]",
    "no entries": {"mode": "rational"},
    "unknown mode": {"mode": "exact", "entries": []},
    "no points": _entries(),
    "zero den": _entries(([0, 0], (1, 0))),
    "negative num": _entries(([0, 0], (-1, 1)), ([1, 1], (2, 1))),
    "sum one third": _entries(([0, 0], (1, 3))),
    "float num": _entries(([0, 0], (1.5, 1))),
    "nan p": _entries(([0, 0], "nan"), mode="float"),
    "text p": _entries(([0, 0], "x"), mode="float"),
    "bool point": _entries(([True], _HALF), ([0], _HALF)),
    "text point": _entries(("ab", (1, 1))),
    "1-coin": _entries(([0], _HALF), ([1], _HALF)),
    "3-coin": _entries(([1, 1, 1], (1, 1))),
    "4-coin": _entries(([1, 1, 1, 1], (1, 1))),
    "off the faces": _entries(([2, 0], (1, 1))),
    "anti-diagonal grid": _entries(([2, 0], _HALF), ([0, 2], _HALF)) | {"K": 2, "N": 2},
    "grid of other K": _entries(([0, 0], (1, 1))) | {"K": 3, "N": 2},
    "grid K -1": _entries(([0, 0], (1, 1))) | {"K": -1, "N": 2},
    "grid K text": _entries(([0, 0], (1, 1))) | {"K": "2", "N": 2},
    "grid N 3, pair points": _entries(([0, 0], (1, 1))) | {"K": 2, "N": 3},
    "grid point off the grid": _entries(([3, 0], (1, 1))) | {"K": 2, "N": 2},
    "negative mult": {"entries": [{"point": [0, 0], "mult": -1}]},
    "float mult": {"entries": [{"point": [0, 0], "mult": 1.5}]},
    "bool mult": {"entries": [{"point": [0, 0], "mult": True}]},
    "no mult": {"entries": [{"point": [0, 0]}]},
    "entries object": {"entries": {}},
    "empty multiset": {"entries": []},
    "multiset off the grid": {"entries": [{"point": [5, 5], "mult": 1}]},
    "mixed dimensions": {"entries": [{"point": [0], "mult": 1}, {"point": [0, 0], "mult": 1}]},
}

CORPUS_COMMANDS = [
    ["bivbin", "--coin", "{f}", "--K", 2, "--out", "o.json", "--csv", "o.csv"],
    ["sample", "--dist", "{f}", "--n", 3, "--seed", 1, "--out", "s.json"],
    ["em", "--data", "{f}", "--K", 2, "--classes", 2, "--iters", 1, "--seed", 0,
     "--out", "state.json", "--trace", "trace.csv"],
    ["recover", "--grid", "{f}", "--K", 2],
    ["recover", "--grid", "{f}", "--K", 0],
    ["recover", "--grid", "{f}", "--K", -1, "--clamp"],
    ["succession", "dirichlet", "--psi", "{f}", "--draw", "{f}"],
    ["succession", "bivbin-dirichlet", "--psi", "{f}", "--K", 2, "--n1", 1, "--n2", 1],
    ["succession", "poisson-bivbin", "--coin", "{f}", "--rate", 1, "--n1", 1, "--n2", 0],
]


class TestMalformedCorpus:
    """Every failure is a documented exit code: no input makes ``main`` raise."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_every_command_exits_with_a_documented_code(self, tmp_path, monkeypatch, capsys, name):
        doc = CORPUS[name]
        path = tmp_path / "input.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        for argv in CORPUS_COMMANDS:
            code = run(*(str(path) if a == "{f}" else a for a in argv))
            assert code in (0, 2, 3, 4, 5), argv
