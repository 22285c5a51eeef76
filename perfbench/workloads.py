"""The three workloads: exact grids, EM fits and the command line.

Each workload's ``prepare(ctx)`` is its set-up: it draws the inputs from the
run's seed, warms what needs warming and returns the operations of one
round.  Operations call bitoss through module attributes at call time, so
the traced run sees them.
"""

from __future__ import annotations

import io
import json
import os
import resource
import shutil
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction as F
from functools import partial
from itertools import product
from pathlib import Path

import oracles as O
from harness import CheckFailed, KnownFault, Op, Prepared

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORK_DIR = BENCH_DIR / "out" / "cli-work"

# The README worked coin and the second coin of the README 1/3 - 2/3 mixture
# (scripts/em_mixture_demo.py), with the demo's data seed.
README_COIN = {(0, 0): F(3, 8), (0, 1): F(5, 12), (1, 0): F(1, 12), (1, 1): F(1, 8)}
MIXTURE_COIN = {(0, 0): F(1, 10), (0, 1): F(1, 10), (1, 0): F(1, 5), (1, 1): F(3, 5)}
MIXTURE_WEIGHTS = (F(1, 3), F(2, 3))
DATA_SEED = 42
DATA_SIZE = 1000

EM_ITERATIONS = 10
# Observed KL rises of the clamped moment projection are either >= 3.5 nats
# or <= 2e-8 (rounding); anything above this counts as a rise.
KL_RISE_TOL = 1e-6
KL_MATCH_TOL = 1e-9


def readme_mixture(tosses: int) -> list:
    """The README mixture grid in float mode, summed in the order bitoss's
    ``push`` sums it, so sampling it reproduces the demo's data."""
    g0 = O.exact_grid(README_COIN, tosses)
    g1 = O.exact_grid(MIXTURE_COIN, tosses)
    w0, w1 = (float(w) for w in MIXTURE_WEIGHTS)
    cells = sorted(set(g0) | set(g1))
    return [(c, w0 * float(g0.get(c, 0)) + w1 * float(g1.get(c, 0))) for c in cells]


def check_em_records(counts: dict, tosses: int, floor: float, records: list) -> None:
    """EM checks on ``(kl, mixture weights, coins)`` records.

    Every reported KL must match a recomputation from the record's state;
    a KL that rises between records is the known fault of the clamped
    moment projection.
    """
    if len(records) != EM_ITERATIONS + 1:
        raise CheckFailed(f"{len(records)} records, expected {EM_ITERATIONS + 1}")
    kls = []
    for i, (kl, mixture, coins) in enumerate(records):
        mine = O.em_divergence(counts, mixture, coins, tosses, floor)
        if abs(mine - kl) > KL_MATCH_TOL * max(1.0, kl):
            raise CheckFailed(f"record {i} reports KL {kl!r}, recomputed {mine!r}")
        kls.append(kl)
    rises = [(i, a, b) for i, (a, b) in enumerate(zip(kls, kls[1:])) if b > a + KL_RISE_TOL]
    if rises:
        i, a, b = rises[0]
        raise KnownFault(f"KL rose from {a:.6g} to {b:.6g} after record {i} "
                         f"({len(rises)} rises; final KL {kls[-1]:.6g})")


# ---------------------------------------------------------------------------
# grid_exact
# ---------------------------------------------------------------------------

GRID_TOSSES = (15, 30, 60)
THREE_COIN_TOSSES = 8
PRODUCT_MARGINALS = (F(3, 13), F(8, 13))
ZERO_FACE_COIN = {(0, 0): F(7, 31), (0, 1): F(0), (1, 0): F(11, 31), (1, 1): F(13, 31)}
THREE_COIN_WEIGHTS = ((3, 5, 2, 7, 1, 4, 6, 9), (9, 6, 4, 1, 7, 2, 5, 3))  # over 37


def symmetric_image(coin: dict, rng) -> dict:
    """The coin under a random symmetry of the cube of faces: coordinates
    permuted and bits flipped.  The grid is the same grid mirrored, so its
    exact arithmetic costs the same and the seed moves inputs, not cost."""
    dim = len(next(iter(coin)))
    order = rng.sample(range(dim), dim)
    flips = [rng.randrange(2) for _ in range(dim)]
    return {tuple(face[i] ^ flips[i] for i in order): w for face, w in coin.items()}


def _grid_and_recover(b, tosses, coin):
    grid = b.bivbin(tosses, coin)
    return grid, b.recover_coin(grid, tosses)


def _functorial(b, tosses, coin):
    return b.mvbin_functorial(tosses, coin)


def _check_marginals(cells: dict, coin: dict, tosses: int) -> None:
    dim = len(next(iter(coin)))
    for i, got in enumerate(O.marginals(cells, dim)):
        if got != O.exact_binomial(tosses, O.coin_marginal(coin, i)):
            raise CheckFailed(f"marginal {i} is not the exact binomial")


def _check_grid_cells(grid, coin: dict, tosses: int, dim: int) -> None:
    if (grid.tosses, grid.n_dim, grid.dist.mode) != (tosses, dim, "rational"):
        raise CheckFailed(f"grid is K={grid.tosses} N={grid.n_dim} {grid.dist.mode}")
    cells = dict(grid.dist.items())
    expected = O.exact_grid(coin, tosses)
    if cells != expected:
        bad = sum(1 for c in set(cells) | set(expected) if cells.get(c) != expected.get(c))
        raise CheckFailed(f"{bad} of {len(expected)} cells differ from the {tosses}-fold convolution")
    _check_marginals(cells, coin, tosses)


def _check_two_coin(coin: dict, tosses: int, out) -> None:
    grid, recovered = out
    _check_grid_cells(grid, coin, tosses, 2)
    if dict(recovered.dist.items()) != {f: w for f, w in coin.items() if w}:
        raise CheckFailed(f"recover_coin gave {recovered.dist!r}")


def _check_three_coin(coin: dict, tosses: int, grid) -> None:
    _check_grid_cells(grid, coin, tosses, 3)


def prepare_grid_exact(ctx) -> Prepared:
    """Two-coin grids at K = 15/30/60, each followed by recover_coin, and
    three-coin grids through the functorial path."""
    rng = ctx.rng()
    b, k = ctx.m.binomials, ctx.m.kernel
    pa, pb = PRODUCT_MARGINALS
    product_coin = {(x, y): (pa if x else 1 - pa) * (pb if y else 1 - pb) for x, y in O.FACES2}
    coins = {
        "readme": README_COIN,
        "mixture": MIXTURE_COIN,
        "product": symmetric_image(product_coin, rng),
        "zero-face": symmetric_image(ZERO_FACE_COIN, rng),
    }
    ops = []
    for name, coin in coins.items():
        bcoin = b.two_coin(*(coin[f] for f in O.FACES2))
        for tosses in GRID_TOSSES:
            ops.append(Op(f"bivbin+recover {name} K={tosses}",
                          partial(_grid_and_recover, b, tosses, bcoin),
                          partial(_check_two_coin, coin, tosses)))
    faces3 = list(product((0, 1), repeat=3))
    for i, weights in enumerate(THREE_COIN_WEIGHTS):
        coin3 = symmetric_image({f: F(w, 37) for f, w in zip(faces3, weights)}, rng)
        bcoin3 = b.Coin(3, k.Dist(coin3))
        ops.append(Op(f"mvbin_functorial 3-coin#{i} K={THREE_COIN_TOSSES}",
                      partial(_functorial, b, THREE_COIN_TOSSES, bcoin3),
                      partial(_check_three_coin, coin3, THREE_COIN_TOSSES)))
    rng.shuffle(ops)
    return Prepared(ops)


# ---------------------------------------------------------------------------
# em
# ---------------------------------------------------------------------------

# (K, classes, init seed): init seeds run consecutively from 0.  There is no
# K=30 C=4 fit: at about 6 s it would leave two or three rounds in a run, too
# few for the per-operation medians to drop the machine's stalls.
EM_FITS = [(15, 2, s) for s in range(6)] + [(15, 4, s) for s in range(2)] + [(30, 2, 0)]


def _em_fit(e, data, classes, tosses, seed):
    return e.em_run(data, classes, tosses, EM_ITERATIONS, seed)


def _check_em_trace(counts: dict, tosses: int, floor: float, trace) -> None:
    check_em_records(counts, tosses, floor, [
        (r.divergence, [w for _, w in r.state.mixture.items()],
         [dict(c.items()) for c in r.state.coins])
        for r in trace.records
    ])


def _check_sample(data, mixture: list) -> None:
    if dict(data.items()) != O.sample_counts(mixture, DATA_SIZE, DATA_SEED):
        raise CheckFailed("bitoss sample differs from the README sampler")


def prepare_em(ctx) -> Prepared:
    """10-iteration EM fits on data sampled from the README mixture."""
    rng = ctx.rng()
    e, k = ctx.m.em, ctx.m.kernel
    floor = e.EMConfig().floor
    samples, checks = {}, []
    for tosses in sorted({t for t, _, _ in EM_FITS}):
        mixture = readme_mixture(tosses)
        samples[tosses] = k.sample(k.Dist(mixture, mode=k.FLOAT), DATA_SIZE, DATA_SEED)
        checks.append((f"data K={tosses}", partial(_check_sample, samples[tosses], mixture)))
    ops = [Op(f"em_run K={t} C={c} seed={s}",
              partial(_em_fit, e, samples[t], c, t, s),
              partial(_check_em_trace, dict(samples[t].items()), t, floor))
           for t, c, s in EM_FITS]
    rng.shuffle(ops)
    return Prepared(ops, checks)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _point_json(p) -> list:
    return list(p) if isinstance(p, tuple) else [p]


def _point(obj):
    return obj[0] if len(obj) == 1 else tuple(obj)


def dist_json(dist: dict) -> dict:
    exact = all(isinstance(v, F) for v in dist.values())
    entries = []
    for p, v in sorted(dist.items()):
        if exact:
            entries.append({"point": _point_json(p), "num": v.numerator, "den": v.denominator})
        else:
            entries.append({"point": _point_json(p), "p": v})
    return {"mode": "rational" if exact else "float", "entries": entries}


def multiset_json(counts: dict) -> dict:
    return {"entries": [{"point": _point_json(p), "mult": m} for p, m in sorted(counts.items()) if m]}


def parse_dist(doc) -> dict:
    if doc["mode"] == "rational":
        return {_point(e["point"]): F(e["num"], e["den"]) for e in doc["entries"]}
    return {_point(e["point"]): e["p"] for e in doc["entries"]}


def parse_multiset(doc) -> dict:
    return {_point(e["point"]): e["mult"] for e in doc["entries"]}


def _exit_ok(out) -> None:
    rc, _, stderr, _ = out
    if rc != 0:
        raise CheckFailed(f"exit {rc}: {stderr.decode(errors='replace')[-300:]}")


def _file(out, name: str):
    return json.loads(dict(out[3])[name])


def _stdout(out):
    return json.loads(out[1])


def _in_process_main(cli, argv) -> None:
    """``cli.main`` on the same argv, in the work directory."""
    cwd = os.getcwd()
    os.chdir(WORK_DIR)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(argv)
    except Exception:  # the subprocess run is the one that is checked
        pass
    finally:
        os.chdir(cwd)


def _cli_op(ctx, env, name, argv, outputs, check) -> Op:
    def before():
        for f in outputs:
            (WORK_DIR / f).unlink(missing_ok=True)

    def run():
        tracer = ctx.tracer
        with tracer.span("cli.process") if tracer else nullcontext():
            proc = subprocess.run([sys.executable, "-m", "bitoss", *argv],
                                  cwd=WORK_DIR, env=env, capture_output=True)
        if tracer:
            with tracer.span("cli.main"):
                _in_process_main(ctx.m.cli, argv)
        return proc

    def finish(proc):
        files = tuple((f, (WORK_DIR / f).read_bytes() if (WORK_DIR / f).exists() else None)
                      for f in outputs)
        return proc.returncode, proc.stdout, proc.stderr, files

    return Op(name, run, check, before, finish)


CLI_RATIONAL_COIN = {(0, 0): F(7, 29), (0, 1): F(5, 29), (1, 0): F(6, 29), (1, 1): F(11, 29)}


def prepare_cli(ctx) -> Prepared:
    """The README commands, each as its own ``python -m bitoss`` process."""
    rng = ctx.rng()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))

    coin_r = symmetric_image(CLI_RATIONAL_COIN, rng)
    raw = [rng.uniform(0.5, 1.5) for _ in O.FACES2]
    coin_f = {f: r / sum(raw) for f, r in zip(O.FACES2, raw)}
    coin_1d = {0: 0.7, 1: 0.3}  # fixed: the K=2000 run fails for every coin
    psi2 = {f: rng.randint(1, 5) for f in O.FACES2}
    psi_d = {p: rng.randint(1, 4) for p in (0, 1, 2)}
    draw_d = {p: rng.randint(0, 5) for p in (0, 1, 2)}
    data15 = O.sample_counts(readme_mixture(15), DATA_SIZE, DATA_SEED)
    files = {"coin_r.json": dist_json(coin_r), "coin_f.json": dist_json(coin_f),
             "coin_1d.json": dist_json(coin_1d), "psi2.json": multiset_json(psi2),
             "psi_d.json": multiset_json(psi_d), "draw_d.json": multiset_json(draw_d),
             "data.json": multiset_json(data15)}
    for name, doc in files.items():
        (WORK_DIR / name).write_text(json.dumps(doc))
    seed_r, seed_f = rng.randrange(1 << 32), rng.randrange(1 << 32)
    alpha, beta, beta_k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(5, 20)
    beta_n = rng.randint(0, beta_k)
    bd_n1, bd_n2 = rng.randint(0, 20), rng.randint(0, 20)
    det_r, det_rate = rng.choice((0.2, 0.25, 0.5, 0.75, 0.9)), round(rng.uniform(1, 5), 3)
    det_n = rng.randint(0, 10)
    pb_rate, pb_n1, pb_n2 = round(rng.uniform(1, 4), 3), rng.randint(0, 6), rng.randint(0, 6)
    floor = ctx.m.em.EMConfig().floor
    first: dict = {}  # op name -> its checked output, for checks that read another op's files

    def remember(name, check):
        def checked(out):
            first[name] = out
            check(out)
        return checked

    def check_grid_r(out):
        _exit_ok(out)
        doc = _file(out, "grid_r.json")
        if (doc["K"], doc["N"], doc["mode"]) != (30, 2, "rational"):
            raise CheckFailed("grid header")
        if parse_dist(doc) != O.exact_grid(coin_r, 30):
            raise CheckFailed("rational grid differs from the convolution")

    def check_grid_f(out):
        _exit_ok(out)
        doc = _file(out, "grid_f.json")
        cells = parse_dist(doc)
        expected = O.float_grid(coin_f, 40)
        if (doc["K"], doc["N"]) != (40, 2) or set(cells) != set(expected):
            raise CheckFailed("float grid header or support")
        bad = [c for c in expected if not O.close(cells[c], expected[c])]
        if bad:
            raise CheckFailed(f"{len(bad)} float cells differ from the convolution, e.g. {bad[0]}")
        rows = dict(out[3])["grid_f.csv"].decode().splitlines()
        csv = [[float(v) for v in row.split(",")] for row in rows]
        if csv != [[cells.get((i, j), 0.0) for j in range(41)] for i in range(41)]:
            raise CheckFailed("CSV differs from the grid JSON")

    def check_sample(grid_op, grid_file, sample_file, seed, out):
        _exit_ok(out)
        grid = parse_dist(_file(first[grid_op], grid_file))
        if parse_multiset(_file(out, sample_file)) != O.sample_counts(list(grid.items()), 20000, seed):
            raise CheckFailed("sample differs from the README sampler")

    def check_em(out):
        _exit_ok(out)
        doc = _file(out, "trace.json")
        records = [(r["kl"], [v for _, v in sorted(parse_dist(r["state"]["mixture"]).items())],
                    [parse_dist(c) for c in r["state"]["coins"]]) for r in doc["records"]]
        csv = dict(out[3])["trace.csv"].decode().splitlines()
        if csv[1:] != [f"{r['iteration']},{r['kl']!r}" for r in doc["records"]]:
            raise CheckFailed("trace CSV differs from the trace JSON")
        if _file(out, "state.json") != doc["records"][-1]["state"]:
            raise CheckFailed("final state differs from the last trace record")
        check_em_records(data15, 15, floor, records)

    def check_recover_r(out):
        _exit_ok(out)
        doc = _stdout(out)
        if parse_dist(doc) != {f: w for f, w in coin_r.items() if w} or doc["clamped"]:
            raise CheckFailed(f"recovered {doc}")

    def check_recover_f(out):
        _exit_ok(out)
        got = parse_dist(_stdout(out))
        if any(abs(got.get(f, 0.0) - w) > 1e-9 for f, w in coin_f.items()):
            raise CheckFailed(f"recovered {got}")

    def check_mean(expect, out):
        _exit_ok(out)
        mean = _stdout(out)["mean"]
        expected = expect()
        if isinstance(expected, F):
            ok = mean == f"{expected.numerator}/{expected.denominator}"
        elif isinstance(expected, dict):
            ok = parse_dist(mean) == expected
        else:
            ok = O.close(mean, expected, rel=1e-9)
        if not ok:
            raise CheckFailed(f"mean {mean!r}, expected {expected!r}")

    def check_wide_binomial(out):
        rc, _, stderr, _ = out
        if rc != 0:
            if b"OverflowError" in stderr:
                raise KnownFault("exit 1 with OverflowError: float(math.comb) in coerce_scalar")
            _exit_ok(out)
        cells = parse_dist(_file(out, "grid_1d.json"))
        bad = [n for n in range(2001)
               if not O.close(cells.get(n, 0.0), O.log_binomial_pmf(2000, coin_1d[1], n),
                              rel=1e-9, abs_tol=1e-290)]
        if bad:
            raise CheckFailed(f"{len(bad)} cells differ from the log-space binomial")

    em_argv = ["em", "--data", "data.json", "--K", "15", "--classes", "2",
               "--iters", str(EM_ITERATIONS), "--seed", "5", "--out", "state.json",
               "--trace", "trace.csv", "--trace-json", "trace.json"]
    specs = [  # (name, argv, output files, check)
        ("bivbin rational K=30",
         ["bivbin", "--coin", "coin_r.json", "--K", "30", "--out", "grid_r.json"],
         ["grid_r.json"], check_grid_r),
        ("bivbin float K=40 --csv",
         ["bivbin", "--coin", "coin_f.json", "--K", "40", "--out", "grid_f.json",
          "--csv", "grid_f.csv"],
         ["grid_f.json", "grid_f.csv"], check_grid_f),
        ("sample rational n=20000",
         ["sample", "--dist", "grid_r.json", "--n", "20000", "--seed", str(seed_r),
          "--out", "sample_r.json"],
         ["sample_r.json"],
         partial(check_sample, "bivbin rational K=30", "grid_r.json", "sample_r.json", seed_r)),
        ("sample float n=20000",
         ["sample", "--dist", "grid_f.json", "--n", "20000", "--seed", str(seed_f),
          "--out", "sample_f.json"],
         ["sample_f.json"],
         partial(check_sample, "bivbin float K=40 --csv", "grid_f.json", "sample_f.json", seed_f)),
        ("em K=15 C=2 seed=5", em_argv, ["state.json", "trace.csv", "trace.json"], check_em),
        ("recover rational K=30", ["recover", "--grid", "grid_r.json", "--K", "30"], [],
         check_recover_r),
        ("recover float K=40", ["recover", "--grid", "grid_f.json", "--K", "40"], [],
         check_recover_f),
        ("succession beta",
         ["succession", "beta", "--alpha", str(alpha), "--beta", str(beta),
          "--K", str(beta_k), "--n", str(beta_n)], [],
         partial(check_mean, partial(O.beta_mean, alpha, beta, beta_k, beta_n))),
        ("succession dirichlet",
         ["succession", "dirichlet", "--psi", "psi_d.json", "--draw", "draw_d.json"], [],
         partial(check_mean, partial(O.dirichlet_mean, psi_d, draw_d))),
        ("succession bivbin-dirichlet",
         ["succession", "bivbin-dirichlet", "--psi", "psi2.json", "--K", "20",
          "--n1", str(bd_n1), "--n2", str(bd_n2)], [],
         partial(check_mean, partial(O.bivbin_dirichlet_formula, psi2, 20, bd_n1, bd_n2))),
        ("succession poisson-binomial",
         ["succession", "poisson-binomial", "--r", repr(det_r), "--rate", repr(det_rate),
          "--n", str(det_n)], [],
         partial(check_mean, partial(O.poisson_binomial_mean, det_r, det_rate, det_n))),
        ("succession poisson-bivbin",
         ["succession", "poisson-bivbin", "--coin", "coin_f.json", "--rate", repr(pb_rate),
          "--n1", str(pb_n1), "--n2", str(pb_n2)], [],
         partial(check_mean,
                 partial(O.poisson_bivbin_truncated, coin_f, pb_rate, pb_n1, pb_n2, 200))),
        ("bivbin 1-d float K=2000",
         ["bivbin", "--coin", "coin_1d.json", "--K", "2000", "--out", "grid_1d.json"],
         ["grid_1d.json"], check_wide_binomial),
    ]
    ops = [_cli_op(ctx, env, name, argv, outputs, remember(name, check))
           for name, argv, outputs, check in specs]
    # Compile bitoss's bytecode now, so that no timed process compiles it.
    subprocess.run([sys.executable, "-m", "bitoss", "--help"], cwd=WORK_DIR, env=env,
                   capture_output=True, check=True)
    return Prepared(ops, rss_who=resource.RUSAGE_CHILDREN)


WORKLOADS = {"grid_exact": prepare_grid_exact, "em": prepare_em, "cli": prepare_cli}
