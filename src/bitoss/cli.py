"""Command-line surface.

Subcommands: ``bivbin`` (build a count grid from a coin file), ``sample``
(draw a multiset from a distribution file), ``em`` (fit a mixture of
bivariate binomials to a data multiset), ``succession`` (closed-form
posterior means), and ``recover`` (read a two-coin off grid moments).

Every run is a pure function of its flags and input files; seeds are
explicit, so outputs are byte-identical across repeated invocations.

Exit codes (:data:`EXIT_CODES`): 0 success, 3 ``ResourceLimit``, 4
``SupportMismatch`` or ``DomainMismatch``, 5 ``Infeasible`` moments, and 2
for any other ``BitossError``: usage or malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import binomials, em, serialize, succession
from .kernel import (
    BitossError,
    Dist,
    DomainMismatch,
    Infeasible,
    ResourceLimit,
    SupportMismatch,
    point_coords,
    sample as kernel_sample,
)

EXIT_OK = 0
EXIT_USAGE = 2
# a BitossError exits with the code of the first class of its MRO listed here,
# and with EXIT_USAGE if none is
EXIT_CODES = {ResourceLimit: 3, SupportMismatch: 4, DomainMismatch: 4, Infeasible: 5}


class UsageError(BitossError):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write_all(outputs: list[tuple[str, str]]) -> None:
    """Write all ``(path, text)`` outputs or none: each goes to a temporary file
    beside its path, which replaces the path once every one is written.  Two
    outputs that resolve to one file are refused before anything is written."""
    named: dict = {}
    for path, _ in outputs:
        target = os.path.realpath(path)
        if target in named:
            raise UsageError(f"outputs {named[target]} and {path} name the same file")
        named[target] = path
    temps = [Path(f"{path}.{os.getpid()}.tmp") for path, _ in outputs]
    try:
        for (path, text), tmp in zip(outputs, temps):
            if Path(path).is_dir():
                raise IsADirectoryError("is a directory")
            tmp.write_text(text)
        for (path, _), tmp in zip(outputs, temps):
            tmp.replace(path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp in filter(Path.exists, temps):
            tmp.unlink()


def _coin_from_file(path: str, expect_dim: int | None = None) -> binomials.Coin:
    dist = serialize.dist_from_json(_load_json(path))
    n_dim = len(point_coords(dist.support()[0]))
    if expect_dim is not None and n_dim != expect_dim:
        raise UsageError(f"coin in {path} has dimension {n_dim}, expected {expect_dim}")
    return binomials.Coin(n_dim, dist)


def _rational_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _mean_json(rule: str, mean) -> str:
    if isinstance(mean, Fraction):
        body = _rational_str(mean)
    elif isinstance(mean, Dist):
        body = serialize.dist_to_json(mean)
    else:
        body = float(mean)
    return serialize.dumps({"rule": rule, "mean": body})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_bivbin(args) -> int:
    coin = _coin_from_file(args.coin, args.n)
    if args.csv and coin.n_dim != 2:
        raise UsageError("--csv needs a two-dimensional grid")
    grid = binomials.bivbin(args.K, coin)
    outputs = [(args.out, serialize.dumps(serialize.grid_to_json(grid)))]
    if args.csv:
        outputs.append((args.csv, serialize.grid_to_csv(grid)))
    _write_all(outputs)
    return EXIT_OK


def cmd_sample(args) -> int:
    dist = serialize.dist_from_json(_load_json(args.dist))
    drawn = kernel_sample(dist, args.n, args.seed)
    _write_all([(args.out, serialize.dumps(serialize.multiset_to_json(drawn)))])
    return EXIT_OK


def cmd_em(args) -> int:
    data = serialize.multiset_from_json(_load_json(args.data))
    trace = em.em_run(data, args.classes, args.K, args.iters, args.seed)
    state = serialize.dumps(serialize.emstate_to_json(trace.final_state))
    outputs = [(args.out, state), (args.trace, serialize.trace_to_csv(trace))]
    if args.trace_json:
        outputs.append((args.trace_json, serialize.dumps(serialize.trace_to_json(trace))))
    _write_all(outputs)
    return EXIT_OK


def cmd_recover(args) -> int:
    grid = serialize.grid_from_json(_load_json(args.grid))
    coin = binomials.recover_coin(grid, args.K, infeasible="clamp" if args.clamp else "error")
    doc = serialize.dist_to_json(coin.dist)
    doc["clamped"] = bool(args.clamp)
    sys.stdout.write(serialize.dumps(doc))
    return EXIT_OK


def cmd_succession(args) -> int:
    rule = args.rule
    if rule == "beta":
        mean = succession.beta_succession_mean(
            succession.BetaParams(args.alpha, args.beta), args.K, args.n
        )
    elif rule == "dirichlet":
        psi = serialize.multiset_from_json(_load_json(args.psi))
        draw = serialize.multiset_from_json(_load_json(args.draw))
        mean = succession.dirichlet_succession_mean(succession.DirichletParams(psi), draw)
    elif rule == "bivbin-dirichlet":
        psi = serialize.multiset_from_json(_load_json(args.psi))
        mean = succession.bivbin_dirichlet_mean(
            succession.DirichletParams(psi), args.K, args.n1, args.n2
        )
    elif rule == "poisson-binomial":
        mean = succession.binomial_poisson_mean(args.r, args.rate, args.n)
    elif rule == "poisson-bivbin":
        coin = _coin_from_file(args.coin)
        mean = succession.bivbin_poisson_mean(coin, args.rate, args.n1, args.n2)
    sys.stdout.write(_mean_json(rule, mean))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitoss",
        description="Bivariate binomial distributions: grids, sampling, EM, succession rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bivbin", help="build a count grid from a coin file")
    p.add_argument("--coin", required=True, help="coin distribution JSON")
    p.add_argument("--K", required=True, type=int, help="number of tosses")
    p.add_argument("--n", type=int, default=None, help="expected coin dimension")
    p.add_argument("--out", required=True, help="grid JSON output path")
    p.add_argument("--csv", default=None, help="optional CSV surface output path")
    p.set_defaults(func=cmd_bivbin)

    p = sub.add_parser("sample", help="draw a multiset from a distribution file")
    p.add_argument("--dist", required=True, help="distribution JSON")
    p.add_argument("--n", required=True, type=int, help="sample size")
    p.add_argument("--seed", required=True, type=int, help="64-bit seed")
    p.add_argument("--out", required=True, help="multiset JSON output path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("em", help="fit a mixture of bivariate binomials")
    p.add_argument("--data", required=True, help="data multiset JSON")
    p.add_argument("--K", required=True, type=int, help="number of tosses")
    p.add_argument("--classes", required=True, type=int, help="mixture size")
    p.add_argument("--iters", required=True, type=int, help="iteration count")
    p.add_argument("--seed", required=True, type=int, help="init seed")
    p.add_argument("--out", required=True, help="final state JSON output path")
    p.add_argument("--trace", required=True, help="divergence trace CSV output path")
    p.add_argument("--trace-json", default=None, help="optional full trace JSON path")
    p.set_defaults(func=cmd_em)

    p = sub.add_parser("recover", help="read a two-coin off grid moments")
    p.add_argument("--grid", required=True, help="grid JSON")
    p.add_argument("--K", required=True, type=int, help="number of tosses")
    p.add_argument("--clamp", action="store_true", help="clamp infeasible moments")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("succession", help="closed-form posterior means")
    rules = p.add_subparsers(dest="rule", required=True)

    r = rules.add_parser("beta", help="Beta prior, binomial observations")
    r.add_argument("--alpha", required=True, type=int)
    r.add_argument("--beta", required=True, type=int)
    r.add_argument("--K", required=True, type=int)
    r.add_argument("--n", required=True, type=int)

    r = rules.add_parser("dirichlet", help="Dirichlet prior, multiset draw")
    r.add_argument("--psi", required=True, help="pseudo-count multiset JSON")
    r.add_argument("--draw", required=True, help="observed multiset JSON")

    r = rules.add_parser("bivbin-dirichlet", help="Dirichlet prior, heads pair: the paper's formula")
    r.add_argument("--psi", required=True, help="pseudo-count multiset JSON")
    r.add_argument("--K", required=True, type=int)
    r.add_argument("--n1", required=True, type=int)
    r.add_argument("--n2", required=True, type=int)

    r = rules.add_parser("poisson-binomial", help="Poisson prior, detected count")
    r.add_argument("--r", required=True, type=float, help="detection probability")
    r.add_argument("--rate", required=True, type=float, help="Poisson rate")
    r.add_argument("--n", required=True, type=int, help="detected count")

    r = rules.add_parser("poisson-bivbin", help="Poisson prior, heads pair")
    r.add_argument("--coin", required=True, help="two-coin distribution JSON")
    r.add_argument("--rate", required=True, type=float, help="Poisson rate")
    r.add_argument("--n1", required=True, type=int)
    r.add_argument("--n2", required=True, type=int)

    p.set_defaults(func=cmd_succession)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except BitossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES), EXIT_USAGE)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
