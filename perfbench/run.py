"""Benchmark of bitoss: exact grids, EM fits and the command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_exact --seed 1 --seconds 40 --trace 0

Each run imports bitoss from ``src/``, sets its workload up several times
(``setup_s`` is the median), then repeats whole rounds of the workload's
operations, one at a time, until ``--seconds`` of wall time have passed.
Every operation's output is checked against the benchmark's own
computations after the timed region.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run sets up once more with the layers wrapped, runs one untraced round,
then traced rounds, and reports per-layer busy/self times and counts, the
round times with and without tracing, and writes every span to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import workloads  # noqa: E402
from harness import Context, import_bitoss, judge, run_rounds  # noqa: E402
from tracer import Tracer  # noqa: E402

# Set-up is repeated and its median reported, so one slow import or a cold
# bytecode cache on the first repeat does not decide the figure.
SETUP_REPEATS = 9


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def latencies(attempts) -> dict:
    """Each operation's latencies, by operation name, in round order."""
    by_op: dict = {}
    for a in attempts:
        by_op.setdefault(a.op.name, []).append(a.seconds)
    return by_op


def summarise(attempts, problems) -> None:
    """Per-operation medians and failures, on standard error."""
    for name, secs in latencies(attempts).items():
        note = ""
        if name in problems:
            note = f"  FAILED ({problems[name][0]}): {problems[name][1][:160]}"
        print(f"  {name:48s} n={len(secs):3d} p50={statistics.median(secs) * 1e3:10.2f} ms{note}",
              file=sys.stderr)


def end_to_end(attempts, setup_times, rss) -> dict:
    """End-to-end metrics from each operation's median latency.

    A round mixes operations of very different cost, so a median over all
    attempts jumps from one operation to another between runs, and a mean
    takes in every stall of a shared machine.  Each operation's median over
    the run's rounds drops such stalls.  ``ops_per_s`` is the round's
    operations over the sum of their medians; ``op_p50_ms`` is the
    geometric mean of the medians, so every operation weighs the same.
    """
    medians = [statistics.median(secs) for secs in latencies(attempts).values()]
    return {
        "ops_per_s": {"value": len(medians) / sum(medians), "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.geometric_mean(medians) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def traced_run(ctx, prepare, seconds, reference, meta):
    """Traced set-up, one untraced round, then traced rounds."""
    tracer = Tracer()
    start = time.perf_counter()

    def traced(fn):
        layers.install(tracer, ctx.m)
        ctx.tracer = tracer
        try:
            return fn()
        finally:
            tracer.restore()
            ctx.tracer = None

    prepared = traced(lambda: prepare(ctx))
    raw = {"setup": tracer.take(), "rounds": []}
    setup_stats = layers.metrics(raw["setup"])
    attempts = run_rounds(prepared.ops, 0, reference)
    untraced_s = sum(a.seconds for a in attempts)
    rounds = []
    spans_seen = [len(tracer.spans)]

    def on_round(round_attempts):
        raw["rounds"].append(tracer.take())
        vals = layers.metrics(raw["rounds"][-1])
        # in-process cli.main runs only in traced rounds, so it is not overhead
        vals["trace.traced_round_s"] = sum(a.seconds for a in round_attempts) - vals["cli.main_s"]
        vals["trace.spans"] = len(tracer.spans) - spans_seen[-1]
        spans_seen.append(len(tracer.spans))
        rounds.append(vals)

    remaining = max(0.0, seconds - (time.perf_counter() - start))
    attempts += traced(lambda: run_rounds(
        prepared.ops, remaining, reference,
        around=lambda op: tracer.span("op:" + op.name), on_round=on_round))
    metrics = {}
    for name, unit, _, _ in layers.PER_LAYER:
        if name in setup_stats:
            value = setup_stats[name] + statistics.median(r[name] for r in rounds)
            metrics[name] = {"value": value, "unit": unit}
    traced_s = statistics.median(r["trace.traced_round_s"] for r in rounds)
    metrics["trace.untraced_round_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.traced_round_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s, "unit": "ratio"}
    metrics["trace.spans"] = {"value": statistics.median(r["trace.spans"] for r in rounds),
                              "unit": "count"}
    tracer.dump(OUT_DIR / f"spans-{meta['workload']}-seed{meta['seed']}.json",
                dict(meta, layer_totals=raw))
    return prepared, attempts, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "bitoss" / "__init__.py").is_file():
        print(f"perfbench: no bitoss package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(exist_ok=True)
    prepare = workloads.WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = Context(import_bitoss(), f"{args.workload}:{args.seed}")
        prepared = prepare(ctx)
        setup_times.append(time.perf_counter() - t0)
    if not Path(ctx.m.kernel.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: bitoss imported from {ctx.m.kernel.__file__}, not {src}",
              file=sys.stderr)
        return 2

    reference: dict = {}
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    if args.trace:
        prepared, attempts, metrics = traced_run(ctx, prepare, args.seconds, reference, meta)
    else:
        attempts = run_rounds(prepared.ops, args.seconds, reference)
        metrics = end_to_end(attempts, setup_times, peak_rss_mb(prepared.rss_who))

    failed, correct, problems = judge(attempts, reference, prepared.ops)
    for name, fn in prepared.setup_checks:
        try:
            fn()
        except Exception:
            correct = False
            print(f"perfbench: set-up check {name} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
    summarise(attempts, problems)
    result = {"correct": correct, "attempted": len(attempts), "failed": failed, "metrics": metrics}
    line = json.dumps(result, sort_keys=True)
    result_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
