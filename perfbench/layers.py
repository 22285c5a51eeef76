"""Which bitoss functions the traced run wraps, and the per-layer metrics.

Every wrapper sits at the module attribute through which the caller
reaches the function: ``em`` imports ``bivbin``, ``dagger``, ``push``,
``recover_coin`` and ``kl_divergence`` into its own namespace, ``cli``
imports ``sample`` as ``kernel_sample``, and modules call their own
functions through their globals.  A function reached through several
attributes shares one wrapper.
"""

from __future__ import annotations

import os

# Every per-layer metric, in report order: (name, unit, source, key).  The
# source is a Tracer.take() field ("busy" or "self" seconds, or "counts");
# metrics without one are computed by the run itself.  Lower is better for
# all of them: they are time spent or work done for the same outputs.
PER_LAYER = [
    ("kernel.dist_init_s", "s", "busy", "kernel.dist_init"),
    ("kernel.dist_init_calls", "count", "counts", "kernel.dist_init.calls"),
    ("kernel.dist_lookup_s", "s", "busy", "kernel.dist_lookup"),
    ("kernel.dist_lookup_calls", "count", "counts", "kernel.dist_lookup.calls"),
    ("kernel.sample_s", "s", "busy", "kernel.sample"),
    ("kernel.sample_draws", "count", "counts", "kernel.sample_draws"),
    ("kernel.kl_divergence_s", "s", "busy", "kernel.kl_divergence"),
    ("kernel.moments_s", "s", "busy", "kernel.moments"),
    ("kernel.enumerate_msets_s", "s", "busy", "kernel.enumerate_msets"),
    ("kernel.msets_enumerated", "count", "counts", "kernel.msets_enumerated"),
    ("channels.push_s", "s", "busy", "channels.push"),
    ("channels.push_calls", "count", "counts", "channels.push.calls"),
    ("channels.dagger_s", "s", "busy", "channels.dagger"),
    ("channels.dagger_calls", "count", "counts", "channels.dagger.calls"),
    ("channels.dagger_rows", "count", "counts", "channels.dagger_rows"),
    ("binomials.bivbin_s", "s", "busy", "binomials.bivbin"),
    ("binomials.bivbin_calls", "count", "counts", "binomials.bivbin.calls"),
    ("binomials.grid_cells", "count", "counts", "binomials.grid_cells"),
    ("binomials.mvbin_functorial_s", "s", "busy", "binomials.mvbin_functorial"),
    ("binomials.recover_coin_s", "s", "busy", "binomials.recover_coin"),
    ("em.fit_s", "s", "busy", "em.fit"),
    ("em.iterations", "count", "counts", "em.iterations"),
    ("em.self_s", "s", "self", "em.fit"),
    ("succession.query_s", "s", "busy", "succession.query"),
    ("succession.queries", "count", "counts", "succession.query.calls"),
    ("serialize.write_s", "s", "busy", "serialize.write"),
    ("serialize.bytes_written", "bytes", "counts", "serialize.bytes_written"),
    ("serialize.read_s", "s", "busy", "serialize.read"),
    ("serialize.bytes_read", "bytes", "counts", "serialize.bytes_read"),
    ("serialize.csv_s", "s", "busy", "serialize.csv"),
    ("cli.process_s", "s", "busy", "cli.process"),
    ("cli.main_s", "s", "busy", "cli.main"),
    ("cli.startup_s", "s", None, None),
    ("trace.untraced_round_s", "s", None, None),
    ("trace.traced_round_s", "s", None, None),
    ("trace.overhead_ratio", "ratio", None, None),
    ("trace.spans", "count", None, None),
]


def _sample_draws(result, args, kwargs):
    return {"kernel.sample_draws": kwargs.get("n", args[1] if len(args) > 1 else 0)}


def _msets(result, args, kwargs):
    return {"kernel.msets_enumerated": len(result)}


def _dagger_rows(result, args, kwargs):
    return {"channels.dagger_rows": len(result.domain)}


def _grid_cells(result, args, kwargs):
    return {"binomials.grid_cells": (result.tosses + 1) ** result.n_dim}


def _em_iterations(result, args, kwargs):
    return {"em.iterations": len(result.records) - 1}


def _bytes_written(result, args, kwargs):
    return {"serialize.bytes_written": len(result.encode())}


def _bytes_read(result, args, kwargs):
    return {"serialize.bytes_read": os.path.getsize(args[0])}


def install(tracer, m) -> None:
    """Wrap the bitoss layers; ``m`` holds the imported bitoss modules."""
    k, ch, b, em, s, z, cli = (
        m.kernel, m.channels, m.binomials, m.em, m.succession, m.serialize, m.cli,
    )
    tracer.patch(k.Dist, "__init__", "kernel.dist_init", leaf=True)
    tracer.patch(k.Dist, "__call__", "kernel.dist_lookup", leaf=True)
    for owner, attr in ((k, "sample"), (cli, "kernel_sample")):
        tracer.patch(owner, attr, "kernel.sample", _sample_draws)
    tracer.patch(em, "kl_divergence", "kernel.kl_divergence")
    tracer.patch(b, "moments", "kernel.moments")
    tracer.patch(b, "enumerate_msets", "kernel.enumerate_msets", _msets)
    for owner in (ch, em):
        tracer.patch(owner, "push", "channels.push")
    tracer.patch(em, "dagger", "channels.dagger", _dagger_rows)
    for owner in (b, em):
        tracer.patch(owner, "bivbin", "binomials.bivbin", _grid_cells)
        tracer.patch(owner, "recover_coin", "binomials.recover_coin")
    tracer.patch(b, "mvbin_functorial", "binomials.mvbin_functorial")
    tracer.patch(em, "em_run", "em.fit", _em_iterations)
    for attr in (
        "beta_succession_mean",
        "dirichlet_succession_mean",
        "bivbin_dirichlet_mean",
        "binomial_poisson_mean",
        "bivbin_poisson_mean",
    ):
        tracer.patch(s, attr, "succession.query")
    for attr in ("dist_to_json", "grid_to_json", "multiset_to_json", "emstate_to_json",
                 "trace_to_json"):
        tracer.patch(z, attr, "serialize.write")
    tracer.patch(z, "dumps", "serialize.write", _bytes_written)
    for attr in ("grid_to_csv", "trace_to_csv"):
        tracer.patch(z, attr, "serialize.csv", _bytes_written)
    for attr in ("dist_from_json", "grid_from_json", "multiset_from_json"):
        tracer.patch(z, attr, "serialize.read")
    tracer.patch(cli, "_load_json", "serialize.read", _bytes_read)


def metrics(stats: dict) -> dict:
    """Per-layer metric values from one :meth:`Tracer.take` snapshot (the
    ``trace.*`` ones excepted)."""
    out = {name: stats[source].get(key, 0) for name, _, source, key in PER_LAYER if source}
    out["cli.startup_s"] = out["cli.process_s"] - out["cli.main_s"]
    return out
