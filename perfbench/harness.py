"""Operations, rounds and verdicts: the part of the benchmark that does
not depend on the workload.
"""

from __future__ import annotations

import importlib
import random
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own computation."""


class KnownFault(Exception):
    """An output shows a named, known fault of the program.

    The operation counts as failed; the run stays correct, because the
    fault is the program's documented behaviour today, not a wrong answer
    the benchmark failed to notice.
    """


@dataclass
class Op:
    """One benchmark operation.

    ``run`` is the timed call.  ``before`` (untimed) prepares its files,
    ``finish`` (untimed) turns the run's value into the output that is
    compared between rounds and checked; ``check`` raises
    :class:`CheckFailed` or :class:`KnownFault`.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    before: Callable[[], None] | None = None
    finish: Callable[[object], object] | None = None


@dataclass
class Prepared:
    ops: list
    setup_checks: list = field(default_factory=list)  # (name, callable)
    rss_who: int = resource.RUSAGE_SELF


@dataclass
class Attempt:
    op: Op
    seconds: float
    error: str | None


@dataclass
class Context:
    """What a workload's set-up and operations share: the imported bitoss
    modules, the key its inputs are drawn from, and the tracer while one is
    installed."""

    m: SimpleNamespace
    seed_key: str
    tracer: object = None

    def rng(self) -> random.Random:
        """A fresh generator, so every set-up draws the same inputs."""
        return random.Random(self.seed_key)


def import_bitoss() -> SimpleNamespace:
    """(Re)import bitoss from ``src/``, so set-up pays the import."""
    for name in [n for n in sys.modules if n == "bitoss" or n.startswith("bitoss.")]:
        del sys.modules[name]
    importlib.import_module("bitoss")
    mods = {
        short: importlib.import_module(f"bitoss.{short}")
        for short in ("kernel", "channels", "binomials", "em", "succession", "serialize", "cli")
    }
    return SimpleNamespace(**mods)


def run_rounds(ops, seconds, reference, around=None, on_round=None):
    """Run whole rounds of ``ops`` for about ``seconds`` of wall time.

    Another round starts while less than half a round's time is left, so
    the run ends within half a round of ``seconds``; there is always at
    least one round.  An operation that raises is recorded as failed and
    the run goes on.  ``reference`` maps op names to the output of their
    first success; later outputs must equal it.
    """
    attempts = []
    start = time.perf_counter()
    last_round = 0.0
    while not attempts or time.perf_counter() - start + last_round / 2 < seconds:
        round_start = time.perf_counter()
        first = len(attempts)
        for op in ops:
            if op.before is not None:
                op.before()
            with around(op) if around else nullcontext():
                t0 = time.perf_counter()
                try:
                    value = op.run()
                    error = None
                except Exception as exc:  # the run must go on; the error is reported
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
            if error is None:
                try:
                    out = op.finish(value) if op.finish else value
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                else:
                    if op.name not in reference:
                        reference[op.name] = out
                    elif out != reference[op.name]:
                        error = "output differs from an earlier attempt"
            attempts.append(Attempt(op, elapsed, error))
        last_round = time.perf_counter() - round_start
        if on_round is not None:
            on_round(attempts[first:])
    return attempts


def judge(attempts, reference, ops):
    """Check each operation's reference output once and tally attempts.

    Returns ``(failed, correct, problems)``.  An attempt fails when its
    operation raised or its output fails a check.  ``correct`` turns false
    on anything but a :class:`KnownFault`.
    """
    verdict = {}
    for op in ops:
        if op.name not in reference:
            continue
        try:
            op.check(reference[op.name])
            verdict[op.name] = None
        except KnownFault as exc:
            verdict[op.name] = ("known fault", str(exc))
        except Exception as exc:
            verdict[op.name] = ("wrong", f"{type(exc).__name__}: {exc}")
    failed = 0
    correct = True
    problems = {}
    for a in attempts:
        if a.error is not None:
            failed += 1
            correct = False
            problems.setdefault(a.op.name, ("error", a.error))
        elif verdict[a.op.name] is not None:
            failed += 1
            kind, msg = verdict[a.op.name]
            correct = correct and kind == "known fault"
            problems.setdefault(a.op.name, (kind, msg))
    return failed, correct, problems
