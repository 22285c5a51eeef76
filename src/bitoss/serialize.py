"""JSON and CSV encodings of the value types.

Points serialize as integer arrays (a bare integer point becomes a
one-element array); entry lists follow the deterministic sorted point
order, and :func:`dumps` fixes all formatting options, so re-serializing
the same value is byte-identical.

Schemas:

* multiset  ``{"entries": [{"point": [..], "mult": n}, ..]}``
* dist      ``{"mode": "rational"|"float", "entries": [{"point": [..],
  "num": a, "den": b} | {"point": [..], "p": x}, ..]}``
* grid      dist fields plus ``{"K": k, "N": n}``
* EM state  ``{"K": k, "mixture": {..}, "coins": [{..}, ..]}``
* EM trace  ``{"records": [{"iteration": i, "kl": x, "state": {..}}, ..]}``

Multisets, distributions and grids are read back as well as written; EM
states and traces are written only.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .binomials import GridDist
from .em import EMState, EMTrace
from .kernel import BitossError, Dist, FLOAT, Multiset, OutOfRange, RATIONAL, _is_int_point, point_coords


class FormatError(BitossError, ValueError):
    """Raised when a JSON document does not match the documented schema."""


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def point_to_json(point) -> list[int]:
    if _is_int_point(point):
        return list(point_coords(point))
    raise OutOfRange(f"only integer points serialize, got {point!r}")


def point_from_json(obj):
    # JSON true and false read as bools, which Python counts as ints
    if not isinstance(obj, list) or not obj or not _is_int_point(tuple(obj)):
        raise FormatError(f"a point must be a non-empty integer array, got {obj!r}")
    return obj[0] if len(obj) == 1 else tuple(obj)


def multiset_to_json(phi: Multiset) -> dict:
    return {
        "entries": [{"point": point_to_json(p), "mult": m} for p, m in phi.items()]
    }


def multiset_from_json(obj) -> Multiset:
    try:
        return Multiset(
            (point_from_json(e["point"]), e["mult"]) for e in obj["entries"]
        )
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"bad multiset document: {exc}") from exc


def dist_to_json(omega: Dist) -> dict:
    entries = []
    for p, v in omega.items():
        if omega.mode == RATIONAL:
            entries.append(
                {"point": point_to_json(p), "num": v.numerator, "den": v.denominator}
            )
        else:
            entries.append({"point": point_to_json(p), "p": v})
    return {"mode": omega.mode, "entries": entries}


def dist_from_json(obj) -> Dist:
    try:
        mode = obj["mode"]
        if mode not in (RATIONAL, FLOAT):
            raise FormatError(f"unknown mode {mode!r}")
        pairs = []
        for e in obj["entries"]:
            point = point_from_json(e["point"])
            if mode == RATIONAL:
                pairs.append((point, Fraction(e["num"], e["den"])))
            else:
                pairs.append((point, float(e["p"])))
        return Dist(pairs, mode=mode)
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"bad distribution document: {exc}") from exc


def grid_to_json(grid: GridDist) -> dict:
    doc = dist_to_json(grid.dist)
    doc["K"] = grid.tosses
    doc["N"] = grid.n_dim
    return doc


def grid_from_json(obj) -> GridDist:
    try:
        return GridDist(obj["K"], obj["N"], dist_from_json(obj))
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"bad grid document: {exc}") from exc


def emstate_to_json(state: EMState) -> dict:
    return {
        "K": state.tosses,
        "mixture": dist_to_json(state.mixture),
        "coins": [dist_to_json(c) for c in state.coins],
    }


def trace_to_json(trace: EMTrace) -> dict:
    return {
        "records": [
            {
                "iteration": r.iteration,
                "kl": r.divergence,
                "state": emstate_to_json(r.state),
            }
            for r in trace.records
        ]
    }


def grid_to_csv(grid: GridDist) -> str:
    """Probability matrix: row ``n1`` ascending, column ``n2`` ascending."""
    if grid.n_dim != 2:
        raise OutOfRange(f"CSV surfaces need a two-dimensional grid, got N={grid.n_dim}")
    lines = []
    for n1 in range(grid.tosses + 1):
        row = [repr(float(grid.dist((n1, n2)))) for n2 in range(grid.tosses + 1)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trace_to_csv(trace: EMTrace) -> str:
    lines = ["iteration,kl"]
    for r in trace.records:
        lines.append(f"{r.iteration},{r.divergence!r}")
    return "\n".join(lines) + "\n"
