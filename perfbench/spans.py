"""Spans around the public functions of each unitcodes layer.

`install` replaces each function with a wrapper on the name its caller
looks up at call time, so a call through any module-level alias is
recorded. Every span carries a name, start and end times, the id of the
span that was open when it started, and an instance id: the (n, m, r)
of the enclosing `verify.check_instance`, or the argv label of the
enclosing `cli.run`. Spans stay in memory until the run writes them out.

`layer_metrics` turns a span list into the per-layer figures the
benchmark reports.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None,
             label: Optional[Callable] = None) -> Callable:
        """`note(args, result)` returns extra fields for the span;
        `label(args)` gives the span a fresh instance id."""

        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            if label is not None:
                instance = label(args)
            else:
                instance = parent["instance"] if parent else ""
            span = {"id": len(self.spans) + len(self._open), "name": name,
                    "parent": parent["id"] if parent else None, "instance": instance}
            self._open.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                self.spans.append(span)
            if note is not None:
                span.update(note(args, result))
            return result

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the layer functions that `unitcodes verify` reaches."""
    from unitcodes import cli, codes, gfmatrix, graphs, rings, verify

    def patch(owners, attr: str, name: str, note=None, label=None) -> None:
        wrapped = tracer.wrap(name, getattr(owners[0], attr), note, label)
        for owner in owners:
            setattr(owner, attr, wrapped)

    # verify binds `classify` by `from .rings import`; graphs binds scipy's maximum_flow
    patch([rings, verify], "classify", "rings.classify")
    patch([graphs], "build", "graphs.build",
          note=lambda args, g: {"edges": g.num_edges})
    for attr in ("invariants", "shortest_cycle", "girth", "edge_connectivity",
                 "edge_count_formula", "incidence_matrix", "maximum_flow"):
        patch([graphs], attr, f"graphs.{attr}")
    patch([gfmatrix.GfMatrix], "rank", "gfmatrix.rank",
          note=lambda args, _: {"entries": args[0].rows * args[0].cols})
    for attr in ("rref", "nullspace", "columns_dependent", "row_space_basis"):
        patch([gfmatrix.GfMatrix], attr, f"gfmatrix.{attr}")
    for attr in ("from_incidence", "predict", "dual_dimension"):
        patch([codes], attr, f"codes.{attr}")
    patch([codes], "min_distance_exact", "codes.min_distance_exact", note=_enumeration_note)
    patch([codes], "dual_min_distance", "codes.dual_min_distance",
          note=lambda args, res: {"exact": res.exact, "method": res.method})
    patch([verify], "check_instance", "verify.check_instance",
          label=lambda args: "{},{},{}".format(*args[:3]))
    for attr in ("sweep", "summarize", "report_json"):
        patch([verify], attr, f"verify.{attr}")
    patch([cli], "run", "cli.run", label=lambda args: " ".join(args[0][:6]))


def _enumeration_note(args, res) -> dict:
    code = args[0]
    codewords = code.r ** code.dimension - 1 if res.exact else 0
    return {"exact": res.exact, "codewords": codewords}


# ---------------------------------------------------------------------------
# Derived figures
# ---------------------------------------------------------------------------

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


LAYERS = ("rings", "graphs", "gfmatrix", "codes", "verify", "cli")

DUAL_METHODS = {"column scan": "column_scan", "subset search": "subset_search",
                "cycle shortcut": "cycle_shortcut"}


def layer_metrics(spans: list[dict], traced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures as {name: (value, unit)}."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name: str) -> list[dict]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in named(name))

    def self_total(name: str) -> float:
        return sum(selfs[s["id"]] for s in named(name))

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s["name"].split(".")[0] == layer]
        entries = [s for s in mine if s["parent"] is None
                   or by_id[s["parent"]]["name"].split(".")[0] != layer]
        m[f"layer.{layer}.calls"] = (len(mine), "count")
        m[f"layer.{layer}.s"] = (sum(s["end"] - s["start"] for s in entries), "s")
        m[f"layer.{layer}.self_s"] = (sum(selfs[s["id"]] for s in mine), "s")

    m["rings.classify.s"] = (total("rings.classify"), "s")

    m["graphs.build.s"] = (total("graphs.build"), "s")
    m["graphs.edges"] = (sum(s["edges"] for s in named("graphs.build")), "count")
    m["graphs.invariants.self_s"] = (self_total("graphs.invariants"), "s")
    m["graphs.shortest_cycle.s"] = (total("graphs.shortest_cycle"), "s")
    m["graphs.shortest_cycle.calls"] = (len(named("graphs.shortest_cycle")), "count")
    m["graphs.edge_connectivity.self_s"] = (self_total("graphs.edge_connectivity"), "s")
    m["graphs.maximum_flow.s"] = (total("graphs.maximum_flow"), "s")
    m["graphs.maximum_flow.calls"] = (len(named("graphs.maximum_flow")), "count")
    m["graphs.incidence_matrix.s"] = (total("graphs.incidence_matrix"), "s")

    m["gfmatrix.rank.s"] = (total("gfmatrix.rank"), "s")
    m["gfmatrix.rank.calls"] = (len(named("gfmatrix.rank")), "count")
    m["gfmatrix.rank.entries"] = (sum(s["entries"] for s in named("gfmatrix.rank")), "count")
    m["gfmatrix.rref.s"] = (total("gfmatrix.rref"), "s")
    m["gfmatrix.nullspace.s"] = (total("gfmatrix.nullspace"), "s")
    m["gfmatrix.columns_dependent.calls"] = (len(named("gfmatrix.columns_dependent")), "count")

    m["codes.from_incidence.self_s"] = (self_total("codes.from_incidence"), "s")
    enum = named("codes.min_distance_exact")
    m["codes.min_distance_exact.s"] = (total("codes.min_distance_exact"), "s")
    m["codes.min_distance_exact.calls"] = (len(enum), "count")
    m["codes.min_distance_exact.codewords"] = (sum(s["codewords"] for s in enum), "count")
    m["codes.min_distance_exact.exact_ratio"] = (
        ratio(sum(s["exact"] for s in enum), len(enum)), "ratio")
    dual = named("codes.dual_min_distance")
    m["codes.dual_min_distance.s"] = (total("codes.dual_min_distance"), "s")
    m["codes.dual_min_distance.calls"] = (len(dual), "count")
    m["codes.dual_min_distance.exact_ratio"] = (
        ratio(sum(s["exact"] for s in dual), len(dual)), "ratio")
    for key in (*DUAL_METHODS.values(), "unknown"):
        m[f"codes.dual_min_distance.{key}"] = (0, "count")
    for s in dual:
        key = DUAL_METHODS.get(s["method"], "unknown") if s["exact"] else "unknown"
        value, unit = m[f"codes.dual_min_distance.{key}"]
        m[f"codes.dual_min_distance.{key}"] = (value + 1, unit)

    checks_ms = [1000 * (s["end"] - s["start"]) for s in named("verify.check_instance")]
    m["verify.check_instance.self_s"] = (self_total("verify.check_instance"), "s")
    m["verify.check_instance.p50_ms"] = (_quantile(checks_ms, 0.5), "ms")
    m["verify.check_instance.p90_ms"] = (_quantile(checks_ms, 0.9), "ms")
    m["verify.report_json.s"] = (total("verify.report_json"), "s")

    m["cli.run.self_s"] = (self_total("cli.run"), "s")
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m["trace_root_share"] = (ratio(roots, traced_wall), "ratio")
    return m


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]
