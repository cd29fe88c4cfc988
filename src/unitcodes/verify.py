"""Sweep (n, m, r) ranges and compare every applicable closed form
against the independent oracles; conjectures are reported as evidence,
never as hard failures.

A Fail on a proven-theorem check means the implementation (or the
theorem) is wrong and drives a nonzero exit code; ConjectureFail is a
reportable finding and does not.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Any, Optional

from . import codes, graphs
from .codes import DEFAULT_BUDGET, DEFAULT_DUAL_CAP, DEFAULT_DUAL_NODES
from .gfmatrix import PrimeField
from .rings import THEOREM_TAGS, CaseTag, ParityCase, RingSpec, classify

MATRIX_ENTRY_CAP = 200_000  # largest |V| |E| for which the code layer runs


class Status(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    SKIPPED = "Skipped"
    CONJECTURE_PASS = "ConjecturePass"
    CONJECTURE_FAIL = "ConjectureFail"


@dataclass(frozen=True)
class Check:
    name: str
    predicted: Any
    observed: Any
    status: Status
    reason: Optional[str] = None


@dataclass(frozen=True)
class CheckRecord:
    n: int
    m: int
    r: int
    case_tag: CaseTag
    checks: tuple[Check, ...]

    def has_theorem_failure(self) -> bool:
        return any(c.status == Status.FAIL for c in self.checks)


@dataclass(frozen=True)
class SweepConfig:
    n_range: tuple[int, int]
    m_range: tuple[int, int]
    fields: tuple[int, ...]
    budget: int = DEFAULT_BUDGET
    jobs: int = 1

    def __post_init__(self) -> None:
        for lo, hi in (self.n_range, self.m_range):
            if not (2 <= lo and hi <= 64):
                raise ValueError(f"ranges must stay within [2, 64], got {lo}..{hi}")
        if self.budget < 2**10:
            raise ValueError("enumeration budget must be at least 2^10")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if not self.fields:
            raise ValueError("fields must name at least one prime")
        for r in self.fields:
            PrimeField(r)  # raises ValueError for a non-prime order

    def instances(self) -> list[tuple[int, int, int]]:
        out = []
        for n in range(self.n_range[0], self.n_range[1] + 1):
            for m in range(self.m_range[0], self.m_range[1] + 1):
                for r in sorted(self.fields):
                    out.append((n, m, r))
        return out


def _fin(x: Optional[int]) -> Any:
    return "Infinite" if x is None else x


def _dist(res: codes.DistanceResult) -> Any:
    return res.value if res.exact else f"Unknown({res.lower},{res.upper})"


@lru_cache(maxsize=1)  # sweep visits each (n, m) once, for all its fields
def _graph_data(n: int, m: int):
    spec = RingSpec(n, m)
    g = graphs.build(spec)
    return g, graphs.invariants(g)


def check_instance(n: int, m: int, r: int, config: SweepConfig) -> CheckRecord:
    spec = RingSpec(n, m)
    profile = classify(spec)
    parity = spec.parity_case()
    g, inv = _graph_data(n, m)
    out: list[Check] = []

    # --- graph-side checks -------------------------------------------------
    predicted_edges = graphs.edge_count_formula(spec)
    out.append(Check(
        "EdgeCountFormula", predicted_edges, g.num_edges,
        Status.PASS if predicted_edges == g.num_edges else Status.FAIL,
    ))

    if parity == ParityCase.EXACTLY_ONE_EVEN:
        witnessed = inv.bipartite and _parity_classes_separate(g)
        out.append(Check("BipartiteIffOneEven", True, inv.bipartite,
                         Status.PASS if witnessed else Status.FAIL))
    else:
        out.append(Check("BipartiteIffOneEven", None, inv.bipartite,
                         Status.SKIPPED, "no bipartiteness claim for this parity"))

    if parity == ParityCase.BOTH_EVEN:
        out.append(Check("DisconnectedIfBothEven", False, inv.connected,
                         Status.PASS if not inv.connected else Status.FAIL))
    else:
        out.append(Check("DisconnectedIfBothEven", None, inv.connected,
                         Status.SKIPPED, "both moduli not even"))

    tag = profile.case_tag
    theorem = tag in THEOREM_TAGS

    if theorem and parity == ParityCase.BOTH_ODD:
        ok = inv.connected and inv.diameter is not None and inv.diameter <= 2
        out.append(Check("DiameterBound", "connected, diam <= 2",
                         f"connected={inv.connected}, diam={_fin(inv.diameter)}",
                         Status.PASS if ok else Status.FAIL))
    elif theorem:  # one modulus even
        ok = (inv.connected and inv.bipartite
              and inv.diameter is not None and inv.diameter <= 3)
        out.append(Check("DiameterBound", "connected bipartite, diam <= 3",
                         f"connected={inv.connected}, bipartite={inv.bipartite}, "
                         f"diam={_fin(inv.diameter)}",
                         Status.PASS if ok else Status.FAIL))
    else:
        out.append(Check("DiameterBound", None, _fin(inv.diameter),
                         Status.SKIPPED, "no theorem applies"))

    if parity == ParityCase.BOTH_ODD:
        ok = inv.connected and inv.diameter is not None and inv.diameter <= 2
        out.append(Check("ConjectureI", "connected, diam <= 2",
                         f"connected={inv.connected}, diam={_fin(inv.diameter)}",
                         Status.CONJECTURE_PASS if ok else Status.CONJECTURE_FAIL))
    elif parity == ParityCase.EXACTLY_ONE_EVEN:
        ok = inv.connected and inv.diameter is not None and inv.diameter <= 3
        out.append(Check("ConjectureI", "connected, diam <= 3",
                         f"connected={inv.connected}, diam={_fin(inv.diameter)}",
                         Status.CONJECTURE_PASS if ok else Status.CONJECTURE_FAIL))
    else:
        out.append(Check("ConjectureI", None, None,
                         Status.SKIPPED, "both-even pairs are not covered"))

    if theorem:
        pred_lambda = graphs.min_degree_formula(spec)
        out.append(Check("LambdaFormula", pred_lambda, inv.edge_connectivity,
                         Status.PASS if inv.edge_connectivity == pred_lambda else Status.FAIL))
    else:
        out.append(Check("LambdaFormula", None, inv.edge_connectivity,
                         Status.SKIPPED, "no theorem applies"))

    if inv.connected and inv.diameter is not None and (
        inv.diameter <= 2 or (inv.bipartite and inv.diameter <= 3)
    ):
        out.append(Check("LambdaEqualsMinDegree", inv.min_degree, inv.edge_connectivity,
                         Status.PASS if inv.edge_connectivity == inv.min_degree else Status.FAIL))
    else:
        out.append(Check("LambdaEqualsMinDegree", inv.min_degree, inv.edge_connectivity,
                         Status.SKIPPED, "diameter hypotheses not met"))

    # --- code-side checks --------------------------------------------------
    code_checks = _code_checks(g, inv, profile, r, config)
    out.extend(code_checks)

    return CheckRecord(n=n, m=m, r=r, case_tag=tag, checks=tuple(out))


def _parity_classes_separate(g: graphs.UnitGraph) -> bool:
    """No edge joins two vertices whose even-modulus coordinates share parity."""
    coord = 1 if g.spec.m % 2 == 0 else 0
    parity = g.vertex_label(g.edges)[coord] % 2  # (E, 2): one column per end
    return bool((parity[:, 0] != parity[:, 1]).all())


_CODE_CHECK_NAMES = (
    "CodeParamsVsPredicted", "ConjectureII", "CodeDistanceEqualsLambda",
    "DualDimension", "DualDistanceVsPredicted", "DualDistanceEqualsGirth(GF(2))",
)


def _code_checks(g, inv, profile, r: int, config: SweepConfig) -> list[Check]:
    if not inv.connected:
        return [Check(name, None, None, Status.SKIPPED, "disconnected - no theorem applies")
                for name in _CODE_CHECK_NAMES]
    if g.num_vertices * g.num_edges > MATRIX_ENTRY_CAP:
        return [Check(name, None, None, Status.SKIPPED, "incidence matrix above size cap")
                for name in _CODE_CHECK_NAMES]

    code = codes.from_incidence(g, r)
    prediction = codes.predict(profile, r)
    # primal distance only matters when some claim consumes it
    if prediction.primal is not None or r == 2 or inv.bipartite:
        dist = codes.min_distance_exact(code, config.budget)
    else:
        dist = codes.DistanceResult.unknown(1, code.length, "no distance claim")
    observed = [code.length, code.dimension, _dist(dist)]
    # rank of the incidence matrix of a connected graph (Godsil & Royle,
    # Algebraic Graph Theory, 8.2): |V| - 1 over GF(2) or when bipartite
    rank = g.num_vertices - 1 if r == 2 or inv.bipartite else g.num_vertices
    out: list[Check] = []

    # theorem-backed primal parameters
    if prediction.source.is_theorem:
        out.append(_compare_params(prediction.primal, code, dist, theorem=True))
    elif r == 2 or inv.bipartite:
        # generic incidence-code parameters [|E|, |V|-1, lambda]
        pred = codes.CodeParams(g.num_edges, rank, inv.edge_connectivity)
        check = _compare_params(pred, code, dist, theorem=True)
        out.append(replace(check, reason=(check.reason + "; " if check.reason else "")
                           + "generic incidence-code parameters"))
    else:
        out.append(Check("CodeParamsVsPredicted", None, observed,
                         Status.SKIPPED, "no theorem applies"))

    # conjecture-shape prediction: every case with a prediction, theorem or not
    if prediction.primal is not None:
        check = _compare_params(prediction.primal, code, dist, theorem=False)
        out.append(replace(check, name="ConjectureII"))
    else:
        out.append(Check("ConjectureII", None, observed,
                         Status.SKIPPED, "field parity does not match the conjecture"))

    if r == 2 or (inv.bipartite and r != 2):
        if dist.exact:
            out.append(Check("CodeDistanceEqualsLambda", inv.edge_connectivity, dist.value,
                             Status.PASS if dist.value == inv.edge_connectivity else Status.FAIL))
        else:
            out.append(Check("CodeDistanceEqualsLambda", inv.edge_connectivity, _dist(dist),
                             Status.SKIPPED, "distance enumeration budget exceeded"))
    else:
        out.append(Check("CodeDistanceEqualsLambda", None, None,
                         Status.SKIPPED, "needs r = 2 or a bipartite graph with odd r"))

    # E - k from elimination against E minus the graph's incidence rank
    dual_dim = codes.dual_dimension(code)
    out.append(Check("DualDimension", code.length - rank, dual_dim,
                     Status.PASS if dual_dim == code.length - rank else Status.FAIL))

    dual = codes.dual_min_distance(code)
    if prediction.source.is_theorem and prediction.dual is not None:
        if dual.exact:
            out.append(Check("DualDistanceVsPredicted", prediction.dual.min_distance, dual.value,
                             Status.PASS if dual.value == prediction.dual.min_distance
                             else Status.FAIL, f"method: {dual.method}"))
        else:
            out.append(Check("DualDistanceVsPredicted", prediction.dual.min_distance,
                             _dist(dual), Status.SKIPPED, "dependent-column search budget exceeded"))
    else:
        out.append(Check("DualDistanceVsPredicted", None, _dist(dual),
                         Status.SKIPPED, "no dual-distance claim; observed value recorded"))

    if r == 2:
        if dual.exact and inv.girth is not None:
            out.append(Check("DualDistanceEqualsGirth(GF(2))", inv.girth, dual.value,
                             Status.PASS if dual.value == inv.girth else Status.FAIL,
                             f"method: {dual.method}"))
        else:
            out.append(Check("DualDistanceEqualsGirth(GF(2))", _fin(inv.girth), _dist(dual),
                             Status.SKIPPED, "dual distance not determined"))
    else:
        out.append(Check("DualDistanceEqualsGirth(GF(2))", None, None,
                         Status.SKIPPED, "binary field only"))
    return out


def _compare_params(pred: codes.CodeParams, code: codes.LinearCode,
                    dist: codes.DistanceResult, theorem: bool) -> Check:
    ok_status = Status.PASS if theorem else Status.CONJECTURE_PASS
    bad_status = Status.FAIL if theorem else Status.CONJECTURE_FAIL
    predicted = [pred.length, pred.dimension, pred.min_distance]
    observed = [code.length, code.dimension, _dist(dist)]
    nk_ok = code.length == pred.length and code.dimension == pred.dimension
    if dist.exact:
        ok = nk_ok and dist.value == pred.min_distance
        return Check("CodeParamsVsPredicted", predicted, observed,
                     ok_status if ok else bad_status)
    if not (nk_ok and dist.lower <= pred.min_distance <= dist.upper):
        return Check("CodeParamsVsPredicted", predicted, observed, bad_status)
    # any distance in the bracket would pass, so the bracket decides nothing
    return Check("CodeParamsVsPredicted", predicted, observed, Status.SKIPPED,
                 f"distance only bracketed in [{dist.lower},{dist.upper}] ({dist.method})")


# ---------------------------------------------------------------------------
# Sweeping and reporting
# ---------------------------------------------------------------------------

def _run_group(args) -> list[CheckRecord]:
    n, m, fields, config = args
    return [check_instance(n, m, r, config) for r in fields]


def sweep(config: SweepConfig) -> list[CheckRecord]:
    """All records in lexicographic (n, m, r) order; parallelism over
    (n, m) groups is observationally invisible."""
    fields = tuple(sorted(config.fields))
    groups = [(n, m, fields, config)
              for n in range((config.n_range[0]), config.n_range[1] + 1)
              for m in range(config.m_range[0], config.m_range[1] + 1)]
    # the pool may fork every worker up front, wanted or not
    workers = min(config.jobs, len(groups), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_group, groups, chunksize=1))
    else:
        results = [_run_group(g) for g in groups]
    records = [rec for group in results for rec in group]
    records.sort(key=lambda rec: (rec.n, rec.m, rec.r))
    return records


def summarize(records: list[CheckRecord]) -> dict:
    per_check: dict[str, dict[str, int]] = {}
    per_case: dict[str, dict[str, int]] = {}
    for rec in records:
        case_counts = per_case.setdefault(rec.case_tag.value, _zero_counts())
        for ch in rec.checks:
            per_check.setdefault(ch.name, _zero_counts())[ch.status.value] += 1
            case_counts[ch.status.value] += 1
    return {
        "records": len(records),
        "checks": per_check,
        "cases": per_case,
        "theorem_failures": sum(1 for rec in records if rec.has_theorem_failure()),
    }


def _zero_counts() -> dict[str, int]:
    return {s.value: 0 for s in Status}


def _check_to_json(ch: Check) -> dict:
    obj: dict[str, Any] = {
        "name": ch.name,
        "predicted": ch.predicted,
        "observed": ch.observed,
        "status": ch.status.value,
    }
    if ch.reason is not None:
        obj["reason"] = ch.reason
    return obj


def report_json(config: SweepConfig, records: list[CheckRecord]) -> str:
    obj = {
        "config": {
            "n_range": list(config.n_range),
            "m_range": list(config.m_range),
            "fields": sorted(config.fields),
            "budget": config.budget,
            "dual_cap": DEFAULT_DUAL_CAP,
            "dual_nodes": DEFAULT_DUAL_NODES,
            "matrix_entry_cap": MATRIX_ENTRY_CAP,
        },
        "records": [
            {
                "n": rec.n,
                "m": rec.m,
                "r": rec.r,
                "case": rec.case_tag.value,
                "checks": [_check_to_json(ch) for ch in rec.checks],
            }
            for rec in records
        ],
        "summary": summarize(records),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def summary_csv(records: list[CheckRecord]) -> str:
    summary = summarize(records)
    statuses = [s.value for s in Status]
    lines = ["group,name," + ",".join(statuses)]
    for name in sorted(summary["checks"]):
        counts = summary["checks"][name]
        lines.append("check," + name + "," + ",".join(str(counts[s]) for s in statuses))
    for name in sorted(summary["cases"]):
        counts = summary["cases"][name]
        lines.append("case," + name + "," + ",".join(str(counts[s]) for s in statuses))
    return "\n".join(lines) + "\n"
