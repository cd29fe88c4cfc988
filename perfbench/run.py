"""Benchmark of `unitcodes verify`, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a new interpreter (perfbench/cold.py) that imports
`unitcodes.cli` and calls `cli.run(["verify", ..., "--json", PATH])` once
per (n, m) of the workload, serially, so the `verify._graph_data` cache
starts cold as it does for a user. A new repetition starts while a
typical one still ends within S seconds, and at least MIN_REPS run.
Every report is checked against reference values (closed forms, and the
graph invariants in reference.json) before its time counts.

--trace 0 reports the end-to-end metrics: wall_s (median time of the
`cli.run` calls of one repetition), setup_s (median import time of
`unitcodes.cli`), peak_rss_mb (median peak resident memory of one
repetition) and checks_exact (checks settled on exact values).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of spans.py, medians over the traced repetitions,
with trace_overhead_ratio = traced wall_s / untraced wall_s.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
attempted and failed count (n, m, r) instances over all repetitions, so
failed / attempted is the error rate. An instance fails when its process
exits non-zero, its report lacks it, it carries a theorem Fail, a value
disagrees with the reference, or (traced) its record differs from the
untraced one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_REPS = 3
RUN_LIMIT_S = 120  # no new repetition after this; a run must end within 180 s
DEADLINE_S = 170

# Each workload is a list of blocks (n values, m values, fields) and is run
# as one `verify --n N..N --m M..M --fields F` call per (n, m), in an order
# drawn from the seed. The seed does not choose the (n, m) orientation:
# the graphs are isomorphic, but the searches would see another column
# order and so another amount of work, making wall_s depend on the seed.
WORKLOADS = {
    # slice of the acceptance sweep [2,10]^2 x {2,3} with its stage mix:
    # dual search first, then enumeration and rank
    "sweep_mix": [(range(2, 7), range(2, 7), "2,3"), ((4,), (7,), "2,3"), ((7,), (4,), "2,3")],
    # primal code layer: rank of H (and of its nullspace) on (7,9), exhaustive
    # enumeration within budget on (5,5,2), (3,8,2), (2,7,3); (7,9,2) is over
    # budget and today bails out at no cost
    "code_heavy": [((7,), (9,), "2,3"), ((5,), (5,), "2"), ((3,), (8,), "2"), ((2,), (7,), "3")],
    # past matrix_entry_cap every connected instance skips the code layer
    "graph_heavy": [(range(12, 17), range(12, 17), "2")],
}

# check name -> names of the quantities its observed value holds
QUANTITIES = {
    "EdgeCountFormula": ("edges",),
    "LambdaFormula": ("lambda",),
    "CodeParamsVsPredicted": ("length", "dimension", "d"),
    "ConjectureII": ("length", "dimension", "d"),
    "CodeDistanceEqualsLambda": ("d",),
    "DualDistanceVsPredicted": ("dual_d",),
    "DualDistanceEqualsGirth(GF(2))": ("dual_d",),
}
DECIDED = ("Pass", "Fail", "ConjecturePass", "ConjectureFail")


def plan(workload: str, seed: int) -> list[tuple[int, int, str]]:
    """The (n, m, fields) verify calls of one repetition, in seed order."""
    calls = [(n, m, fields) for ns, ms, fields in WORKLOADS[workload]
             for n in ns for m in ms]
    random.Random(seed).shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------

def _phi(k: int) -> int:
    return sum(1 for a in range(1, k + 1) if math.gcd(a, k) == 1)


def expected(n: int, m: int, r: int, pairs: dict) -> dict:
    """Reference value of each quantity the report may state for (n, m, r)."""
    graph = pairs[f"{min(n, m)},{max(n, m)}"]
    phi = _phi(n) * _phi(m)
    both_odd = n % 2 == 1 and m % 2 == 1
    edges = (n * m - 1) * phi // 2 if both_odd else n * m * phi // 2
    out = {"edges": edges, "lambda": graph["lambda"]}
    if n % 2 == 0 and m % 2 == 0:  # disconnected: the code layer is skipped
        return out
    bipartite = not both_odd
    # rank of the unoriented incidence matrix of a connected graph
    out["length"] = edges
    out["dimension"] = n * m - 1 if r == 2 or bipartite else n * m
    if r == 2 or bipartite:
        # the row space is the cut space and the column circuits are cycles
        out["d"] = graph["lambda"]
        out["dual_d"] = graph["girth"]
    elif graph["c4"]:
        # odd r, odd cycles: no dependent set below 4, and a 4-cycle is one
        out["dual_d"] = 4
    return out


def check_record(rec: dict, pairs: dict) -> list[str]:
    """Reasons the record is wrong; empty when it agrees with the reference."""
    ref = expected(rec["n"], rec["m"], rec["r"], pairs)
    problems = []
    seen = set()
    for ch in rec["checks"]:
        if ch["status"] == "Fail":
            problems.append(f"theorem check {ch['name']} failed")
        keys = QUANTITIES.get(ch["name"], ())
        values = ch["observed"] if len(keys) > 1 else [ch["observed"]]
        if not isinstance(values, list):
            continue
        for key, value in zip(keys, values):
            if value is None:
                continue
            seen.add(key)
            if isinstance(value, str) and value.startswith("Unknown("):
                lo, hi = (int(x) for x in value[len("Unknown("):-1].split(","))
                if key in ref and not lo <= ref[key] <= hi:
                    problems.append(f"{ch['name']}: {key} bracket {value} excludes {ref[key]}")
            elif key not in ref:
                problems.append(f"{ch['name']}: no reference for {key} = {value!r}")
            elif value != ref[key]:
                problems.append(f"{ch['name']}: {key} = {value!r}, expected {ref[key]}")
    if "edges" not in seen:
        problems.append("no edge count reported")
    return problems


def check_report(report: dict | None, exit_code: int, n: int, m: int, fields: str,
                 pairs: dict) -> dict[tuple[int, int, int], list[str]]:
    """Problems per expected (n, m, r) instance of one verify call."""
    wanted = [(n, m, int(r)) for r in fields.split(",")]
    if exit_code != 0 or report is None:
        return {key: [f"verify exited {exit_code}"] for key in wanted}
    records = {(rec["n"], rec["m"], rec["r"]): rec for rec in report["records"]}
    out = {}
    for key in wanted:
        out[key] = check_record(records[key], pairs) if key in records else ["record missing"]
    extra = set(records) - set(wanted)
    if extra or len(report["records"]) != len(wanted):
        out[wanted[0]] = out[wanted[0]] + [f"unexpected records {sorted(extra)}"]
    if report["summary"]["theorem_failures"] != 0:
        out[wanted[0]] = out[wanted[0]] + ["summary counts theorem failures"]
    return out


def count_exact(report: dict) -> int:
    """Checks decided on values that hold no Unknown(...) bracket."""
    return sum(1 for rec in report["records"] for ch in rec["checks"]
               if ch["status"] in DECIDED and "Unknown(" not in json.dumps(ch["observed"]))


# ---------------------------------------------------------------------------
# Cold repetitions
# ---------------------------------------------------------------------------

def repetition(calls, trace: bool, out_dir: Path, pairs: dict, deadline: float) -> dict:
    """One cold process over all calls; returns its timings and checked reports."""
    out_dir.mkdir()
    argvs = [["verify", "--n", f"{n}..{n}", "--m", f"{m}..{m}", "--fields", fields,
              "--json", str(out_dir / f"{i}.json")] for i, (n, m, fields) in enumerate(calls)]
    job = out_dir / "job.json"
    job.write_text(json.dumps({"src": str(SRC), "argvs": argvs, "trace": trace,
                               "spans": str(out_dir / "spans.jsonl")}))
    result_path = out_dir / "result.json"
    try:
        proc = subprocess.run([sys.executable, str(HERE / "cold.py"), str(job), str(result_path)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=max(1.0, deadline - time.perf_counter()))
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:  # run() has killed and reaped the process
        code, stderr = "timeout", ""
    if code != 0 or not result_path.exists():
        sys.stderr.write(stderr[-2000:])
        result = {"import_s": None, "walls": [], "exit_codes": [code] * len(calls),
                  "maxrss_kb": None}
    else:
        result = json.loads(result_path.read_text())

    reports, problems = [], {}
    for i, (n, m, fields) in enumerate(calls):
        path = out_dir / f"{i}.json"
        report = json.loads(path.read_text()) if path.exists() else None
        reports.append(report)
        problems.update(check_report(report, result["exit_codes"][i], n, m, fields, pairs))
    result["reports"] = reports
    result["problems"] = problems
    result["wall_s"] = sum(result["walls"])
    if trace and result["walls"]:
        with open(out_dir / "spans.jsonl") as fh:
            result["spans"] = [json.loads(line) for line in fh]
    return result


def failed_instances(rep: dict) -> set:
    return {key for key, why in rep["problems"].items() if why}


def _compare_records(plain: dict, traced: dict, calls) -> None:
    """Mark instances whose traced record differs from the untraced one."""
    for i, (n, m, fields) in enumerate(calls):
        a, b = plain["reports"][i], traced["reports"][i]
        if a is None or b is None or a["records"] != b["records"]:
            for r in fields.split(","):
                traced["problems"][(n, m, int(r))].append("traced record differs")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pairs = json.loads((HERE / "reference.json").read_text())["pairs"]
    calls = plan(workload, seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    untraced, traced, rounds = [], [], []
    while True:
        # start another round only if a typical one still ends inside the window
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_REPS and (elapsed + statistics.median(rounds) > seconds
                                         or elapsed > RUN_LIMIT_S):
            break
        t = time.perf_counter()
        plain = repetition(calls, False, WORK / f"{len(rounds)}u", pairs, deadline)
        untraced.append(plain)
        if trace:
            rep = repetition(calls, True, WORK / f"{len(rounds)}t", pairs, deadline)
            _compare_records(plain, rep, calls)
            traced.append(rep)
        rounds.append(time.perf_counter() - t)

    reps = untraced + traced
    attempted = sum(len(rep["problems"]) for rep in reps)
    failed = sum(len(failed_instances(rep)) for rep in reps)
    for rep in reps:
        for key, why in sorted(rep["problems"].items()):
            if why:
                print(f"FAIL {key}: {'; '.join(why)}", file=sys.stderr)

    # a repetition that failed the output check reports no time
    ok = [rep for rep in untraced if not failed_instances(rep)] or untraced
    wall = statistics.median(rep["wall_s"] for rep in ok)
    if trace:
        good = [rep for rep in traced if not failed_instances(rep)] or traced
        per = [spans.layer_metrics(rep["spans"], rep["wall_s"]) for rep in good if "spans" in rep]
        metrics = {name: {"value": statistics.median(p[name][0] for p in per), "unit": unit}
                   for name, (_, unit) in (per[0].items() if per else ())}
        traced_wall = statistics.median(rep["wall_s"] for rep in good)
        metrics["trace_overhead_ratio"] = {"value": traced_wall / wall, "unit": "ratio"}
    else:
        imports = [rep["import_s"] for rep in untraced if rep["import_s"] is not None]
        rss = [rep["maxrss_kb"] / 1024 for rep in ok if rep["maxrss_kb"] is not None]
        exact = [sum(count_exact(r) for r in rep["reports"] if r) for rep in ok]
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(imports) if imports else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss) if rss else 0.0, "unit": "MiB"},
            "checks_exact": {"value": statistics.median_low(exact), "unit": "count"},
        }

    versions = next((rep["versions"] for rep in reps if "versions" in rep), {})
    print(f"{workload}: seed {seed}, {len(calls)} verify calls per repetition, "
          f"{len(untraced)} untraced and {len(traced)} traced cold repetitions, "
          f"error rate {failed}/{attempted}")
    print("untraced wall_s per repetition: "
          + " ".join(f"{rep['wall_s']:.3f}" for rep in untraced))
    print(f"cpus {os.cpu_count()}, " + ", ".join(f"{k} {v}" for k, v in sorted(versions.items())))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unitcodes" / "cli.py").is_file():
        print(f"error: no unitcodes sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
