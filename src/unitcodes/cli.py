"""Command-line surface: build/export graphs, compute codes, run sweeps.

Exit codes: 0 success, 1 usage error, 2 theorem-check failure,
3 I/O error. Human-readable output goes to stdout; machine-readable
output only via --json/--csv.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import codes, graphs, verify
from .gfmatrix import PrimeField
from .rings import RingSpec, classify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_THEOREM_FAILURE = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit(2)
        raise _UsageError(message)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _prime(text: str) -> int:
    r = _int(text)
    try:
        PrimeField(r)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return r


def _modulus(text: str) -> int:
    k = _int(text)
    if k < 2:
        raise argparse.ArgumentTypeError(f"modulus must be >= 2, got {k}")
    return k


def _range(text: str) -> tuple[int, int]:
    """Inclusive range syntax A..B."""
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in A..B, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _field_list(text: str) -> tuple[int, ...]:
    return tuple(_prime(part) for part in text.split(","))


def _positive(text: str) -> int:
    k = _int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {k}")
    return k


def _jobs(text: str) -> int:
    # the pool starts every worker up front: a huge count exhausts process ids
    k = _positive(text)
    cpus = os.cpu_count() or 1
    if k > cpus:
        raise argparse.ArgumentTypeError(f"must be at most the CPU count {cpus}, got {k}")
    return k


def build_parser() -> _Parser:
    parser = _Parser(prog="unitcodes",
                     description="Unit graphs of Z_n (+) Z_m and their incidence-matrix codes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build a unit graph, report invariants, export files")
    p.add_argument("n", type=_modulus)
    p.add_argument("m", type=_modulus)
    p.add_argument("--invariants", action="store_true")
    p.add_argument("--export-edges", metavar="PATH")
    p.add_argument("--export-dot", metavar="PATH")
    p.add_argument("--export-incidence", metavar="PATH")
    p.add_argument("--field", type=_prime, default=2,
                   help="field used when reporting the incidence rank")

    p = sub.add_parser("code", help="incidence-matrix code parameters")
    p.add_argument("n", type=_modulus)
    p.add_argument("m", type=_modulus)
    p.add_argument("--field", type=_prime, required=True)
    p.add_argument("--exact", action="store_true",
                   help="compute the exact minimum distance by enumeration")
    p.add_argument("--budget", type=_positive, default=codes.DEFAULT_BUDGET)

    p = sub.add_parser("dual", help="dual-code dimension and minimum distance")
    p.add_argument("n", type=_modulus)
    p.add_argument("m", type=_modulus)
    p.add_argument("--field", type=_prime, required=True)
    p.add_argument("--cap", type=_positive, default=codes.DEFAULT_DUAL_CAP)

    p = sub.add_parser("verify", help="sweep ranges and check every applicable closed form")
    p.add_argument("--n", type=_range, required=True, metavar="A..B")
    p.add_argument("--m", type=_range, required=True, metavar="A..B")
    p.add_argument("--fields", type=_field_list, required=True, metavar="LIST")
    p.add_argument("--budget", type=_positive, default=codes.DEFAULT_BUDGET)
    p.add_argument("--json", metavar="PATH")
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--jobs", type=_jobs, default=1)

    p = sub.add_parser("conjecture", help="report conjecture evidence over ranges")
    p.add_argument("--n", type=_range, required=True, metavar="A..B")
    p.add_argument("--m", type=_range, required=True, metavar="A..B")
    p.add_argument("--fields", type=_field_list, required=True, metavar="LIST")
    p.add_argument("--budget", type=_positive, default=codes.DEFAULT_BUDGET)
    p.add_argument("--jobs", type=_jobs, default=1)

    return parser


def _write(path: str, data: str | bytes) -> None:
    try:
        p = Path(path)
        if isinstance(data, bytes):
            p.write_bytes(data)
        else:
            p.write_text(data)
    except OSError as exc:
        raise _IoError(f"cannot write {path}: {exc}")


class _IoError(Exception):
    pass


def _cmd_graph(args) -> int:
    spec = RingSpec(args.n, args.m)
    g = graphs.build(spec)
    print(f"unit graph of Z_{args.n} (+) Z_{args.m}: "
          f"{g.num_vertices} vertices, {g.num_edges} edges")
    if args.invariants:
        inv = graphs.invariants(g)
        fin = lambda x: "infinite" if x is None else x
        print(f"  connected:          {inv.connected} ({inv.num_components} components)")
        print(f"  bipartite:          {inv.bipartite}")
        print(f"  diameter:           {fin(inv.diameter)}")
        print(f"  girth:              {fin(inv.girth)}")
        print(f"  min degree:         {inv.min_degree}")
        print(f"  edge connectivity:  {inv.edge_connectivity}")
        print(f"  incidence rank GF({args.field}): "
              f"{graphs.incidence_matrix(g, args.field).rank()}")
        print(f"  case:               {classify(spec).case_tag.value}")
    if args.export_edges:
        _write(args.export_edges, graphs.export(g, "edges"))
    if args.export_dot:
        _write(args.export_dot, graphs.export(g, "dot"))
    if args.export_incidence:
        _write(args.export_incidence, graphs.export(g, "incidence"))
    return EXIT_OK


def _cmd_code(args) -> int:
    g = graphs.build(RingSpec(args.n, args.m))
    code = codes.from_incidence(g, args.field)
    if args.exact:
        dist = codes.min_distance_exact(code, args.budget)
        d = str(dist.value) if dist.exact else f"?({dist.lower}..{dist.upper})"
    else:
        d = "?"
    print(f"[{code.length},{code.dimension},{d}]_{args.field}")
    return EXIT_OK


def _cmd_dual(args) -> int:
    g = graphs.build(RingSpec(args.n, args.m))
    code = codes.from_incidence(g, args.field)
    dual = codes.dual_min_distance(code, cap=args.cap)
    d = str(dual.value) if dual.exact else f"?(>= {dual.lower})"
    print(f"dual code: length {code.length}, dimension {codes.dual_dimension(code)}, "
          f"minimum distance {d}")
    if dual.witness is not None:
        print(f"  dependent columns: {list(dual.witness)} (method: {dual.method})")
    return EXIT_OK


def _run_sweep(args, conjecture_only: bool) -> int:
    config = verify.SweepConfig(
        n_range=args.n, m_range=args.m, fields=args.fields,
        budget=args.budget, jobs=args.jobs,
    )
    records = verify.sweep(config)
    if conjecture_only:
        records = [
            verify.CheckRecord(rec.n, rec.m, rec.r, rec.case_tag, tuple(
                ch for ch in rec.checks if ch.name.startswith("Conjecture")))
            for rec in records
        ]
    summary = verify.summarize(records)

    for rec in records:
        for ch in rec.checks:
            if ch.status in (verify.Status.FAIL, verify.Status.CONJECTURE_FAIL):
                print(f"({rec.n},{rec.m},r={rec.r}) [{rec.case_tag.value}] {ch.name}: "
                      f"{ch.status.value} predicted={ch.predicted} observed={ch.observed}",
                      file=sys.stderr)

    statuses = [s.value for s in verify.Status]
    width = max((len(name) for name in summary["checks"]), default=4)
    print(f"{'check':<{width}}  " + "  ".join(f"{s:>14}" for s in statuses))
    for name in sorted(summary["checks"]):
        counts = summary["checks"][name]
        print(f"{name:<{width}}  " + "  ".join(f"{counts[s]:>14}" for s in statuses))
    print(f"records: {summary['records']}, theorem failures: {summary['theorem_failures']}")

    if not conjecture_only:
        if getattr(args, "json", None):
            _write(args.json, verify.report_json(config, records))
        if getattr(args, "csv", None):
            _write(args.csv, verify.summary_csv(records))
        if summary["theorem_failures"]:
            return EXIT_THEOREM_FAILURE
    return EXIT_OK


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "graph":
            return _cmd_graph(args)
        if args.command == "code":
            return _cmd_code(args)
        if args.command == "dual":
            return _cmd_dual(args)
        if args.command == "verify":
            return _run_sweep(args, conjecture_only=False)
        if args.command == "conjecture":
            return _run_sweep(args, conjecture_only=True)
        raise AssertionError(f"unhandled command {args.command!r}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
