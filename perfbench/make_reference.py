"""Regenerate reference.json: the graph invariants the output check needs.

    python3 perfbench/make_reference.py

For every unordered pair (a, b) of moduli used by a workload it records
the edge connectivity and girth computed by unitcodes at the commit that
defined the benchmark, and whether the graph has a 4-cycle (two vertices
with two common neighbours), found here with a plain adjacency-matrix
square.
"""

import json
import sys
from pathlib import Path

import numpy as np

import run

sys.path.insert(0, str(run.SRC))
from unitcodes import graphs  # noqa: E402
from unitcodes.rings import RingSpec  # noqa: E402


def graph_reference(a: int, b: int) -> dict:
    g = graphs.build(RingSpec(a, b))
    inv = graphs.invariants(g)
    adj = np.zeros((g.num_vertices, g.num_vertices), dtype=np.int64)
    for u, w in g.edges:
        adj[u, w] = adj[w, u] = 1
    common = adj @ adj
    np.fill_diagonal(common, 0)
    return {"lambda": inv.edge_connectivity, "girth": inv.girth,
            "c4": bool(common.max() >= 2)}


def main() -> None:
    pairs = sorted({(min(n, m), max(n, m)) for blocks in run.WORKLOADS.values()
                    for ns, ms, _ in blocks for n in ns for m in ms})
    lines = [f'  "{a},{b}": {json.dumps(graph_reference(a, b), sort_keys=True)}'
             for a, b in pairs]
    text = '{"pairs": {\n' + ",\n".join(lines) + "\n}}\n"
    (run.HERE / "reference.json").write_text(text)


if __name__ == "__main__":
    main()
