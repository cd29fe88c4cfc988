"""Unit graphs of Z_n (+) Z_m: canonical construction, structural
invariants by independent algorithms, incidence matrices, and exporters.

Vertex order is (a, b) -> a*m + b; edges are (u, w) with u < w sorted
lexicographically, so every derived artifact (exports, incidence columns)
is deterministic across runs and platforms.

Conventions for degenerate values: diameter of a disconnected graph and
girth of a forest are "infinite" (None here, tagged strings in JSON);
edge connectivity of a disconnected graph is 0.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_flow, shortest_path

from .gfmatrix import GfMatrix, PrimeField
from .rings import ParityCase, RingSpec, euler_phi


@dataclass(frozen=True, eq=False)
class UnitGraph:
    spec: RingSpec
    edges: np.ndarray  # read-only int32 (E, 2): (u, w) with u < w, lexicographic
    adjacency: csr_matrix  # symmetric, unit data, sorted indices in each row

    @property
    def num_vertices(self) -> int:
        return self.spec.size

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        ptr = self.adjacency.indptr
        return int(ptr[v + 1] - ptr[v])

    def vertex_label(self, v: int) -> tuple[int, int]:
        return self.spec.element(v)


@dataclass(frozen=True)
class GraphInvariants:
    connected: bool
    num_components: int
    diameter: Optional[int]  # None = infinite (disconnected)
    bipartite: bool
    bipartition: Optional[tuple[frozenset[int], frozenset[int]]]
    girth: Optional[int]  # None = infinite (forest)
    min_degree: int
    edge_connectivity: int


def build(spec: RingSpec) -> UnitGraph:
    """Brute-force construction: u ~ w iff their element sum is a unit."""
    n, m = spec.n, spec.m
    coprime_n = np.array([math.gcd(a, n) == 1 for a in range(n)])
    coprime_m = np.array([math.gcd(b, m) == 1 for b in range(m)])

    # unit_sum[u, w] == True iff vertices u, w sum to a unit
    a = np.arange(n)
    b = np.arange(m)
    sum_a_unit = coprime_n[(a[:, None] + a[None, :]) % n]
    sum_b_unit = coprime_m[(b[:, None] + b[None, :]) % m]
    unit_sum = np.logical_and(
        np.kron(sum_a_unit, np.ones((m, m), dtype=bool)),
        np.tile(sum_b_unit, (n, n)),
    )
    np.fill_diagonal(unit_sum, False)

    edges = np.argwhere(np.triu(unit_sum)).astype(np.int32)
    edges.flags.writeable = False
    adjacency = csr_matrix(unit_sum).astype(np.int32)
    return UnitGraph(spec=spec, edges=edges, adjacency=adjacency)


def edge_count_formula(spec: RingSpec) -> int:
    """Closed-form edge count; pure arithmetic, no graph build."""
    n, m = spec.n, spec.m
    phi = euler_phi(n) * euler_phi(m)
    if n % 2 == 1 and m % 2 == 1:
        return (n * m - 1) * phi // 2
    return n * m * phi // 2


def min_degree_formula(spec: RingSpec) -> int:
    """Closed-form minimum degree, which the theorems equate with the edge
    connectivity and the code's minimum distance: x has phi(n) phi(m)
    neighbours, less one when 2x is a unit, as it is for some x exactly
    when n and m are both odd."""
    phi = euler_phi(spec.n) * euler_phi(spec.m)
    return phi - 1 if spec.parity_case() == ParityCase.BOTH_ODD else phi


def _bipartition(g: UnitGraph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """2-coloring by BFS over every component; None if an odd cycle exists."""
    ptr, nbrs = g.adjacency.indptr, g.adjacency.indices
    color = [-1] * g.num_vertices
    for start in range(g.num_vertices):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in nbrs[ptr[u]:ptr[u + 1]].tolist():
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    side0 = frozenset(v for v, c in enumerate(color) if c == 0)
    side1 = frozenset(v for v, c in enumerate(color) if c == 1)
    return side0, side1


def shortest_cycle(g: UnitGraph, bipartite: Optional[bool] = None) -> Optional[list[int]]:
    """A shortest cycle as a list of edge indices, or None for a forest.

    Per-root BFS: a non-tree edge closing at depths (d(u), d(w)) yields a
    closed walk; trimming the two tree paths at their lowest common
    ancestor leaves a simple cycle (tree paths cannot re-meet). The
    minimum over all roots and closing edges is the girth.

    The scan stops once a cycle reaches the floor, 4 for a bipartite graph
    (no odd cycles) and 3 otherwise; `bipartite` is worked out when not
    given. Later roots replace the best cycle only when strictly shorter,
    so stopping there returns the cycle the full scan returns.
    """
    if bipartite is None:
        bipartite = _bipartition(g) is not None
    floor = 4 if bipartite else 3
    best_len: Optional[int] = None
    best_cycle: Optional[list[tuple[int, int]]] = None
    nv = g.num_vertices
    ptr, nbrs = g.adjacency.indptr, g.adjacency.indices
    for root in range(nv):
        if best_len == floor:
            break
        dist = [-1] * nv
        parent = [-1] * nv
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best_len is not None and 2 * dist[u] >= best_len:
                continue
            for w in nbrs[ptr[u]:ptr[u + 1]].tolist():
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    cand = dist[u] + dist[w] + 1
                    if best_len is None or cand < best_len:
                        cycle = _extract_cycle(u, w, parent)
                        if best_len is None or len(cycle) < best_len:
                            best_len = len(cycle)
                            best_cycle = cycle
    if best_cycle is None:
        return None
    # edges are sorted, so their keys u |V| + w are too
    keys = g.edges[:, 0].astype(np.int64) * nv + g.edges[:, 1]
    return sorted(np.searchsorted(keys, [u * nv + w for u, w in best_cycle]).tolist())


def _extract_cycle(u: int, w: int, parent: list[int]) -> list[tuple[int, int]]:
    """Simple cycle through BFS-tree paths of u and w plus the edge (u, w)."""

    def path(v: int) -> list[int]:
        out = [v]
        while parent[v] != -1:
            v = parent[v]
            out.append(v)
        return out  # v .. root

    pu, pw = path(u), path(w)
    seen = {v: i for i, v in enumerate(pu)}
    for j, v in enumerate(pw):
        if v in seen:
            lca_u, lca_w = seen[v], j
            break
    verts = pu[: lca_u + 1] + list(reversed(pw[:lca_w]))
    edges = [(u, w)] + [(verts[i], verts[i + 1]) for i in range(len(verts) - 1)]
    return [(min(a, b), max(a, b)) for a, b in edges]


def girth(g: UnitGraph) -> Optional[int]:
    cyc = shortest_cycle(g)
    return None if cyc is None else len(cyc)


def _dominating_set(g: UnitGraph) -> list[int]:
    """Greedy dominating set: vertex 0 first, then, while some vertex is
    undominated, the vertex whose closed neighbourhood holds the most
    undominated vertices (ties to the smallest index)."""
    adj = g.adjacency
    undominated = np.ones(g.num_vertices, dtype=np.int64)
    chosen: list[int] = []
    v = 0
    while True:
        chosen.append(v)
        undominated[v] = 0
        undominated[adj.indices[adj.indptr[v]:adj.indptr[v + 1]]] = 0
        if not undominated.any():
            return chosen
        v = int(np.argmax(adj @ undominated + undominated))


def edge_connectivity(g: UnitGraph) -> int:
    """lambda = min(delta, max flow from 0 to each t in D minus {0}) for a
    dominating set D holding 0 (Matula 1987). If lambda < delta: |S| <= delta
    forces |dS| >= delta; so a cut below delta has more than lambda vertices
    on each side, and each side holds a vertex with no edge leaving it, so D
    meets both sides. D also meets every component, so a disconnected graph
    gives 0."""
    best = int(np.diff(g.adjacency.indptr).min())
    for t in _dominating_set(g)[1:]:
        best = min(best, int(maximum_flow(g.adjacency, 0, t).flow_value))
    return best


def _orbit_sources(spec: RingSpec) -> list[int]:
    """The vertices (gcd(a, n) mod n, gcd(b, m) mod m), one per orbit of the
    units acting by multiplication. For a unit u, x -> u x is an automorphism
    (u x + u y = u (x + y) is a unit iff x + y is), and a is a unit times
    gcd(a, n) in Z_n, so every vertex has the eccentricity of a source."""
    n, m = spec.n, spec.m
    return sorted({math.gcd(a, n) % n * m + math.gcd(b, m) % m
                   for a in range(n) for b in range(m)})


def invariants(g: UnitGraph) -> GraphInvariants:
    adj = g.adjacency
    ncomp, _ = connected_components(adj, directed=False)
    connected = ncomp == 1
    if connected:
        dists = shortest_path(adj, method="D", unweighted=True, directed=False,
                              indices=_orbit_sources(g.spec))
        diameter: Optional[int] = int(dists.max())
    else:
        diameter = None
    sides = _bipartition(g)
    cycle = shortest_cycle(g, sides is not None)
    return GraphInvariants(
        connected=connected,
        num_components=int(ncomp),
        diameter=diameter,
        bipartite=sides is not None,
        bipartition=sides,
        girth=None if cycle is None else len(cycle),
        min_degree=int(np.diff(adj.indptr).min()),
        edge_connectivity=edge_connectivity(g),
    )


def incidence_matrix(g: UnitGraph, r: int) -> GfMatrix:
    """|V| x |E| unoriented incidence matrix over GF(r); columns follow
    the canonical edge order."""
    field = PrimeField(r)
    mat = np.zeros((g.num_vertices, g.num_edges), dtype=np.int64)
    mat[g.edges.T, np.arange(g.num_edges)] = 1
    return GfMatrix(field, mat)


def edge_list_text(g: UnitGraph) -> str:
    lines = [f"{g.num_vertices} {g.num_edges}"]
    lines += [f"{u} {w}" for u, w in g.edges.tolist()]
    return "\n".join(lines) + "\n"


def incidence_text(g: UnitGraph) -> str:
    mat = incidence_matrix(g, 2).array()
    lines = [f"{g.num_vertices} {g.num_edges}"]
    lines += [" ".join(str(int(x)) for x in row) for row in mat]
    return "\n".join(lines) + "\n"


def dot_text(g: UnitGraph) -> str:
    lines = ["graph unitgraph {"]
    for v in range(g.num_vertices):
        a, b = g.vertex_label(v)
        lines.append(f'  v{v} [label="({a},{b})"];')
    for u, w in g.edges.tolist():
        lines.append(f"  v{u} -- v{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


EXPORTERS = {
    "edges": edge_list_text,
    "incidence": incidence_text,
    "dot": dot_text,
}


def export(g: UnitGraph, fmt: str) -> bytes:
    try:
        render = EXPORTERS[fmt]
    except KeyError:
        raise ValueError(f"unknown export format {fmt!r}; expected one of {sorted(EXPORTERS)}")
    return render(g).encode("ascii")
