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
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_flow

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
    girth: Optional[int]  # None = infinite (forest)
    min_degree: int
    edge_connectivity: int


def _shifted_units(k: int) -> np.ndarray:
    """k x phi(k) table whose row a holds the y with a + y a unit, in order."""
    a = np.arange(k, dtype=np.int32)
    return np.nonzero(np.gcd((a[:, None] + a) % k, k) == 1)[1].astype(np.int32).reshape(k, -1)


def build(spec: RingSpec) -> UnitGraph:
    """x ~ y iff x + y is a unit, so x's neighbours are U - x less x. Row
    a m + b is a-major over the tables' rows a and b, so it comes out sorted."""
    nv = spec.size
    cols = (_shifted_units(spec.n)[:, None, :, None] * spec.m
            + _shifted_units(spec.m)[None, :, None, :]).reshape(nv, -1)
    rows = np.broadcast_to(np.arange(nv, dtype=np.int32)[:, None], cols.shape)
    keep, upper = cols != rows, cols > rows
    indices = cols[keep]
    indptr = np.r_[0, np.cumsum(keep.sum(axis=1))].astype(np.int32)
    adjacency = csr_matrix((np.ones_like(indices), indices, indptr), shape=(nv, nv))
    edges = np.stack((rows[upper], cols[upper])).T  # column-major, as each end is read whole
    edges.flags.writeable = False
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


def _levels(adj: csr_matrix, roots: list[int] | np.ndarray) -> np.ndarray:
    """Breadth-first levels from several roots at once: row i holds each
    vertex's distance from roots[i], or -1 where unreachable. Each level is
    one sparse product of the adjacency with the frontier; float32 counts
    neighbours exactly below 2^24 and takes scipy's fastest product."""
    adj = adj.astype(np.float32)
    levels = np.full((adj.shape[0], len(roots)), -1, dtype=np.int32)
    levels[roots, np.arange(len(roots))] = 0
    frontier = levels == 0
    depth = 0
    while frontier.any() and (levels < 0).any():
        depth += 1
        frontier = (adj @ frontier.astype(np.float32) > 0) & (levels < 0)
        levels[frontier] = depth
    return levels.T


def _two_colourable(g: UnitGraph, level: np.ndarray) -> bool:
    """Given each vertex's level from a root of its component: an edge
    inside one level closes an odd cycle, and without one the level
    parities are a 2-colouring."""
    return not np.any(level[g.edges[:, 0]] == level[g.edges[:, 1]])


def shortest_cycle(g: UnitGraph, bipartite: Optional[bool] = None) -> Optional[list[int]]:
    """A shortest cycle as a list of edge indices, or None for a forest;
    ``bipartite`` is worked out when not given (see ``_girth_scan``)."""
    labels = connected_components(g.adjacency, directed=False)[1]
    levels = _levels(g.adjacency, np.unique(labels, return_index=True)[1])
    if bipartite is None:
        bipartite = _two_colourable(g, levels.max(axis=0))
    return _girth_scan(g, bipartite, levels[0])


def _girth_scan(g: UnitGraph, bipartite: bool, first: np.ndarray) -> Optional[list[int]]:
    """Shortest cycle by one BFS tree per root; ``first`` is vertex 0's
    levels. A parent is the least neighbour one level up. A non-tree edge
    (u, w) closes a walk of d(u) + d(w) + 1 edges, and trimming its two
    tree paths at their lowest common ancestor leaves a simple cycle. At
    a root on a shortest cycle the least such walk is as long as that
    cycle, so the best over all roots is a shortest cycle.

    The scan stops once a cycle reaches the floor, 4 for a bipartite graph
    (no odd cycles) and 3 otherwise. Later roots replace the best cycle
    only when strictly shorter, so stopping there returns the cycle the
    full scan returns.
    """
    floor = 4 if bipartite else 3
    best: Optional[list[tuple[int, int]]] = None
    nv = g.num_vertices
    u, w = g.edges[:, 0], g.edges[:, 1]
    for root in range(nv):
        if best is not None and len(best) == floor:
            break
        level = first if root == 0 else _levels(g.adjacency, [root])[0]
        lu, lw = level[u], level[w]
        down, up = lw == lu + 1, lu == lw + 1
        parent = np.full(nv, nv, dtype=np.int64)
        np.minimum.at(parent, np.r_[w[down], u[up]], np.r_[u[down], w[up]])
        closing = (lu >= 0) & (parent[w] != u) & (parent[u] != w)
        if closing.any():
            e = int(np.argmin(np.where(closing, lu + lw, 2 * nv)))
            cycle = _extract_cycle(int(u[e]), int(w[e]), parent.tolist(), level.tolist())
            if best is None or len(cycle) < len(best):
                best = cycle
    if best is None:
        return None
    # edges are sorted, so their keys u |V| + w are too
    keys = g.edges[:, 0].astype(np.int64) * nv + g.edges[:, 1]
    return sorted(np.searchsorted(keys, [a * nv + b for a, b in best]).tolist())


def _extract_cycle(u: int, w: int, parent: list[int], level: list[int]) -> list[tuple[int, int]]:
    """Simple cycle of the edge (u, w) and the BFS-tree paths from u and w
    up to their lowest common ancestor, as sorted vertex pairs."""
    left, right = [u], [w]
    while left[-1] != right[-1]:  # step up from the deeper end
        if level[left[-1]] >= level[right[-1]]:
            left.append(parent[left[-1]])
        else:
            right.append(parent[right[-1]])
    verts = left + right[-2::-1]
    return [(min(a, b), max(a, b)) for a, b in zip(verts, verts[1:] + verts[:1])]


def girth(g: UnitGraph) -> Optional[int]:
    cyc = shortest_cycle(g)
    return None if cyc is None else len(cyc)


def _dominating_set(g: UnitGraph) -> list[int]:
    """Greedy dominating set: vertex 0 first, then, while some vertex is
    undominated, the vertex whose closed neighbourhood holds the most
    undominated vertices (ties to the smallest index)."""
    adj = g.adjacency
    undominated = np.ones(g.num_vertices, dtype=np.int32)  # int32 data: no upcast
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
    """One breadth-first traversal gives the diameter, the 2-colouring and
    root 0 of the girth scan: from the orbit sources, vertex 0 first, for
    a connected graph, or else from the first vertex of each component."""
    adj = g.adjacency
    ncomp, labels = connected_components(adj, directed=False)
    connected = ncomp == 1
    levels = _levels(adj, _orbit_sources(g.spec) if connected
                     else np.unique(labels, return_index=True)[1])
    bipartite = _two_colourable(g, levels[0] if connected else levels.max(axis=0))
    cycle = _girth_scan(g, bipartite, levels[0])
    return GraphInvariants(
        connected=connected,
        num_components=int(ncomp),
        diameter=int(levels.max()) if connected else None,
        bipartite=bipartite,
        girth=None if cycle is None else len(cycle),
        min_degree=int(np.diff(adj.indptr).min()),
        edge_connectivity=edge_connectivity(g),
    )


# Largest |V| |E| for a dense incidence matrix: 256 MiB of int64 entries
INCIDENCE_ENTRY_LIMIT = 1 << 25


def incidence_matrix(g: UnitGraph, r: int) -> GfMatrix:
    """|V| x |E| unoriented incidence matrix over GF(r); columns follow
    the canonical edge order. Raises ValueError above
    ``INCIDENCE_ENTRY_LIMIT`` entries, before allocating."""
    field = PrimeField(r)
    if g.num_vertices * g.num_edges > INCIDENCE_ENTRY_LIMIT:
        raise ValueError(f"incidence matrix of {g.num_vertices} x {g.num_edges} entries "
                         f"exceeds the limit {INCIDENCE_ENTRY_LIMIT}")
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
