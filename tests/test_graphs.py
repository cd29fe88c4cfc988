"""Tests for unit graph construction and invariants.

Every structural claim is cross-checked against an independent oracle:
edges against a direct ring-arithmetic scan and the dense unit-sum mask,
girth against the delete-an-edge shortest-path trick, edge connectivity
against a pure Python Edmonds-Karp, bipartiteness against odd walk
counts, BFS levels against scipy's Dijkstra.
"""

import math
import tracemalloc
from collections import deque
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from unitcodes import graphs, verify
from unitcodes.graphs import (
    UnitGraph,
    build,
    dot_text,
    edge_count_formula,
    edge_list_text,
    edge_connectivity,
    export,
    girth,
    incidence_matrix,
    incidence_text,
    invariants,
    min_degree_formula,
    shortest_cycle,
)
from unitcodes.rings import RingSpec, euler_phi


# ---------------------------------------------------------------------------
# oracles


def oracle_edges(spec):
    """Enumerate edges straight from the ring axioms, one pair at a time."""
    out = []
    for u in range(spec.size):
        for w in range(u + 1, spec.size):
            (a1, b1), (a2, b2) = spec.element(u), spec.element(w)
            if math.gcd(a1 + a2, spec.n) == 1 and math.gcd(b1 + b2, spec.m) == 1:
                out.append((u, w))
    return out


def _dense_build(spec):
    """The brute-force construction: u ~ w iff their element sum is a unit,
    from a dense |V| x |V| mask."""
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


def neighbour_lists(g):
    """Sorted neighbours of each vertex, from the edge list alone."""
    out = [[] for _ in range(g.num_vertices)]
    for u, w in g.edges.tolist():
        out[u].append(w)
        out[w].append(u)
    return [sorted(nb) for nb in out]


def oracle_girth(g):
    """Shortest cycle through edge (u, w) = 1 + shortest u-w path avoiding it."""
    best = None
    nbrs = neighbour_lists(g)
    for u, w in g.edges.tolist():
        dist = _bfs_avoiding(nbrs, u, w)
        if dist[w] is not None and (best is None or dist[w] + 1 < best):
            best = dist[w] + 1
    return best


def _bfs_avoiding(nbrs, source, forbidden):
    dist = [None] * len(nbrs)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for nb in nbrs[v]:
            if v == source and nb == forbidden:
                continue
            if dist[nb] is None:
                dist[nb] = dist[v] + 1
                queue.append(nb)
    return dist


def oracle_edge_connectivity(g):
    """Pure Python Edmonds-Karp: min over t of max s-t flow with unit capacities."""
    nv = g.num_vertices
    if nv < 2:
        return 0
    best = None
    nbrs = neighbour_lists(g)
    for t in range(1, nv):
        flow = _max_flow(g, nbrs, 0, t)
        if best is None or flow < best:
            best = flow
        if best == 0:
            break
    return best


def _max_flow(g, nbrs, s, t):
    cap = {}
    for u, w in g.edges.tolist():
        cap[(u, w)] = 1
        cap[(w, u)] = 1
    flow = 0
    while True:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            v = queue.popleft()
            for nb in nbrs[v]:
                if nb not in parent and cap[(v, nb)] > 0:
                    parent[nb] = v
                    queue.append(nb)
        if t not in parent:
            return flow
        v = t
        while parent[v] is not None:
            p = parent[v]
            cap[(p, v)] -= 1
            cap[(v, p)] += 1
            v = p
        flow += 1


def oracle_bipartite(g):
    """Bipartite iff no closed walk of odd length: all odd traces of A^k vanish."""
    nv = g.num_vertices
    adj = np.zeros((nv, nv), dtype=object)
    for u, w in g.edges.tolist():
        adj[u, w] = 1
        adj[w, u] = 1
    power = adj.copy()
    for k in range(1, nv + 1):
        if k % 2 == 1 and np.trace(power) != 0:
            return False
        power = power @ adj
    return True


def oracle_diameter(g):
    """Floyd-Warshall over all pairs; None when some pair is unreachable."""
    nv = g.num_vertices
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(nv)] for i in range(nv)]
    for u, w in g.edges.tolist():
        dist[u][w] = 1
        dist[w][u] = 1
    for k in range(nv):
        dk = dist[k]
        for i in range(nv):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(nv):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    worst = max(max(row) for row in dist)
    return None if worst == inf else int(worst)


# ---------------------------------------------------------------------------
# construction


SMALL = [(n, m) for n in range(2, 9) for m in range(2, 9)]
PAIRS_16 = [(n, m) for n in range(2, 17) for m in range(2, 17)]


@pytest.mark.parametrize("n,m", SMALL)
def test_build_matches_ring_scan(n, m):
    g = build(RingSpec(n, m))
    assert [tuple(e) for e in g.edges.tolist()] == oracle_edges(g.spec)


@pytest.mark.parametrize("n,m", SMALL)
def test_edge_count_formula(n, m):
    g = build(RingSpec(n, m))
    assert g.num_edges == edge_count_formula(g.spec)


def test_anchor_5_5():
    g = build(RingSpec(5, 5))
    assert g.num_vertices == 25
    assert g.num_edges == 192


def test_anchor_2_2():
    g = build(RingSpec(2, 2))
    # only (0,0)+(1,1) and (0,1)+(1,0) sum to the unit (1,1)
    assert [tuple(e) for e in g.edges.tolist()] == [(0, 3), (1, 2)]


def test_edges_sorted_lexicographic():
    g = build(RingSpec(4, 5))
    edges = [tuple(e) for e in g.edges.tolist()]
    assert edges == sorted(edges)
    assert all(u < w for u, w in edges)
    assert g.edges.dtype == np.int32 and g.edges.shape == (g.num_edges, 2)
    assert not g.edges.flags.writeable


def test_adjacency_consistent_with_edges():
    g = build(RingSpec(6, 5))
    adj = g.adjacency
    assert adj.shape == (g.num_vertices, g.num_vertices)
    assert (adj != adj.T).nnz == 0
    assert (adj.data == 1).all()
    assert adj.has_sorted_indices
    nbrs = neighbour_lists(g)
    for v in range(g.num_vertices):
        assert adj.indices[adj.indptr[v]:adj.indptr[v + 1]].tolist() == nbrs[v]


@pytest.mark.parametrize("n,m", PAIRS_16 + [(31, 32)])
def test_build_matches_dense_construction(n, m):
    g, ref = build(RingSpec(n, m)), _dense_build(RingSpec(n, m))
    assert np.array_equal(g.edges, ref.edges)
    assert g.edges.dtype == np.int32 and not g.edges.flags.writeable
    adj, ref_adj = g.adjacency, ref.adjacency
    assert adj.shape == ref_adj.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(adj, name), getattr(ref_adj, name)), name
        assert getattr(adj, name).dtype == np.int32, name
    assert adj.has_sorted_indices


def test_build_peak_memory():
    # (45,45) has 2,025 vertices: a dense |V| x |V| mask step peaks at 36 MiB
    tracemalloc.start()
    try:
        build(RingSpec(45, 45))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_build_retains_little_memory():
    # (31,32) has 238,080 edges: 29 MiB as tuples, under 6 MiB as arrays
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build(RingSpec(31, 32))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.num_edges == edge_count_formula(g.spec)
    assert retained < 12 * 2**20


def test_degree_counts():
    g = build(RingSpec(3, 5))
    # odd-odd: self-paired vertices (2x unit) lose one, others have phi*phi
    phi = euler_phi(3) * euler_phi(5)
    for v in range(g.num_vertices):
        a, b = g.vertex_label(v)
        two = (2 * a % 3, 2 * b % 5)
        expect = phi - 1 if math.gcd(two[0], 3) == 1 and math.gcd(two[1], 5) == 1 else phi
        assert g.degree(v) == expect


def test_min_degree_formula():
    for n in range(2, 13):
        for m in range(2, 13):
            g = build(RingSpec(n, m))
            assert min(g.degree(v) for v in range(g.num_vertices)) == \
                min_degree_formula(RingSpec(n, m)), (n, m)


# ---------------------------------------------------------------------------
# invariants


@pytest.mark.parametrize("n,m", [(3, 5), (4, 5), (2, 9), (3, 4), (5, 5), (2, 2), (4, 4), (6, 4), (2, 3)])
def test_invariants_against_oracles(n, m):
    g = build(RingSpec(n, m))
    inv = invariants(g)
    assert inv.diameter == oracle_diameter(g)
    assert inv.connected == (oracle_diameter(g) is not None)
    assert inv.bipartite == oracle_bipartite(g)
    assert inv.girth == oracle_girth(g)
    assert inv.edge_connectivity == oracle_edge_connectivity(g)
    assert inv.min_degree == min(g.degree(v) for v in range(g.num_vertices))


def test_invariants_3_5():
    inv = invariants(build(RingSpec(3, 5)))
    assert inv.connected
    assert inv.diameter == 2
    assert inv.girth == 3
    assert not inv.bipartite
    assert inv.edge_connectivity == 7


def test_invariants_both_even_disconnected():
    for n, m in [(2, 2), (4, 4), (2, 6), (4, 2)]:
        inv = invariants(build(RingSpec(n, m)))
        assert not inv.connected
        assert inv.num_components > 1
        assert inv.diameter is None
        assert inv.edge_connectivity == 0


def test_invariants_one_even_bipartite():
    for n, m in [(2, 3), (4, 5), (3, 8), (9, 2), (6, 5)]:
        g = build(RingSpec(n, m))
        assert invariants(g).bipartite
        assert verify._parity_classes_separate(g)


def test_bipartition_is_parity_classes():
    # one-even case: the even/odd classes of the even coordinate are the
    # sides, the only 2-coloring of a connected graph
    g = build(RingSpec(4, 5))
    inv = invariants(g)
    assert inv.connected and inv.bipartite
    assert verify._parity_classes_separate(g)


UNIT_16 = [(n, m) for n in range(2, 17) for m in range(2, 17) if n % 2 == 1 or m % 2 == 1]


@pytest.mark.parametrize("n,m", UNIT_16)
def test_diameter_from_orbit_sources(n, m):
    # every pair with an odd modulus is connected; the full all-pairs
    # maximum is the reference for the per-orbit sources
    g = build(RingSpec(n, m))
    full = shortest_path(g.adjacency, method="D", unweighted=True, directed=False)
    assert invariants(g).diameter == int(full.max()), (n, m)


UNIT_10 = [(n, m) for n in range(2, 11) for m in range(2, 11)]


@pytest.mark.parametrize("n,m", UNIT_10)
def test_edge_connectivity_cross_check(n, m):
    g = build(RingSpec(n, m))
    assert edge_connectivity(g) == oracle_edge_connectivity(g)


def _graph_on(spec, edges):
    """An arbitrary simple graph on the spec's vertex set, as a UnitGraph."""
    edges = np.array(sorted({(min(u, w), max(u, w)) for u, w in edges if u != w}),
                     dtype=np.int32).reshape(-1, 2)
    edges.flags.writeable = False
    mask = np.zeros((spec.size, spec.size), dtype=bool)
    mask[edges[:, 0], edges[:, 1]] = mask[edges[:, 1], edges[:, 0]] = True
    return UnitGraph(spec=spec, edges=edges, adjacency=csr_matrix(mask).astype(np.int32))


@st.composite
def planted_cut_graphs(draw):
    """Two dense blocks joined by a few edges, so that lambda < delta is common."""
    spec = RingSpec(draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    order = draw(st.permutations(range(spec.size)))
    split = draw(st.integers(2, spec.size - 2))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.6, 0.8, 1.0]))
    edges = [e for block in (order[:split], order[split:])
             for e in combinations(block, 2) if rng.random() < density]
    edges += [(rng.choice(order[:split]), rng.choice(order[split:]))
              for _ in range(draw(st.integers(1, 3)))]
    return _graph_on(spec, edges)


# two K6 joined by two edges: lambda = 2 < delta = 5
@example(_graph_on(RingSpec(3, 4), [*combinations(range(6), 2), *combinations(range(6, 12), 2),
                                    (0, 6), (1, 7)]))
@settings(derandomize=True, deadline=None, max_examples=200)
@given(planted_cut_graphs())
def test_edge_connectivity_on_planted_cuts(g):
    assert edge_connectivity(g) == oracle_edge_connectivity(g)


@pytest.mark.parametrize("n,m", UNIT_10)
def test_dominating_set_is_valid(n, m):
    g = build(RingSpec(n, m))
    dom = graphs._dominating_set(g)
    nbrs = neighbour_lists(g)
    assert dom[0] == 0
    assert all(v in dom or any(w in dom for w in nbrs[v]) for v in range(g.num_vertices))


def test_dominating_set_memory():
    # int32 counts against int32 data: no upcast copy of the adjacency per pick
    g = build(RingSpec(31, 32))
    tracemalloc.start()
    try:
        graphs._dominating_set(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.adjacency.data.nbytes // 4


def test_edge_connectivity_flows_only_to_the_dominating_set(monkeypatch):
    g = build(RingSpec(13, 13))
    dom = graphs._dominating_set(g)
    calls = []
    flow = graphs.maximum_flow
    monkeypatch.setattr(graphs, "maximum_flow", lambda *args: calls.append(args) or flow(*args))
    assert edge_connectivity(g) == min_degree_formula(g.spec)
    assert len(calls) <= len(dom) - 1 < g.num_vertices - 1


@pytest.mark.parametrize("n,m", PAIRS_16)
def test_levels_match_dijkstra(n, m):
    # the both-even pairs are disconnected, so -1 marks the other components
    g = build(RingSpec(n, m))
    _, labels = connected_components(g.adjacency, directed=False)
    for roots in (graphs._orbit_sources(g.spec), np.unique(labels, return_index=True)[1]):
        dist = shortest_path(g.adjacency, method="D", unweighted=True, directed=False,
                             indices=roots)
        expect = np.where(np.isinf(dist), -1, dist).astype(int)
        assert (graphs._levels(g.adjacency, roots) == expect).all(), (n, m)


@st.composite
def planted_forest_and_cycle(draw):
    """A cycle of 3 to 7 vertices away from vertex 0, with pendant trees,
    then trees and isolated vertices, vertex 0 among them; odd cycles
    make the graph non-bipartite while vertex 0's component is a tree."""
    spec = RingSpec(draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    others = draw(st.permutations(range(1, spec.size)))
    length = draw(st.integers(3, min(7, len(others))))
    cycle = others[:length]
    edges = [(cycle[i - 1], cycle[i]) for i in range(length)]
    attached = draw(st.integers(0, len(others) - length))
    rng = draw(st.randoms(use_true_random=False))
    grown, tree = list(cycle), [0]
    for i, v in enumerate(others[length:]):
        if i < attached:  # hangs off the cycle's component
            edges.append((rng.choice(grown), v))
            grown.append(v)
        elif rng.random() < 0.3:  # starts a new tree
            tree = [v]
        else:  # hangs off the current tree, the first one holding vertex 0
            edges.append((rng.choice(tree), v))
            tree.append(v)
    return _graph_on(spec, edges)


@example(_graph_on(RingSpec(2, 4), [(0, 1), (2, 3), (3, 4), (2, 4)]))
@settings(derandomize=True, deadline=None, max_examples=200)
@given(planted_forest_and_cycle())
def test_colouring_and_girth_on_planted_components(g):
    assert invariants(g).bipartite == oracle_bipartite(g)
    cyc = shortest_cycle(g)
    assert len(cyc) == oracle_girth(g)
    # 2-regular, and no longer than the girth, so one cycle and not several
    degree = np.bincount(g.edges[cyc].ravel(), minlength=g.num_vertices)
    assert set(degree.tolist()) <= {0, 2}


@pytest.mark.parametrize("n,m", [(13, 13), (12, 13)])
def test_invariants_traverse_once(monkeypatch, n, m):
    # root 0 of the girth scan reads the diameter's traversal and meets the floor
    g = build(RingSpec(n, m))
    calls = {"levels": 0, "components": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(graphs, "_levels", counted("levels", graphs._levels))
    monkeypatch.setattr(graphs, "connected_components",
                        counted("components", graphs.connected_components))
    inv = invariants(g)
    assert inv.girth == (4 if inv.bipartite else 3)
    assert calls == {"levels": 1, "components": 1}


def test_shortest_cycle_is_a_cycle():
    g = build(RingSpec(3, 5))
    cyc = shortest_cycle(g)
    assert cyc is not None and len(cyc) == 3
    picked = [g.edges[i].tolist() for i in cyc]
    counts = {}
    for u, w in picked:
        counts[u] = counts.get(u, 0) + 1
        counts[w] = counts.get(w, 0) + 1
    assert all(c == 2 for c in counts.values())


def test_shortest_cycle_even_case():
    g = build(RingSpec(4, 5))
    cyc = shortest_cycle(g)
    assert len(cyc) == girth(g) == oracle_girth(g) == 4


def test_girth_floor_keeps_the_full_scan_cycle():
    # a unit graph is bipartite iff a modulus is even; bipartite=False
    # keeps the floor at 3, which a bipartite graph never reaches
    for n in range(2, 13):
        for m in range(2, 13):
            g = build(RingSpec(n, m))
            full = shortest_cycle(g, False)
            assert shortest_cycle(g, n % 2 == 0 or m % 2 == 0) == full, (n, m)
            assert shortest_cycle(g) == full, (n, m)
    # root 0 finds a 4-cycle first; the floor is 3, so the scan goes on
    g = _graph_on(RingSpec(2, 4), [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)])
    assert shortest_cycle(g) == shortest_cycle(g, False) == [4, 5, 6]


def test_girth_none_for_matching():
    # K2 components only: (2,2) is a perfect matching, no cycles
    assert girth(build(RingSpec(2, 2))) is None
    assert shortest_cycle(build(RingSpec(2, 2))) is None


# ---------------------------------------------------------------------------
# incidence and exports


def test_incidence_matrix_columns():
    g = build(RingSpec(3, 5))
    h = incidence_matrix(g, 2)
    assert (h.shape[0], h.shape[1]) == (g.num_vertices, g.num_edges)
    arr = h.array()
    for j, (u, w) in enumerate(g.edges.tolist()):
        col = np.nonzero(arr[:, j])[0]
        assert list(col) == sorted((u, w))
        assert arr[u, j] == 1 and arr[w, j] == 1


def test_incidence_matrix_entry_limit(monkeypatch):
    g = build(RingSpec(3, 5))  # 15 x 56 = 840 entries
    allocated = []
    zeros = np.zeros
    monkeypatch.setattr(graphs.np, "zeros", lambda *a, **kw: allocated.append(a) or zeros(*a, **kw))
    monkeypatch.setattr(graphs, "INCIDENCE_ENTRY_LIMIT", 839)
    with pytest.raises(ValueError, match="15 x 56 entries exceeds the limit 839"):
        incidence_matrix(g, 2)
    assert allocated == []
    monkeypatch.setattr(graphs, "INCIDENCE_ENTRY_LIMIT", 840)
    assert incidence_matrix(g, 2).shape == (15, 56)
    assert allocated == [((15, 56),)]


def test_edge_list_text_2_2():
    g = build(RingSpec(2, 2))
    assert edge_list_text(g) == "4 2\n0 3\n1 2\n"


def test_incidence_text_2_2():
    g = build(RingSpec(2, 2))
    assert incidence_text(g) == "4 2\n1 0\n0 1\n0 1\n1 0\n"


def test_dot_text_labels():
    g = build(RingSpec(2, 2))
    text = dot_text(g)
    assert text.startswith("graph unitgraph {\n")
    assert text.endswith("}\n")
    assert '  v0 [label="(0,0)"];\n' in text
    assert '  v3 [label="(1,1)"];\n' in text
    assert "  v0 -- v3;\n" in text
    assert "  v1 -- v2;\n" in text


def test_export_matches_text_functions():
    g = build(RingSpec(3, 2))
    assert export(g, "edges") == edge_list_text(g).encode()
    assert export(g, "incidence") == incidence_text(g).encode()
    assert export(g, "dot") == dot_text(g).encode()


def test_export_rejects_unknown_format():
    g = build(RingSpec(3, 2))
    with pytest.raises(ValueError):
        export(g, "graphml")
