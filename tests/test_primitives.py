"""Pipeline subroutines: reduce, split, peel, pull up, sparsify."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from shortcycles import (GraphError, MultiGraph, contract,
                         graph_reduce, low_diam_decomp, naive_short_cycle,
                         pull_up, sparsify, split_circuit, tree_split)
from shortcycles.engine import _naive_round
from shortcycles.graph import euler_tours, flat_adjacency_np
from shortcycles.io import d_regular, gnm, parallel_gadgets
from shortcycles.ldd import (_active_edges, _class_edges, _clustering,
                             single_cluster)
from shortcycles.primitives import Cycle, VertexDisjointCycleSet

import naive_reference
import tree_reference
from conftest import (connected_components, cycle_graph,
                      multigraph_with_holes, part_array, part_trees, parts_of,
                      path_graph, random_multigraph, recomputed_degrees,
                      star_graph, tree_degrees)


# -- VertexDisjointCycleSet -------------------------------------------------

def _cycle_set_views(cs):
    return ([(c.edges, c.vertices) for c in cs.cycles], cs.used_vertices,
            cs.total_vertices, cs.total_edges, cs.n_cycles)


def test_cycle_set_built_from_arrays_adds_or_both():
    """A set built from flat arrays, one built by add, and ones mixing add
    with extend, in any split, give the same cycles, used vertices and
    totals; reading a view between changes does not freeze it."""
    rng = random.Random(11)
    for trial in range(30):
        cycles, free = [], list(range(60))
        rng.shuffle(free)
        while free and rng.random() < 0.9:
            k = min(len(free), rng.randrange(1, 6))
            vs, free = free[:k], free[k:]
            cycles.append(Cycle(edges=rng.sample(range(500), k), vertices=vs))
        flat = VertexDisjointCycleSet(
            [v for c in cycles for v in c.vertices],
            [e for c in cycles for e in c.edges],
            [len(c) for c in cycles])
        added = VertexDisjointCycleSet()
        for c in cycles:
            added.add(c)
        mixed = VertexDisjointCycleSet()
        for c in cycles:
            if rng.random() < 0.5:
                mixed.add(c)
            else:
                one = VertexDisjointCycleSet()
                one.add(c)
                mixed.extend(one)
            if rng.random() < 0.3:
                _cycle_set_views(mixed)
            mixed.extend(VertexDisjointCycleSet())
        want = ([(c.edges, c.vertices) for c in cycles],
                {v for c in cycles for v in c.vertices},
                sum(map(len, cycles)), sum(map(len, cycles)), len(cycles))
        for cs in (flat, added, mixed):
            assert _cycle_set_views(cs) == want
        assert flat.arrays()[2].tolist() == [len(c) for c in cycles]
        assert (flat.first_vertices().tolist()
                == [c.vertices[0] for c in cycles])
        order = list(range(len(cycles)))
        rng.shuffle(order)
        assert ([(c.edges, c.vertices) for c in flat.take(order).cycles]
                == [(cycles[i].edges, cycles[i].vertices) for i in order])


def test_cycle_set_empty():
    for cs in (VertexDisjointCycleSet(), VertexDisjointCycleSet([], [], [])):
        cs.extend(VertexDisjointCycleSet())
        assert cs.cycles == [] and cs.used_vertices == set()
        assert cs.total_vertices == cs.total_edges == cs.n_cycles == 0
        assert [len(a) for a in cs.arrays()] == [0, 0, 0]
        assert cs.take([]).cycles == []


def test_cycle_set_rejects_unequal_lengths():
    with pytest.raises(GraphError):
        VertexDisjointCycleSet().add(Cycle(edges=[0, 1], vertices=[0]))


# -- graph_reduce -----------------------------------------------------------

def test_reduce_no_split_needed():
    g = MultiGraph(2)
    for _ in range(4):
        g.add_edge(0, 1)
    rm = graph_reduce(g)
    assert rm.h.n_total == 2
    assert rm.h.m_active == 4
    assert max(rm.h.deg) == 4


def test_reduce_rejects_sparse():
    g = star_graph(8)
    g.add_vertices(1)
    with pytest.raises(GraphError):
        graph_reduce(g)  # n=10, m=8


def test_reduce_splits_high_degree_vertex():
    g = MultiGraph(4)
    for _ in range(3):
        g.add_edge(0, 1)
    for _ in range(3):
        g.add_edge(0, 2)
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    assert g.degree(0) == 6 and g.m_active == 8
    rm = graph_reduce(g)  # cap ceil(16/4) = 4
    assert rm.h.n_total <= 8
    assert rm.h.m_active == 8
    assert max(rm.h.deg) <= 4
    assert rm.origin_vertex.tolist().count(0) == 2


def test_reduce_bounds_random(rng):
    for _ in range(50):
        n = rng.randrange(2, 25)
        m = rng.randrange(n, 4 * n)
        g = random_multigraph(rng, n, m)
        rm = graph_reduce(g)
        cap = -(-2 * m // n)
        assert rm.h.n_total <= 2 * n
        assert rm.h.m_active == m
        assert max(rm.h.deg) <= cap
        assert sorted(rm.origin_edge) == g.active_edges()
        for he, e in enumerate(rm.origin_edge):
            hu = rm.origin_vertex[rm.h.eu[he]]
            hv = rm.origin_vertex[rm.h.ev[he]]
            assert {hu, hv} == {g.eu[e], g.ev[e]}


def _reference_reduce(g, n_override=None):
    """The per-slot loop graph_reduce replaced: each active vertex's
    incident edges in order, a loop over two slots, a new copy every
    d_cap slots, an isolated vertex keeping one copy."""
    n = g.n_active if n_override is None else n_override
    d_cap = -(-2 * g.m_active // n)
    origin_vertex = []
    copy_u = [0] * g.m_total
    copy_v = [0] * g.m_total
    for v in g.active_vertices():
        filled = 0
        cur = -1
        for e in g.incident(v):
            slots = 2 if g.eu[e] == g.ev[e] else 1
            for s in range(slots):
                if filled % d_cap == 0:
                    cur = len(origin_vertex)
                    origin_vertex.append(v)
                filled += 1
                if g.eu[e] == v and (slots == 1 or s == 0):
                    copy_u[e] = cur
                else:
                    copy_v[e] = cur
        if filled == 0:
            origin_vertex.append(v)
    h = MultiGraph(len(origin_vertex))
    origin_edge = []
    for e in g.active_edges():
        h.add_edge(copy_u[e], copy_v[e])
        origin_edge.append(e)
    return h, origin_vertex, origin_edge


def test_reduce_matches_per_slot_loop(rng):
    """Multigraphs with loops, isolated and inactive vertices, deleted
    edges, with and without n_override."""
    checked = 0
    for trial in range(60):
        n = rng.randrange(2, 30)
        g = random_multigraph(rng, n, rng.randrange(n, 6 * n))
        for _ in range(rng.randrange(3)):
            g.add_vertices(1)   # isolated
        for v in rng.sample(range(n), rng.randrange(n // 3 + 1)):
            g.delete_vertex(v)
        for e in g.active_edges():
            if rng.random() < 0.1:
                g.delete_edge(e)
        for n_override in (None, g.n_total, g.n_total + rng.randrange(9)):
            n_eff = g.n_active if n_override is None else n_override
            if n_eff < 1 or g.m_active < n_eff:
                continue
            rm = graph_reduce(g, n_override=n_override)
            h, origin_vertex, origin_edge = _reference_reduce(g, n_override)
            assert list(rm.h.eu) == list(h.eu)
            assert list(rm.h.ev) == list(h.ev)
            assert list(rm.h.deg) == list(h.deg)
            assert ([rm.h.incident(v) for v in range(rm.h.n_total)]
                    == [h.incident(v) for v in range(h.n_total)])
            assert rm.h.n_active == h.n_active
            assert rm.h.m_active == h.m_active
            assert rm.origin_vertex.tolist() == origin_vertex
            assert rm.origin_edge.tolist() == origin_edge
            checked += 1
    assert checked > 60


# -- split_circuit ----------------------------------------------------------

def test_split_simple_triangle():
    g = cycle_graph(3)
    out = split_circuit([0, 1, 2], [0, 1, 2], g)
    assert len(out) == 1
    assert sorted(out[0].edges) == [0, 1, 2]


def test_split_figure_eight():
    """a-b-a-c-a through parallel edges pops two 2-cycles."""
    g = MultiGraph(3)
    e = [g.add_edge(0, 1), g.add_edge(1, 0),
         g.add_edge(0, 2), g.add_edge(2, 0)]
    out = split_circuit([0, 1, 0, 2], e, g)
    assert len(out) == 2
    assert sorted(len(c) for c in out) == [2, 2]
    assert sorted(x for c in out for x in c.edges) == e


def test_split_self_loop():
    g = MultiGraph(1)
    e = g.add_edge(0, 0)
    out = split_circuit([0], [e], g)
    assert len(out) == 1 and out[0].edges == [e]


def test_split_rejects_repeated_edge():
    with pytest.raises(GraphError):
        split_circuit([0, 1], [3, 3])


def test_split_rejects_open_walk():
    g = path_graph(3)
    with pytest.raises(GraphError):
        split_circuit([0, 1], [0, 1], g)


def test_split_conserves_edges(rng):
    """Euler circuits of random even graphs split into simple cycles."""
    for _ in range(25):
        g = MultiGraph(10)
        for _ in range(rng.randrange(2, 6)):
            verts = rng.sample(range(10), rng.randrange(2, 6))
            for i in range(len(verts)):
                g.add_edge(verts[i], verts[(i + 1) % len(verts)])
        tour = max(euler_tours(flat_adjacency_np(g)), key=len)
        verts = _walk_vertices(g, tour)
        out = split_circuit(verts, tour, g)
        assert sorted(e for c in out for e in c.edges) == sorted(tour)
        for c in out:
            assert len(set(c.vertices)) == len(c.vertices)


def _walk_vertices(g, tour):
    """Vertex sequence of a closed edge walk, one vertex per edge."""
    if not tour:
        return []
    a, b = g.endpoints(tour[0])
    for start in {a, b}:
        cur = start
        verts = []
        ok = True
        for e in tour:
            u, v = g.endpoints(e)
            if cur == u:
                verts.append(cur)
                cur = v
            elif cur == v:
                verts.append(cur)
                cur = u
            else:
                ok = False
                break
        if ok and cur == start:
            return verts
    raise AssertionError("tour is not a closed walk")


# -- euler_tours ------------------------------------------------------------

def test_euler_tour_covers_component(rng):
    """One closed tour per component with an edge, covering exactly the
    component's edges, with loops, parallel edges and deleted edges."""
    for _ in range(20):
        g = MultiGraph(8)
        for _ in range(3):
            verts = rng.sample(range(8), rng.randrange(2, 5))
            for i in range(len(verts)):
                g.add_edge(verts[i], verts[(i + 1) % len(verts)])
        g.add_edge(0, 0)
        g.delete_edge(g.add_edge(1, 2))
        tours = euler_tours(flat_adjacency_np(g))
        comps = [c for c in connected_components(g)
                 if any(g.incident(v) for v in c)]
        assert len(tours) == len(comps)
        for comp, tour in zip(comps, tours):
            in_comp = {e for v in comp for e in g.incident(v)}
            assert sorted(tour) == sorted(in_comp)
            _walk_vertices(g, tour)


def test_euler_tour_isolated_component():
    g = MultiGraph(3)
    g.add_edge(1, 2)
    g.add_edge(2, 1)
    assert euler_tours(flat_adjacency_np(g)) == [[0, 1]]
    assert euler_tours(flat_adjacency_np(MultiGraph(2))) == []


# -- naive_short_cycle ------------------------------------------------------

def test_naive_triangle_peels_away():
    out = naive_short_cycle(cycle_graph(3))
    assert out.cycles == []


def test_naive_k4():
    g = MultiGraph(4)
    for u in range(4):
        for v in range(u + 1, 4):
            g.add_edge(u, v)
    out = naive_short_cycle(g)
    assert len(out.cycles) == 1
    assert 3 <= len(out.cycles[0]) <= 4  # 2*log2(4) = 4


def test_naive_parallel_triple():
    g = MultiGraph(2)
    for _ in range(3):
        g.add_edge(0, 1)
    out = naive_short_cycle(g)
    assert len(out.cycles) == 1
    assert len(out.cycles[0]) == 2


def test_naive_does_not_mutate():
    g = cycle_graph(5)
    g.add_edge(0, 2)
    g.add_edge(1, 3)
    before = bytes(g.eactive)
    naive_short_cycle(g)
    assert bytes(g.eactive) == before


def test_naive_length_and_yield_bounds(rng):
    """Length <= 2 log2 n always; yield bound on min-degree-3 inputs."""
    for trial in range(40):
        n = rng.randrange(6, 40)
        d = rng.choice([3, 4, 5, 6])
        if n * d % 2:
            n += 1
        g = d_regular(n, d, seed=trial)
        out = naive_short_cycle(g)
        delta = g.max_degree()
        m = g.m_active
        bound = 2 * math.log2(g.n_active)
        seen = set()
        for c in out.cycles:
            assert len(c) <= bound
            assert not (set(c.vertices) & seen)
            seen.update(c.vertices)
        assert out.total_vertices * delta >= m - 2 * g.n_active


def _same_cycles(got, want):
    assert ([(c.edges, c.vertices) for c in got.cycles]
            == [(c.edges, c.vertices) for c in want.cycles])
    assert got.used_vertices == want.used_vertices


def _damaged_multigraph(rng, n, m):
    """Random multigraph with loops and parallel edges, a tenth of its
    edges and then a tenth of its vertices deleted."""
    g = random_multigraph(rng, n, m)
    for e in rng.sample(range(m), m // 10):
        g.delete_edge(e)
    for v in rng.sample(range(n), n // 10):
        g.delete_vertex(v)
    return g


def test_naive_matches_reference(rng):
    """The peel gives the reference peel's cycles, in order, on the whole
    graph, on random vertex subsets (induced), with the subset's edges
    passed in any order, and with every active edge passed, those leaving
    the subset being ignored."""
    found = 0
    for trial in range(80):
        n = rng.randrange(1, 40)
        g = _damaged_multigraph(rng, n, rng.randrange(0, 5 * n))
        want = naive_reference.naive_short_cycle(g)
        _same_cycles(naive_short_cycle(g), want)
        found += len(want.cycles)
        active = g.active_vertices()
        vs = rng.sample(active, rng.randrange(0, len(active) + 1))
        want = naive_reference.naive_short_cycle(g, vs)
        _same_cycles(naive_short_cycle(g, vs), want)
        member = set(vs)
        edges = [e for e in g.active_edges()
                 if g.eu[e] in member and g.ev[e] in member]
        rng.shuffle(edges)
        _same_cycles(naive_short_cycle(g, vs, edges), want)
        _same_cycles(naive_short_cycle(g, vs, g.active_edges()), want)
        found += len(want.cycles)
    assert found > 200


def _hub_and_blobs():
    """A hub joined three times to each of two K6 blobs: the first cycle
    runs through the hub, whose death splits the component in two blobs
    that still have cycles."""
    g = MultiGraph(13)
    for blob in (range(1, 7), range(7, 13)):
        for u in blob:
            for v in blob:
                if u < v:
                    g.add_edge(u, v)
        for v in list(blob)[:3]:
            g.add_edge(0, v)
    return g


def _interleaved_union(rng, pieces):
    """The disjoint union of `pieces` with the vertex ids of all pieces
    shuffled together and the edge ids shuffled."""
    n = sum(p.n_total for p in pieces)
    ids = list(range(n))
    rng.shuffle(ids)
    ends, base = [], 0
    for p in pieces:
        ends += [(ids[base + u], ids[base + v])
                 for u, v in zip(p.eu, p.ev)]
        base += p.n_total
    rng.shuffle(ends)
    return MultiGraph.from_edges(n, [u for u, _ in ends],
                                 [v for _, v in ends])


def test_naive_lockstep_matches_reference_on_many_components(rng):
    """Tens of components stepping together, vertex ids interleaved across
    them, with loops, parallel edges and a component that splits when its
    first cycle dies: the cycles, their order and the used vertices are
    the reference's, for the whole graph and for a vertex subset passed
    unsorted with repeats, its edges shuffled or every active edge."""
    found = 0
    for trial in range(8):
        pieces = [_hub_and_blobs(), _hub_and_blobs()]
        for i in range(rng.randrange(20, 30)):
            kind = i % 4
            if kind == 0:
                n = 2 * rng.randrange(5, 15)
                pieces.append(d_regular(n, rng.choice([3, 4, 5]),
                                        seed=rng.randrange(10 ** 6)))
            elif kind == 1:
                n = rng.randrange(6, 25)
                pieces.append(gnm(n, rng.randrange(n, 4 * n),
                                  seed=rng.randrange(10 ** 6)))
            elif kind == 2:
                pieces.append(parallel_gadgets(2 * rng.randrange(1, 4),
                                               rng.randrange(2, 5)))
            else:
                pieces.append(random_multigraph(rng, rng.randrange(4, 12),
                                                rng.randrange(8, 40)))
        g = _interleaved_union(rng, pieces)
        assert g.n_total >= 200 and len(connected_components(g)) >= 20
        want = naive_reference.naive_short_cycle(g)
        _same_cycles(naive_short_cycle(g), want)
        found += len(want.cycles)
        vs = rng.sample(range(g.n_total), g.n_total * 4 // 5)
        want = naive_reference.naive_short_cycle(g, vs)
        member = set(vs)
        edges = [e for e in g.active_edges()
                 if g.eu[e] in member and g.ev[e] in member]
        rng.shuffle(edges)
        repeated = vs + rng.sample(vs, len(vs) // 4)
        rng.shuffle(repeated)
        _same_cycles(naive_short_cycle(g, repeated, edges), want)
        _same_cycles(naive_short_cycle(g, repeated, g.active_edges()), want)
        found += len(want.cycles)
    assert found > 400


def _engine_input(g, n):
    """The graph the driver hands the engine for g's lowest 20n edges:
    degree-reduced, on 2n vertex slots."""
    gp = MultiGraph.from_edges(g.n_total, g.eu[:20 * n], g.ev[:20 * n])
    h = graph_reduce(gp, n_override=n).h
    h.add_vertices(2 * n - h.n_total)
    return h


@pytest.mark.parametrize("make,beta", [
    (lambda: _engine_input(parallel_gadgets(256, 60, seed=1), 256),
     Fraction(1, 12)),
    (lambda: d_regular(300, 7, seed=2), Fraction(1, 12)),
    (lambda: d_regular(300, 7, seed=2), Fraction(1)),  # clusters of 1-20+
])
def test_naive_on_ldd_clusters_matches_reference(make, beta):
    """Every cluster of a clustering, passed with its edge slice as the
    engine's small-cluster branch does, gives the reference's cycles."""
    g = make()
    for seed in range(3):
        ldd = low_diam_decomp(g, beta, seed)
        for i, cluster in enumerate(ldd.clusters):
            edges = ldd.edges[ldd.edge_label == i]
            _same_cycles(naive_short_cycle(g, cluster, edges),
                         naive_reference.naive_short_cycle(g, cluster))


@pytest.mark.parametrize("make,beta", [
    (lambda s: parallel_gadgets(128, 60, seed=s), Fraction(1, 12)),
    (lambda s: parallel_gadgets(128, 60, seed=s), Fraction(1)),
    (lambda s: d_regular(600, 10, seed=s), Fraction(1)),
    (lambda s: multigraph_with_holes(s, 400, 2400), Fraction(1)),
], ids=["gadgets-b12", "gadgets-b1", "d_regular", "holes"])
def test_naive_round_matches_per_cluster_peels(make, beta):
    """The engine's naive round, one peel over every small cluster with
    only their internal edges while the edges between them stay active in
    g, gives, once put in cluster order, each small cluster's reference
    peel in turn. Small is every cluster, then every one but the
    largest."""
    crossing = found = 0
    for seed in range(3):
        g = make(seed)
        eu = np.frombuffer(g.eu, dtype=np.int32)
        ev = np.frombuffer(g.ev, dtype=np.int32)
        ldd = low_diam_decomp(g, beta, seed)
        sizes = np.diff(ldd.member_starts)
        for small in (sizes > 0, sizes < sizes.max()):
            want = VertexDisjointCycleSet()
            for i in np.flatnonzero(small).tolist():
                want.extend(naive_reference.naive_short_cycle(
                    g, ldd.clusters[i]))
            got = VertexDisjointCycleSet()
            _naive_round(g, ldd, small, got)
            _same_cycles(got, want)
            lab = ldd.labels
            crossing += int(np.count_nonzero(
                small[lab[eu[ldd.crossing]]] & small[lab[ev[ldd.crossing]]]))
            found += len(want.cycles)
    assert crossing and found


# -- tree_split -------------------------------------------------------------

def _split(g, labels, threshold):
    """tree_split of the tree of g's first component: (parts, D, X)."""
    ldd = single_cluster(g, connected_components(g)[0])
    weights = np.zeros(g.n_total, dtype=np.int64)
    weights[list(labels)] = list(labels.values())
    parts = parts_of(tree_split(ldd, weights, threshold))
    return parts, int(tree_degrees(ldd.parent).max()), max(labels.values())


def test_tree_split_path_of_four():
    parts, _, _ = _split(path_graph(4), {v: 1 for v in range(4)}, 2)
    assert sorted(sum(1 for _ in p) for p in parts) == [2, 2]
    assert sorted(v for p in parts for v in p) == [0, 1, 2, 3]


def test_tree_split_single_vertex():
    parts, _, _ = _split(MultiGraph(1), {0: 5}, 3)
    assert parts == [[0]]


def test_tree_split_star():
    labels = {0: 0}
    labels.update({i: 1 for i in range(1, 7)})
    parts, _, _ = _split(star_graph(6), labels, 2)
    total = 0
    for p in parts:
        s = sum(labels[v] for v in p)
        assert 2 <= s <= 6 * 2 + 1
        total += s
    assert total == 6


def test_tree_split_below_threshold_one_part():
    """A tree whose label sum is below the threshold stays one part; a
    threshold below 1 raises."""
    g = path_graph(3)
    parts, _, _ = _split(g, {0: 1, 1: 0, 2: 0}, 2)
    assert parts == [[0, 1, 2]]
    with pytest.raises(GraphError):
        _split(g, {0: 1, 1: 0, 2: 0}, 0)


def test_tree_split_merges_into_shallowest_cut():
    """Root 0 (a leaf) - 1; 1 has children 2 (heavy) and 3 - 4 - 5 (5
    heavy). The light root component {0, 1, 3, 4} has two adjacent cuts:
    2 at depth 2 and 5 at depth 4. A DFS preorder from 0 reaches 5
    first; the root component merges into 2, the shallowest."""
    g = MultiGraph(6)
    for u, v in ((0, 1), (1, 2), (1, 3), (3, 4), (4, 5)):
        g.add_edge(u, v)
    labels = {0: 0, 1: 0, 2: 4, 3: 0, 4: 0, 5: 4}
    parts, d, x = _split(g, labels, 4)
    assert parts == [[0, 1, 2, 3, 4], [5]]
    for p in parts:
        assert 4 <= sum(labels[v] for v in p) <= d * 4 + x


def _random_tree(rng, n):
    """A random tree on n vertices, its edges added in random order."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    rng.shuffle(edges)
    g = MultiGraph(n)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def test_tree_split_window_random(rng):
    """Label sums land in [t, D*t + X] on random shapes."""
    for trial in range(60):
        n = rng.randrange(2, 40)
        g = _random_tree(rng, n)
        x_cap = rng.randrange(1, 21)
        labels = {v: rng.randrange(0, x_cap + 1) for v in range(n)}
        total = sum(labels.values())
        if total < 1:
            continue
        t = rng.randrange(1, total + 1)
        parts, d, x = _split(g, labels, t)
        assert sorted(v for p in parts for v in p) == list(range(n))
        hi = d * t + x
        for p in parts:
            s = sum(labels[v] for v in p)
            assert t <= s <= hi
            _assert_tree_connected(g, p)


def _assert_tree_connected(g, part):
    pset = set(part)
    seen = {part[0]}
    stack = [part[0]]
    while stack:
        v = stack.pop()
        for e in g.incident(v):
            w = g.other_end(e, v)
            if w in pset and w not in seen:
                seen.add(w)
                stack.append(w)
    assert seen == pset


def _assert_split_matches_reference(ldd, weights, threshold):
    """tree_split of a whole forest against the dict TreeSplit of every
    tree: the same parts, numbered by cluster and then in the reference's
    order. Returns (parts, trees below threshold)."""
    part = tree_split(ldd, weights, threshold)
    thr = np.broadcast_to(np.asarray(threshold), (len(ldd.clusters),))
    assert (part[ldd.depth < 0] == -1).all()
    done = light = 0
    for i in range(len(ldd.clusters)):
        tree = tree_reference.dict_tree(ldd, i)
        labels = {v: int(weights[v]) for v in tree.order}
        want = tree_reference.tree_split(
            tree_reference.Labeled(tree=tree, labels=labels), int(thr[i]))
        got = part[tree.order]
        assert sorted(set(got.tolist())) == list(range(done,
                                                        done + len(want)))
        assert [sorted(np.array(tree.order)[got == done + j].tolist())
                for j in range(len(want))] == [sorted(p) for p in want]
        done += len(want)
        light += sum(labels.values()) < thr[i]
    return done, light


def test_tree_split_matches_reference_on_random_trees():
    rng = random.Random(11)
    parts = light = 0
    for trial in range(1500):
        n = rng.randrange(1, 40)
        g = _random_tree(rng, n)
        weights = np.array([rng.randrange(0, 10) for _ in range(n)])
        t = rng.randrange(1, int(weights.sum()) + 4)
        p, lt = _assert_split_matches_reference(
            single_cluster(g, list(range(n))), weights, t)
        parts += p
        light += lt
    assert parts > 3000 and light > 50


@pytest.mark.parametrize("make", [
    lambda s: gnm(600, 3000, seed=s),
    lambda s: d_regular(600, 7, seed=s),
    lambda s: parallel_gadgets(256, 60, seed=s),
    lambda s: multigraph_with_holes(s, 300, 900),
], ids=["gnm", "d_regular", "parallel_gadgets", "holes"])
def test_tree_split_matches_reference_on_ldd_forests(make):
    """Every tree of LDD forests, at one threshold and at per-cluster
    thresholds, some below the tree's label sum, singletons included."""
    rng = random.Random(5)
    light = singles = 0
    for seed in range(3):
        g = make(seed)
        for beta in (Fraction(1, 12), Fraction(1, 2), Fraction(1)):
            ldd = low_diam_decomp(g, beta, seed)
            singles += sum(len(c) == 1 for c in ldd.clusters)
            m_i = np.bincount(ldd.edge_label, minlength=len(ldd.clusters))
            _assert_split_matches_reference(ldd, ldd.degrees, 5)
            per = np.array([rng.randrange(1, 2 * m + 3) for m in m_i])
            light += _assert_split_matches_reference(ldd, ldd.degrees,
                                                     per)[1]
    assert light and singles


def _component_forest(g):
    """The clustering of g whose clusters are its components, with its
    forest: each tree is the BFS tree of its component from its lowest
    vertex."""
    center = np.full(g.n_total, -1, dtype=np.int64)
    for comp in connected_components(g):
        center[comp] = min(comp)
    return _clustering(center, flat_adjacency_np(g),
                       *_class_edges(center, _active_edges(g)))


def _tree(n, edges):
    return MultiGraph.from_edges(n, *zip(*edges))


def _lone_root_forest():
    """Trees of 1, 3, 1 and 4 vertices: lone roots 0 and 4 between the
    path 1-2-3 and the star 5-6-{7, 8}."""
    return _component_forest(_tree(9, [(1, 2), (2, 3), (5, 6), (6, 7),
                                       (6, 8)]))


def test_tree_split_root_leaf_flips_nothing():
    """Root 0 has tree degree 1, so it is its tree's first leaf and the
    re-rooted tree is the forest's own. The last vertex, 7, sits at
    depth 4: flipping a vertex past the root would move it."""
    g = _tree(8, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)])
    ldd = single_cluster(g, list(range(8)))
    assert ldd.tree_order[0] == 0 and ldd.depth[7] == 4
    weights = np.array([1, 0, 2, 1, 3, 1, 2, 2])
    for t in range(1, 14):
        _assert_split_matches_reference(ldd, weights, t)


def test_tree_split_lone_roots_in_a_forest():
    """Lone roots (isolated vertices) between larger trees: each is its
    own leaf, one part at any threshold, and the trees around them are
    numbered in cluster order."""
    ldd = _lone_root_forest()
    assert np.diff(ldd.member_starts).tolist() == [1, 3, 1, 4]
    weights = np.array([0, 2, 1, 2, 5, 1, 1, 2, 1])
    for t in range(1, 7):
        _assert_split_matches_reference(ldd, weights, t)
    _assert_split_matches_reference(ldd, weights, np.array([4, 1, 9, 2]))


def test_tree_split_deep_first_leaf_orders_flipped_siblings():
    """The first leaf, 6, is at depth 3 (path 6-3-1-0). Re-rooted at 6,
    the flipped 1 and the unflipped 7 are both children of 3, ordered by
    their edges to it (3-7 is edge 2, 1-3 edge 3, so 7 comes first);
    next, the flipped 0 and the unflipped 4 are children of 1, in one
    layer with 7's child 10."""
    g = _tree(11, [(0, 1), (3, 6), (3, 7), (1, 3), (1, 4), (0, 2), (2, 5),
                   (4, 8), (5, 9), (7, 10)])
    ldd = single_cluster(g, list(range(11)))
    assert ldd.tree_order.tolist() == list(range(11))
    assert ldd.depth[6] == 3
    rng = random.Random(3)
    for _ in range(40):
        weights = np.array([rng.randrange(0, 4) for _ in range(11)])
        for t in (1, 2, 3, 5, 8):
            _assert_split_matches_reference(ldd, weights, t)


@pytest.mark.parametrize("weights", [np.ones(8, dtype=np.int64),
                                     np.ones(10, dtype=np.int64),
                                     np.ones((1, 9), dtype=np.int64)],
                         ids=["short", "long", "2d"])
def test_tree_split_rejects_weights_of_wrong_shape(weights):
    """`weights` holds one label per vertex slot (9 here)."""
    ldd = _lone_root_forest()
    with pytest.raises(GraphError):
        tree_split(ldd, weights, 2)


@pytest.mark.parametrize("threshold", [
    np.array([2, 2, 2]), np.array([2, 2, 2, 2, 2]), np.array([], dtype=int),
    np.array([[2, 2, 2, 2]]), 2.5, 3.0, np.array([2, 2.5, 2, 2])],
    ids=["short", "long", "empty", "2d", "float", "integral-float",
         "float-array"])
def test_tree_split_rejects_bad_threshold(threshold):
    """`threshold` is one int or one int per cluster (4 here)."""
    ldd = _lone_root_forest()
    weights = np.ones(9, dtype=np.int64)
    tree_split(ldd, weights, np.array([2, 2, 2, 2]))
    with pytest.raises(GraphError):
        tree_split(ldd, weights, threshold)


# -- pull_up ----------------------------------------------------------------

def test_pull_up_identity():
    g = cycle_graph(3)
    parts = [[v] for v in range(3)]
    cm = contract(g, part_array(3, parts), [])
    cyc = VertexDisjointCycleSet()
    cyc.add(Cycle(edges=[0, 1, 2], vertices=[0, 1, 2]))
    out = pull_up(g, cm.part_of, cm.f, *part_trees(g, parts), cyc)
    assert len(out.cycles) == 1
    assert sorted(out.cycles[0].edges) == [cm.f[0], cm.f[1], cm.f[2]]
    assert sorted(out.cycles[0].vertices) == [0, 1, 2]


def test_pull_up_two_parts_triangle():
    g = MultiGraph(3)
    ab = g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(1, 2)
    cm = contract(g, [0, 0, 1], [ab])
    cyc = VertexDisjointCycleSet()
    cyc.add(Cycle(edges=[0, 1], vertices=[cm.h.eu[0], cm.h.ev[0]]))
    out = pull_up(g, cm.part_of, cm.f, *part_trees(g, [[0, 1], [2]]), cyc)
    assert len(out.cycles) == 1
    assert sorted(out.cycles[0].edges) == [0, 1, 2]
    assert len(out.cycles[0].vertices) == 3


def test_pull_up_loop_in_part():
    g = MultiGraph(2)
    t_edge = g.add_edge(0, 1)
    par = g.add_edge(0, 1)
    cm = contract(g, [0, 0], [t_edge])
    cyc = VertexDisjointCycleSet()
    cyc.add(Cycle(edges=[0], vertices=[0]))
    out = pull_up(g, cm.part_of, cm.f, *part_trees(g, [[0, 1]]), cyc)
    assert len(out.cycles) == 1
    assert sorted(out.cycles[0].edges) == [t_edge, par]


def _part_dict_trees(forest, parts):
    """Every part's tree of a part_trees forest, as tree_reference's
    dict trees."""
    parent, edge, depth = forest
    return [tree_reference.DictTree(
        root=p[0], order=p,
        parent={x: (int(parent[x]), int(edge[x])) for x in p if depth[x] > 0},
        depth={x: int(depth[x]) for x in p}) for p in parts]


def _entry_exit_depth_gaps(g, cm, depth, cycles_h):
    """|depth(entry) - depth(exit)| in every part a cycle of H passes."""
    gaps = []
    for hc in cycles_h.cycles:
        ends = []      # per H-edge: its end in its own part, then the other
        for i, he in enumerate(hc.edges):
            a, b = g.endpoints(int(cm.f[he]))
            ends.append((a, b) if cm.part_of[a] == hc.vertices[i] else (b, a))
        gaps += [abs(int(depth[ends[i - 1][1]] - depth[ends[i][0]]))
                 for i in range(len(ends))]
    return gaps


def test_pull_up_random_rounds(rng):
    """One contraction round built by hand on random graphs, lifted as
    tree_reference's dict walk lifts it. The sparse graphs' deeper part
    trees give parts entered and left two or more layers apart."""
    deepest = 0
    for trial in range(30):
        for n, m, threshold in ((24, 120, 8), (40, 60, 30)):
            g = gnm(n, m, seed=trial)
            comp = max(connected_components(g), key=len)
            if len(comp) < 6:
                continue
            ldd = single_cluster(g, comp)
            weights = np.array(g.deg)
            part = tree_split(ldd, weights, threshold)
            parts = parts_of(part)
            forest = part_trees(g, parts)
            exclude = forest[1][forest[1] >= 0]
            cm = contract(g, part, exclude)
            cyc = _greedy_pairs(cm.h)
            out = pull_up(g, cm.part_of, cm.f, *forest, cyc)
            want = tree_reference.pull_up(cm, _part_dict_trees(forest, parts),
                                          cyc)
            assert all(np.array_equal(a, b)
                       for a, b in zip(out.arrays(), want.arrays()))
            deepest = max([deepest] + _entry_exit_depth_gaps(g, cm, forest[2],
                                                             cyc))
            assert out.total_edges >= cyc.total_edges
            assert len(out.cycles) == len(cyc.cycles)
            seen = set()
            for c in out.cycles:
                assert len(set(c.vertices)) == len(c.vertices)
                assert not (set(c.vertices) & seen)
                seen.update(c.vertices)
                for i, e in enumerate(c.edges):
                    u = c.vertices[i]
                    v = c.vertices[(i + 1) % len(c.vertices)]
                    a, b = g.endpoints(e)
                    assert {a, b} == {u, v} or u == v == a == b
            assert len(seen) >= cyc.total_vertices
    assert deepest >= 2


def _greedy_pairs(h):
    """Maximal vertex-disjoint 2-cycles, then loops, as one round does."""
    out = VertexDisjointCycleSet()
    used = set()
    first = {}
    loops = {}
    for he in range(h.m_total):
        a, b = h.endpoints(he)
        if a == b:
            loops.setdefault(a, he)
            continue
        key = (min(a, b), max(a, b))
        if key in first and first[key] >= 0:
            if a not in used and b not in used:
                out.add(Cycle(edges=[first[key], he], vertices=[key[0], key[1]]))
                used.update(key)
                first[key] = -1
        elif key not in first:
            first[key] = he
    for a in sorted(loops):
        if a not in used:
            out.add(Cycle(edges=[loops[a]], vertices=[a]))
            used.add(a)
    return out


# -- sparsify ---------------------------------------------------------------

def test_sparsify_c4_trim_only():
    out = sparsify(cycle_graph(4), 2)
    assert out.m_active == 2
    assert out.active_edges() == [0, 1]


def test_sparsify_noop_at_target():
    g = cycle_graph(5)
    out = sparsify(g, 5)
    assert out.active_edges() == g.active_edges()


def test_sparsify_parallel_block():
    g = MultiGraph(2)
    for _ in range(64):
        g.add_edge(0, 1)
    out = sparsify(g, 2)
    assert out.m_active == 2
    assert max(out.deg) <= (2 * 2 + 4 * 2) * 128 // 64


def test_sparsify_trims_only_when_bound_allows():
    """With m <= 2k + 4n no halving round is needed, even at 2k + 2n <= m:
    the output is the k lowest edge ids."""
    g = d_regular(40, 20, seed=3)
    n, m = g.n_active, g.m_active   # 400 edges
    for k in (120, 140, 160):
        assert 2 * k + 2 * n <= m <= 2 * k + 4 * n
        out = sparsify(g, k)
        assert out.active_edges() == g.active_edges()[:k]


def test_sparsify_many_rounds_keep_k_edges(rng):
    """Dense inputs need several halving rounds; each must start above
    2k + 2n edges, so exactly k survive under the degree bound."""
    for trial in range(40):
        n = rng.randrange(2, 8)
        m = rng.randrange(50 * n, 120 * n)
        g = random_multigraph(rng, n, m)
        k = rng.randrange(1, 4)
        assert 4 * (2 * k + 4 * n) < m   # at least three rounds
        out = sparsify(g, k)
        assert out.m_active == k
        assert max(out.deg) * m <= (2 * k + 4 * n) * g.max_degree()
        assert list(out.deg) == recomputed_degrees(out)


def test_sparsify_degree_bound_needs_every_round():
    """Ten vertices of degree about 1000, vertex 0's edges first: the trim
    keeps its surviving edges, so only the fifth round (2^5 * (2k + 4n)
    >= m for k = 100) brings it under (2k + 4n) * D / m = 48."""
    g = MultiGraph(10)
    for i in range(1, 10):
        for _ in range(112 if i == 9 else 111):
            g.add_edge(0, i)
    for i in range(1, 10):
        for _ in range(444):
            g.add_edge(i, i % 9 + 1)
    k, n, m, delta = 100, g.n_active, g.m_active, g.max_degree()
    assert 16 * (2 * k + 4 * n) < m <= 32 * (2 * k + 4 * n)
    out = sparsify(g, k)
    assert out.m_active == k
    assert max(out.deg) * m <= (2 * k + 4 * n) * delta


def test_sparsify_rejects_bad_k():
    g = cycle_graph(4)
    with pytest.raises(GraphError):
        sparsify(g, 0)
    with pytest.raises(GraphError):
        sparsify(g, 5)


def test_sparsify_bounds_random(rng):
    for trial in range(60):
        n = rng.randrange(2, 30)
        m = rng.randrange(max(1, n // 2), 8 * n)
        g = random_multigraph(rng, n, m)
        k = rng.randrange(1, m + 1)
        before = bytes(g.eactive)
        out = sparsify(g, k)
        assert bytes(g.eactive) == before  # caller's graph untouched
        assert out.m_active == k
        assert set(out.active_edges()) <= set(g.active_edges())
        delta = g.max_degree()
        assert max(out.deg) * m <= (2 * k + 4 * n) * delta
        assert list(out.deg) == recomputed_degrees(out)
