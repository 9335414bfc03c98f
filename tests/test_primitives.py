"""Pipeline subroutines: reduce, split, peel, pull up, sparsify."""
import math

import pytest

from shortcycles import (GraphError, LabeledTree, MultiGraph,
                         bfs_spanning_tree, connected_components, contract,
                         graph_reduce, naive_short_cycle, pull_up, sparsify,
                         split_circuit, tree_split)
from shortcycles.io import d_regular, gnm
from shortcycles.primitives import Cycle, VertexDisjointCycleSet, euler_tour

from conftest import (cycle_graph, path_graph, random_multigraph,
                      recomputed_degrees, star_graph)


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
    g.add_vertex()
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
    assert rm.origin_vertex.count(0) == 2


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
            g.add_vertex()   # isolated
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
            assert [list(a) for a in rm.h.inc] == [list(a) for a in h.inc]
            assert rm.h.n_active == h.n_active
            assert rm.h.m_active == h.m_active
            assert rm.origin_vertex == origin_vertex
            assert rm.origin_edge == origin_edge
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
        comp = max(connected_components(g), key=len)
        tour = euler_tour(g, comp)
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


# -- euler_tour -------------------------------------------------------------

def test_euler_tour_covers_component(rng):
    for _ in range(20):
        g = MultiGraph(8)
        for _ in range(3):
            verts = rng.sample(range(8), rng.randrange(2, 5))
            for i in range(len(verts)):
                g.add_edge(verts[i], verts[(i + 1) % len(verts)])
        for comp in connected_components(g):
            tour = euler_tour(g, comp)
            in_comp = {e for v in comp for e in g.incident(v)}
            assert sorted(tour) == sorted(in_comp)
            if tour:
                _walk_vertices(g, tour)


def test_euler_tour_isolated_component():
    g = MultiGraph(3)
    g.add_edge(1, 2)
    g.add_edge(2, 1)
    assert euler_tour(g, [0]) == []


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


# -- tree_split -------------------------------------------------------------

def _labeled(g, labels):
    comp = connected_components(g)[0]
    tree = bfs_spanning_tree(g, comp, comp[0])
    tdeg = {v: 0 for v in comp}
    for v, (p, _) in tree.parent.items():
        tdeg[v] += 1
        tdeg[p] += 1
    return LabeledTree(tree=tree, labels=labels,
                       label_cap=max(labels.values()),
                       max_deg=max(tdeg.values()) if tree.parent else 0)


def test_tree_split_path_of_four():
    lt = _labeled(path_graph(4), {v: 1 for v in range(4)})
    parts = tree_split(lt, 2)
    assert sorted(sum(1 for _ in p) for p in parts) == [2, 2]
    assert sorted(v for p in parts for v in p) == [0, 1, 2, 3]


def test_tree_split_single_vertex():
    g = MultiGraph(1)
    t = bfs_spanning_tree(g, [0], 0)
    lt = LabeledTree(tree=t, labels={0: 5}, label_cap=5, max_deg=0)
    assert tree_split(lt, 3) == [[0]]


def test_tree_split_star():
    labels = {0: 0}
    labels.update({i: 1 for i in range(1, 7)})
    lt = _labeled(star_graph(6), labels)
    parts = tree_split(lt, 2)
    total = 0
    for p in parts:
        s = sum(labels[v] for v in p)
        assert 2 <= s <= 6 * 2 + 1
        total += s
    assert total == 6


def test_tree_split_below_threshold_rejected():
    lt = _labeled(path_graph(3), {0: 1, 1: 0, 2: 0})
    with pytest.raises(GraphError):
        tree_split(lt, 2)


def _random_tree(rng, n):
    g = MultiGraph(n)
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v)
    return g


def test_tree_split_window_random(rng):
    """Label sums land in [t, D*t + X] on random shapes."""
    for trial in range(60):
        n = rng.randrange(2, 40)
        g = _random_tree(rng, n)
        x_cap = rng.randrange(1, 21)
        labels = {v: rng.randrange(0, x_cap + 1) for v in range(n)}
        lt = _labeled(g, labels)
        total = sum(labels.values())
        if total < 1:
            continue
        t = rng.randrange(1, total + 1)
        parts = tree_split(lt, t)
        assert sorted(v for p in parts for v in p) == list(range(n))
        hi = lt.max_deg * t + lt.label_cap
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


# -- pull_up ----------------------------------------------------------------

def test_pull_up_identity():
    g = cycle_graph(3)
    parts = [[v] for v in range(3)]
    trees = [bfs_spanning_tree(g, [v], v) for v in range(3)]
    cm = contract(g, parts, set())
    cyc = VertexDisjointCycleSet()
    cyc.add(Cycle(edges=[0, 1, 2], vertices=[0, 1, 2]))
    out = pull_up(cm, trees, cyc)
    assert len(out.cycles) == 1
    assert sorted(out.cycles[0].edges) == [cm.f[0], cm.f[1], cm.f[2]]
    assert sorted(out.cycles[0].vertices) == [0, 1, 2]


def test_pull_up_two_parts_triangle():
    g = MultiGraph(3)
    ab = g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(1, 2)
    cm = contract(g, [[0, 1], [2]], {ab})
    trees = [bfs_spanning_tree(g, [0, 1], 0), bfs_spanning_tree(g, [2], 2)]
    cyc = VertexDisjointCycleSet()
    cyc.add(Cycle(edges=[0, 1], vertices=[cm.h.eu[0], cm.h.ev[0]]))
    out = pull_up(cm, trees, cyc)
    assert len(out.cycles) == 1
    assert sorted(out.cycles[0].edges) == [0, 1, 2]
    assert len(out.cycles[0].vertices) == 3


def test_pull_up_loop_in_part():
    g = MultiGraph(2)
    t_edge = g.add_edge(0, 1)
    par = g.add_edge(0, 1)
    cm = contract(g, [[0, 1]], {t_edge})
    tree = bfs_spanning_tree(g, [0, 1], 0)
    cyc = VertexDisjointCycleSet()
    cyc.add(Cycle(edges=[0], vertices=[0]))
    out = pull_up(cm, [tree], cyc)
    assert len(out.cycles) == 1
    assert sorted(out.cycles[0].edges) == [t_edge, par]


def test_pull_up_random_rounds(rng):
    """One contraction round built by hand on random graphs."""
    for trial in range(30):
        g = gnm(24, 120, seed=trial)
        comp = max(connected_components(g), key=len)
        if len(comp) < 6:
            continue
        tree = bfs_spanning_tree(g, comp, comp[0])
        labels = {v: g.degree(v) for v in comp}
        lt = _labeled_from(tree, labels, comp)
        parts = tree_split(lt, 8)
        trees = []
        exclude = set()
        for part in parts:
            sub = bfs_spanning_tree(g, part, part[0])
            trees.append(sub)
            exclude.update(e for (_, e) in sub.parent.values())
        cm = contract(g, parts, exclude)
        cyc = _greedy_pairs(cm.h)
        out = pull_up(cm, trees, cyc)
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


def _labeled_from(tree, labels, comp):
    tdeg = {v: 0 for v in comp}
    for v, (p, _) in tree.parent.items():
        tdeg[v] += 1
        tdeg[p] += 1
    return LabeledTree(tree=tree, labels=labels,
                       label_cap=max(labels.values()),
                       max_deg=max(tdeg.values()))


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
