"""Multigraph core: mutation bookkeeping, BFS trees, contraction."""
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortcycles import GraphError, MultiGraph, contract
from shortcycles.graph import (bfs_forest, flat_adjacency_np, label_components,
                              tree_paths)
from shortcycles.ldd import low_diam_decomp, single_cluster
from shortcycles.verify import measure_diameter

import naive_reference
import tree_reference
from conftest import (connected_components, cycle_graph, part_array,
                      part_trees, path_graph, random_multigraph,
                      recomputed_degrees, star_graph)


# -- degree and active-count bookkeeping ------------------------------------

def test_loop_counts_twice():
    g = MultiGraph(1)
    g.add_edge(0, 0)
    assert g.degree(0) == 2
    assert g.m_active == 1


def test_degree_sum_equals_twice_edges(rng):
    g = random_multigraph(rng, 30, 120)
    assert sum(g.deg) == 2 * g.m_active


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 12), st.integers(0, 40))
def test_degree_invariant_under_mutation(seed, n, ops):
    """Cached degrees match a recount after any insert/delete sequence."""
    r = random.Random(seed)
    g = MultiGraph(n)
    edges = []
    for _ in range(ops):
        roll = r.random()
        alive = [v for v in range(n) if g.vactive[v]]
        if (roll < 0.55 or not edges) and alive:
            e = g.add_edge(r.choice(alive), r.choice(alive))
            edges.append(e)
        elif roll < 0.85:
            e = r.choice(edges)
            if g.eactive[e]:
                g.delete_edge(e)
        else:
            v = r.randrange(n)
            if g.vactive[v]:
                g.delete_vertex(v)
    assert list(g.deg) == recomputed_degrees(g)
    assert g.m_active == sum(g.eactive)
    assert g.n_active == sum(g.vactive)


def test_delete_edge_twice_raises():
    g = path_graph(3)
    g.delete_edge(0)
    with pytest.raises(GraphError):
        g.delete_edge(0)


def test_delete_vertex_removes_incident_edges():
    g = star_graph(4)
    g.delete_vertex(0)
    assert g.m_active == 0
    assert g.n_active == 4
    assert not g.vactive[0]


def test_delete_edges_matches_one_by_one(rng):
    """Batched deletion agrees with sequential deletion, large or small."""
    g = random_multigraph(rng, 40, 900)
    for size in (400, 3, 0):
        ids = rng.sample(range(900), size)
        a = g.copy()
        b = g.copy()
        a.delete_edges(ids)
        for e in ids:
            b.delete_edge(e)
        assert bytes(a.eactive) == bytes(b.eactive)
        assert list(a.deg) == list(b.deg)
        assert a.m_active == b.m_active


def _graph_state(g):
    return (bytes(g.vactive), bytes(g.eactive), list(g.deg), g.n_active,
            g.m_active, [g.incident(v) for v in range(g.n_total)])


def test_delete_vertices_matches_one_by_one(rng):
    """A batch deletion leaves the state one-by-one deletion by a loop of
    delete_edge leaves, with loops, parallel edges, edges between two
    deleted vertices, and earlier deletions."""
    for trial in range(40):
        n = rng.randrange(2, 30)
        g = random_multigraph(rng, n, rng.randrange(0, 6 * n))
        for e in rng.sample(range(g.m_total), g.m_total // 8):
            g.delete_edge(e)
        for v in rng.sample(range(n), n // 8):
            naive_reference.delete_vertex(g, v)
        active = g.active_vertices()
        for size in (0, 1, len(active) // 2, len(active)):
            vs = rng.sample(active, size)
            a, b = g.copy(), g.copy()
            a.delete_vertices(vs)
            for v in vs:
                naive_reference.delete_vertex(b, v)
            assert _graph_state(a) == _graph_state(b)
            starts = flat_adjacency_np(a)[0]
            assert all(starts[v] == starts[v + 1] for v in vs)


def test_delete_vertices_rejects_inactive_or_repeated(rng):
    g = random_multigraph(rng, 10, 40)
    g.delete_vertices([3])
    before = _graph_state(g)
    for vs in ([1, 3], [2, 5, 2], [4, 4]):
        with pytest.raises(GraphError):
            g.delete_vertices(vs)
        assert _graph_state(g) == before
    with pytest.raises(GraphError):
        g.delete_vertex(3)


def _reference_delete_vertices(state, vs):
    """delete_vertices on plain lists (eu, ev, eactive, vactive, deg,
    n_active, m_active): one scan of the edge arrays, nothing sorted.
    Returns the new state, or the error message and no change."""
    eu, ev, ea, va, deg, n_active, m_active = state
    for v in vs:
        if not va[v]:
            return f"vertex {v} already deleted"
    if len(set(vs)) < len(vs):
        return "vertex repeated in batch"
    ea, va, deg = list(ea), list(va), list(deg)
    gone = set(vs)
    for e, (u, v) in enumerate(zip(eu, ev)):
        if ea[e] and (u in gone or v in gone):
            ea[e] = 0
            deg[u] -= 1
            deg[v] -= 1
            m_active -= 1
    for v in vs:
        va[v] = 0
    return eu, ev, ea, va, deg, n_active - len(vs), m_active


def _plain_state(g):
    return (list(g.eu), list(g.ev), list(g.eactive), list(g.vactive),
            list(g.deg), g.n_active, g.m_active)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_delete_vertices_matches_edge_scan(data):
    """delete_vertices against a scan of the edge arrays, on random
    multigraphs with loops and parallel edges whose cached CSR was first
    narrowed by snapshots between edge and vertex deletions. The batch
    may hold edges between two of its vertices, inactive vertices and
    repeats; those raise the reference's message and change nothing.
    Later snapshots read the reference's rows."""
    n = data.draw(st.integers(1, 10))
    ends = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=40))
    g = MultiGraph.from_edges(n, [u for u, _ in ends], [v for _, v in ends])
    for _ in range(data.draw(st.integers(0, 3))):
        if data.draw(st.booleans()):
            flat_adjacency_np(g)
        live = [e for e in range(g.m_total) if g.eactive[e]]
        g.delete_edges(data.draw(st.lists(st.sampled_from(live), unique=True))
                       if live else [])
        alive = g.active_vertices()
        if alive and data.draw(st.booleans()):
            g.delete_vertices(data.draw(st.lists(st.sampled_from(alive),
                                                 unique=True, max_size=2)))
    alive = g.active_vertices()
    if alive and data.draw(st.booleans()):
        vs = data.draw(st.lists(st.sampled_from(alive), unique=True))
    else:
        vs = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    before = _plain_state(g)
    want = _reference_delete_vertices(before, vs)
    if isinstance(want, str):
        with pytest.raises(GraphError) as err:
            g.delete_vertices(vs)
        assert str(err.value) == want
        assert _plain_state(g) == before
        want = before
    else:
        g.delete_vertices(vs)
        assert _plain_state(g) == want
    eu, ev, ea = want[:3]
    rows = _scalar_rows(eu, ev, ea, n)
    starts, tails, eids = (a.tolist() for a in flat_adjacency_np(g))
    assert [list(zip(eids[starts[v]:starts[v + 1]],
                     tails[starts[v]:starts[v + 1]]))
            for v in range(n)] == rows


def test_delete_edges_rejects_inactive(rng):
    g = random_multigraph(rng, 20, 600)
    g.delete_edge(5)
    with pytest.raises(GraphError):
        g.delete_edges(list(range(400)))


def test_delete_edges_rejects_repeated(rng):
    """A repeated id raises before anything changes, in a small batch and
    inside a large one."""
    small = path_graph(3)
    large = random_multigraph(rng, 20, 600)
    ids = rng.sample(range(600), 399)
    for g, batch in ((small, [1, 1]), (large, ids + [ids[200]])):
        before = _graph_state(g)
        with pytest.raises(GraphError, match="repeated"):
            g.delete_edges(batch)
        assert _graph_state(g) == before


def test_graph_grows_after_kept_delete_error():
    """A GraphError kept by the caller holds no view of the graph's
    buffers, so the graph can still grow."""
    g = path_graph(3)
    g.delete_edge(0)
    with pytest.raises(GraphError) as kept:
        g.delete_edges([0, 1])
    e = g.add_edge(0, 2)
    g.add_vertices(1)
    assert g.incident(2) == [1, e]


def _scalar_rows(eu, ev, eactive, n):
    """Each vertex's active (edge id, other end) entries, ascending id, a
    loop once, from the edge arrays alone."""
    rows = [[] for _ in range(n)]
    for e, (u, v) in enumerate(zip(eu, ev)):
        if eactive[e]:
            rows[u].append((e, v))
            if u != v:
                rows[v].append((e, u))
    return rows


def test_incidence_cache_follows_mutation(rng):
    """Queries interleaved with growth, deletion and copies read the same
    rows as a rebuild from edge lists kept here."""
    def check(g, eu, ev, ea):
        want = _scalar_rows(eu, ev, ea, g.n_total)
        starts, tails, eids = (a.tolist() for a in flat_adjacency_np(g))
        assert len(starts) == g.n_total + 1
        for v in range(g.n_total):
            row = slice(starts[v], starts[v + 1])
            assert list(zip(eids[row], tails[row])) == want[v]
            assert g.incident(v) == [e for e, _ in want[v]]

    for trial in range(15):
        n = rng.randrange(2, 12)
        g = MultiGraph(n)
        eu, ev, ea = [], [], []
        for step in range(60):
            op = rng.randrange(7)
            alive = [v for v in range(g.n_total) if g.vactive[v]]
            live = [e for e in range(len(ea)) if ea[e]]
            if op <= 1 and alive:
                u, v = rng.choice(alive), rng.choice(alive)
                assert g.add_edge(u, v) == len(eu)
                eu.append(u)
                ev.append(v)
                ea.append(1)
            elif op == 2:
                g.add_vertices(rng.randrange(3))
            elif op == 3 and live:
                e = rng.choice(live)
                g.delete_edge(e)
                ea[e] = 0
            elif op == 4 and live:
                batch = rng.sample(live, rng.randrange(len(live) + 1))
                g.delete_edges(batch)
                for e in batch:
                    ea[e] = 0
            elif op == 5 and alive:
                vs = rng.sample(alive, rng.randrange(len(alive)) // 2 + 1)
                g.delete_vertices(vs)
                for e in range(len(ea)):
                    if eu[e] in vs or ev[e] in vs:
                        ea[e] = 0
            elif op == 6:
                # The copy shares the original's cache until it grows;
                # growing the copy must leave the original's rows alone.
                check(g, eu, ev, ea)
                c = g.copy()
                alive_c = [v for v in range(c.n_total) if c.vactive[v]]
                if alive_c:
                    u, v = rng.choice(alive_c), rng.choice(alive_c)
                    c.add_edge(u, v)
                    check(c, eu + [u], ev + [v], ea + [1])
                check(g, eu, ev, ea)
            if rng.random() < 0.5:
                check(g, eu, ev, ea)
        check(g, eu, ev, ea)


def _fresh_snapshot(g):
    """The snapshot of a graph built anew with g's edges, eactive and
    vactive, whose cache has never been narrowed."""
    fresh = MultiGraph.from_edges(g.n_total, list(g.eu), list(g.ev))
    fresh.delete_edges([e for e in range(g.m_total) if not g.eactive[e]])
    fresh.vactive = bytearray(g.vactive)
    return [a.tolist() for a in flat_adjacency_np(fresh)]


def test_snapshots_narrow_the_cache_safely(rng):
    """Snapshots store their CSR as the cache. Interleaved with vertex and
    edge deletions on a graph and its copies, every snapshot equals a
    fresh graph's, every incident() list and delete_vertices still read
    right, and snapshots taken on a copy leave the original's alone."""
    def snap(g):
        got = [a.tolist() for a in flat_adjacency_np(g)]
        assert got == _fresh_snapshot(g)
        return got

    for trial in range(40):
        n = rng.randrange(2, 16)
        g = random_multigraph(rng, n, rng.randrange(0, 6 * n))
        graphs = [g]
        for step in range(12):
            h = rng.choice(graphs)
            op = rng.randrange(4)
            alive = [v for v in range(h.n_total) if h.vactive[v]]
            live = [e for e in range(h.m_total) if h.eactive[e]]
            if op == 0 and alive:
                h.delete_vertices(rng.sample(alive,
                                             rng.randrange(len(alive)) + 1))
            elif op == 1 and live:
                h.delete_edges(rng.sample(live, rng.randrange(len(live)) + 1))
            elif op == 2:
                before = [snap(x) for x in graphs if x is not h]
                snap(h)
                assert [snap(x) for x in graphs if x is not h] == before
            else:
                graphs.append(h.copy())
            for x in graphs:
                want = _fresh_snapshot(x)
                for v in range(x.n_total):
                    row = slice(want[0][v], want[0][v + 1])
                    assert x.incident(v) == want[2][row]
                assert x.m_active == sum(x.eactive)
                assert all(x.vactive[x.eu[e]] and x.vactive[x.ev[e]]
                           for e in range(x.m_total) if x.eactive[e])
                assert list(x.deg) == recomputed_degrees(x)


def test_from_edges_matches_add_edge(rng):
    for trial in range(20):
        n = rng.randrange(1, 20)
        ref = random_multigraph(rng, n, rng.randrange(0, 5 * n))
        vactive = None
        if trial % 2:
            ref.add_vertices(1)
            ref.vactive[n] = 0
            ref.n_active -= 1
            vactive = ref.vactive
        g = MultiGraph.from_edges(ref.n_total, list(ref.eu), list(ref.ev),
                                  vactive)
        for attr in ("eu", "ev", "deg"):
            assert list(getattr(g, attr)) == list(getattr(ref, attr))
        assert g.eactive == ref.eactive and g.vactive == ref.vactive
        assert ([g.incident(v) for v in range(g.n_total)]
                == [ref.incident(v) for v in range(ref.n_total)])
        assert all(np.array_equal(a, b) for a, b in
                   zip(flat_adjacency_np(g), flat_adjacency_np(ref)))
        assert (g.n_active, g.m_active) == (ref.n_active, ref.m_active)


def test_from_edges_memory_with_a_sparse_header():
    """A graph whose highest end sits far past its edge count costs about
    the 4-byte degree and the 1-byte flag per slot, whichever slots the
    ends use: no n-sized int64 count on the way."""
    n = 10 ** 7
    tracemalloc.start()
    try:
        g = MultiGraph.from_edges(n, [0, n - 1], [1, 5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.deg[0], g.deg[1], g.deg[5], g.deg[n - 1]) == (1, 1, 1, 1)
    assert peak <= 10 * n, peak / n


def test_add_vertices_bulk():
    g = path_graph(3)
    g.add_vertices(500)
    assert g.n_total == 503
    assert g.n_active == 503
    assert g.degree(100) == 0
    g.add_edge(3, 502)
    assert g.degree(502) == 1


# -- components -------------------------------------------------------------

def test_components_empty_graph():
    assert connected_components(MultiGraph(0)) == []


def test_components_two_triangles():
    g = MultiGraph(6)
    for a, b in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
        g.add_edge(a, b)
    comps = [sorted(c) for c in connected_components(g)]
    assert sorted(comps) == [[0, 1, 2], [3, 4, 5]]


def test_components_after_deletion():
    g = path_graph(3)
    g.delete_edge(0)
    comps = [sorted(c) for c in connected_components(g)]
    assert sorted(comps) == [[0], [1, 2]]


def _union_find_lowest(k, pairs):
    """Per item, the lowest item of its component, by a scalar union-find
    that always keeps the lower root."""
    root = list(range(k))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        root[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(k)]


def test_label_components_matches_union_find(rng):
    """Random multigraphs with loops and parallel pairs, sparse to dense,
    plus long paths numbered in random order (many hooking rounds)."""
    cases = []
    for _ in range(200):
        k = rng.randrange(1, 60)
        cases.append((k, [(rng.randrange(k), rng.randrange(k))
                          for _ in range(rng.randrange(3 * k))]))
    for k in (2, 50, 500):
        perm = rng.sample(range(k), k)
        cases.append((k, [(perm[i], perm[i + 1]) for i in range(k - 1)]))
    cases.append((0, []))
    for k, pairs in cases:
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        got = label_components(k, np.array(a, dtype=np.int32),
                               np.array(b, dtype=np.int32))
        assert got.tolist() == _union_find_lowest(k, pairs)


def test_partition_cache_follows_mutation(rng):
    """The cached partition is the components of the active edges when
    built, stays valid under deletions, is dropped by add_edge and
    add_vertices, and is shared by copy()."""
    for trial in range(30):
        g = random_multigraph(rng, rng.randrange(1, 30), rng.randrange(40))
        assert g._partition().tolist() == _union_find_lowest(
            g.n_total, [(g.eu[e], g.ev[e]) for e in g.active_edges()])
        for step in range(10):
            op = rng.randrange(5)
            alive = g.active_vertices()
            live = g.active_edges()
            if op == 0 and alive:
                g.add_edge(rng.choice(alive), rng.choice(alive))
                assert g._groups is None
            elif op == 1:
                g.add_vertices(rng.randrange(1, 3))
                assert g._groups is None
            elif op == 2 and live:
                g.delete_edges(rng.sample(live, rng.randrange(len(live)) + 1))
            elif op == 3 and alive:
                g.delete_vertices(rng.sample(alive, 1 + len(alive) // 4))
            elif op == 4:
                assert g.copy()._groups is g._partition()
            groups = g._partition()
            assert ((groups >= 0) & (groups < g.n_total)).all()
            for e in g.active_edges():   # no active edge joins two groups
                assert groups[g.eu[e]] == groups[g.ev[e]]


def test_components_partition_vertices(rng):
    g = random_multigraph(rng, 50, 40)
    comps = connected_components(g)
    flat = sorted(v for c in comps for v in c)
    assert flat == g.active_vertices()


# -- BFS spanning trees -----------------------------------------------------

def _whole(g):
    """The forest single_cluster gives for all of g's vertices."""
    return single_cluster(g, list(range(g.n_total)))


def _path(t, u, v):
    """The tree path u .. v alone: tree_paths on the one pair, less the
    closing edge it appends."""
    verts, edges, lens = tree_paths(t.parent, t.parent_edge, t.depth,
                                    np.array([u]), np.array([v]),
                                    np.array([-1]))
    assert lens.tolist() == [len(verts)] and edges[-1] == -1
    return verts.tolist(), edges[:-1].tolist()


def _own_parent_roots(parent, depth):
    """The same forest with every root its own parent, as the naive
    sweep's BFS scratch has it."""
    parent = np.array(parent)
    roots = np.flatnonzero(np.asarray(depth) == 0)
    parent[roots] = roots
    return parent


def test_bfs_star_from_center():
    g = star_graph(4)
    t = _whole(g)
    assert t.depth.max() == 1
    assert len(t.tree_order) == 5


def test_bfs_cycle_six():
    t = _whole(cycle_graph(6))
    assert t.depth.max() == 3


def test_bfs_singleton():
    g = MultiGraph(1)
    t = single_cluster(g, [0])
    assert t.tree_order.tolist() == [0]
    assert t.parent.tolist() == [-1] and t.parent_edge.tolist() == [-1]
    assert t.depth.tolist() == [0]


def test_bfs_depth_structure(rng):
    g = random_multigraph(rng, 40, 80)
    comp = connected_components(g)[0]
    t = single_cluster(g, comp)
    assert set(t.tree_order.tolist()) == set(comp)
    for v in t.tree_order[1:].tolist():
        p, e = t.parent[v], t.parent_edge[v]
        assert t.depth[v] == t.depth[p] + 1
        assert {g.eu[e], g.ev[e]} == {v, p} or g.eu[e] == g.ev[e] == v == p


def test_bfs_depth_at_most_diameter(rng):
    for _ in range(10):
        g = random_multigraph(rng, 25, 60)
        for comp in connected_components(g):
            t = single_cluster(g, comp)
            assert t.depth.max() <= measure_diameter(g, comp)


# -- tree paths -------------------------------------------------------------

def test_tree_path_same_vertex():
    t = _whole(path_graph(3))
    verts, edges = _path(t, 2, 2)
    assert verts == [2] and edges == []


def test_tree_path_along_path():
    t = _whole(path_graph(3))
    verts, edges = _path(t, 0, 2)
    assert verts == [0, 1, 2]
    assert edges == [0, 1]


def test_tree_path_through_center():
    g = star_graph(3)
    t = _whole(g)
    verts, edges = _path(t, 1, 2)
    assert verts == [1, 0, 2]
    assert len(edges) == 2


def test_tree_path_uncovered_vertex():
    g = path_graph(4)
    g.delete_edge(2)
    t = single_cluster(g, [0, 1, 2])
    with pytest.raises(GraphError):
        _path(t, 0, 3)


def test_tree_path_across_trees_raises():
    """Under either root convention: ends whose roots' parent is -1 meet
    there, past both depths, and roots that are their own parents never
    meet. The ends of 2 and 4 are one layer apart, so their climb meets
    at -1 inside the loop's bound."""
    g = path_graph(4)
    g.delete_edge(1)
    t = low_diam_decomp(g, Fraction(1), seed=0)
    assert t.labels[0] != t.labels[3]
    with pytest.raises(GraphError):
        _path(t, 0, 3)
    g = path_graph(5)
    g.delete_edge(2)
    parent, edge, depth = part_trees(g, [[0, 1, 2], [3, 4]])
    for p in (parent, _own_parent_roots(parent, depth)):
        for v, w in ((2, 4), (4, 2), (0, 3)):
            with pytest.raises(GraphError):
                tree_paths(p, edge, depth, np.array([v]), np.array([w]),
                           np.array([-1]))


def test_tree_path_is_valid_walk(rng):
    for _ in range(20):
        g = random_multigraph(rng, 20, 50)
        comp = max(connected_components(g), key=len)
        t = single_cluster(g, comp)
        u, v = rng.choice(comp), rng.choice(comp)
        verts, edges = _path(t, u, v)
        assert verts[0] == u and verts[-1] == v
        assert len(verts) == len(edges) + 1
        assert len(set(verts)) == len(verts)
        for i, e in enumerate(edges):
            assert {g.eu[e], g.ev[e]} == {verts[i], verts[i + 1]}
        assert len(edges) <= 2 * t.depth.max()


def _reference_walks(parent, edge, depth, v, w, e):
    """The batch by tree_reference's dict walk, one pair at a time."""
    tree = tree_reference.DictTree(
        root=-1, order=[],
        parent={x: (int(parent[x]), int(edge[x]))
                for x in np.flatnonzero(depth > 0).tolist()},
        depth={x: int(depth[x]) for x in np.flatnonzero(depth >= 0).tolist()})
    verts, edges, lens = [], [], []
    for a, b, c in zip(v.tolist(), w.tolist(), e.tolist()):
        pv, pe = tree_reference.tree_path(tree, a, b)
        verts += pv
        edges += pe + [c]
        lens.append(len(pv))
    return verts, edges, lens


def test_tree_paths_batch_matches_reference(rng):
    """Many pairs in one call, on forests of random sparse graphs (one BFS
    tree per component) under both root conventions: depth gaps of 0, 1
    and 2 or more on either side, and walks at one vertex closed by a
    loop there."""
    gaps, loops = set(), 0
    for _ in range(15):
        g = random_multigraph(rng, 40, 48)
        comps = connected_components(g)
        parent, edge, depth = part_trees(g, comps)
        comp_of = {x: c for c in comps for x in c}
        loop_at = {g.eu[x]: x for x in range(g.m_total) if g.eu[x] == g.ev[x]}
        v, w, e = [], [], []
        for _ in range(60):
            a = rng.randrange(g.n_total)
            b = rng.choice(comp_of[a])
            if a in loop_at and rng.random() < 0.2:
                b = a
            v.append(a)
            w.append(b)
            e.append(loop_at[a] if a == b and a in loop_at
                     else rng.randrange(g.m_total))
            gaps.add(int(depth[a] - depth[b]))
            loops += a == b and a in loop_at
        v, w, e = np.array(v), np.array(w), np.array(e)
        want = _reference_walks(parent, edge, depth, v, w, e)
        for p in (parent, _own_parent_roots(parent, depth)):
            verts, edges, lens = tree_paths(p, edge, depth, v, w, e)
            assert (verts.tolist(), edges.tolist(), lens.tolist()) == want
    assert {-1, 0, 1} <= gaps and min(gaps) <= -2 and max(gaps) >= 2
    assert loops


# -- contraction ------------------------------------------------------------

def test_contract_triangle():
    g = MultiGraph(3)
    e0 = g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 0)
    cm = contract(g, [0, 0, 1], [e0])
    assert cm.h.n_total == 2
    assert cm.h.m_active == 2
    assert all({cm.h.eu[e], cm.h.ev[e]} == {0, 1} for e in range(2))
    assert cm.excluded == 1


def test_contract_identity(rng):
    g = random_multigraph(rng, 12, 30)
    cm = contract(g, np.arange(12), [])
    assert cm.h.m_active == g.m_active
    assert sorted(cm.f) == g.active_edges()
    for he, e in enumerate(cm.f):
        assert {cm.h.eu[he], cm.h.ev[he]} == {g.eu[e], g.ev[e]}


def test_contract_parallel_to_loops():
    g = MultiGraph(2)
    for _ in range(4):
        g.add_edge(0, 1)
    cm = contract(g, [0, 0], [0])
    assert cm.h.n_total == 1
    assert cm.h.m_active == 3
    assert list(cm.h.eu) == list(cm.h.ev) == [0, 0, 0]


def test_contract_skips_outside_by_default():
    g = path_graph(3)
    cm = contract(g, [0, 1, -1], [])
    assert cm.h.m_active == 1
    assert cm.outside_edges == 1


@pytest.mark.parametrize("ids", [[-1], [3], [0, 7]])
@pytest.mark.parametrize("arg", ["exclude", "edges"])
def test_contract_rejects_edge_id_out_of_range(arg, ids):
    """An excluded or candidate id must name an edge: -1 would wrap to
    the last edge and an id past m_total would index out of range."""
    g = path_graph(4)
    kwargs = {"exclude": [], arg: ids}
    with pytest.raises(GraphError):
        contract(g, [0, 0, 1, 1], **kwargs)


@pytest.mark.parametrize("part", [[0, 0, 1], [0, 0, 1, 1, 2], [[0, 0, 1, 1]]])
def test_contract_rejects_part_of_wrong_shape(part):
    """`part` holds one entry per vertex slot, no more and no fewer."""
    g = path_graph(4)
    with pytest.raises(GraphError):
        contract(g, part, [])


def _reference_contract(g, parts, exclude, edges=None):
    """Straight-line re-implementation used as a cross-check: returns
    (hu, hv, f, excluded, outside)."""
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    hu, hv, f = [], [], []
    excluded = outside = 0
    cand = range(g.m_total) if edges is None else sorted(set(edges))
    for e in cand:
        if not g.eactive[e]:
            continue
        if e in exclude:
            excluded += 1
            continue
        pu = part_of.get(g.eu[e], -1)
        pv = part_of.get(g.ev[e], -1)
        if pu < 0 or pv < 0:
            outside += 1
            continue
        hu.append(pu)
        hv.append(pv)
        f.append(e)
    return hu, hv, f, excluded, outside


def _assert_contract_matches(g, parts, exclude, edges=None):
    cm = contract(g, part_array(g.n_total, parts), sorted(exclude),
                  edges=edges)
    hu, hv, f, excluded, outside = _reference_contract(g, parts, exclude,
                                                       edges)
    assert list(cm.h.eu) == hu
    assert list(cm.h.ev) == hv
    assert cm.f.tolist() == f
    assert (cm.excluded, cm.outside_edges) == (excluded, outside)
    assert cm.h.n_total == len(parts) and cm.h.m_active == len(f)
    assert list(cm.h.deg) == recomputed_degrees(cm.h)
    for v in range(cm.h.n_total):
        row = cm.h.incident(v)
        assert row == sorted(row)
        assert row == [e for e in range(len(hu)) if v in (hu[e], hv[e])]
    for i, part in enumerate(parts):
        assert all(cm.part_of[v] == i for v in part)
    assert sum(cm.part_of[v] >= 0 for v in range(g.n_total)) == \
        sum(map(len, parts))


def test_contract_bulk_matches_reference(rng):
    """A graph of more than 4096 edges."""
    g = random_multigraph(rng, 60, 5000)
    verts = list(range(60))
    rng.shuffle(verts)
    parts = [verts[i::7] for i in range(7)]
    exclude = set(rng.sample(range(5000), 300))
    _assert_contract_matches(g, parts, exclude)


def test_contract_matches_reference_on_small_inputs(rng):
    """Graphs and candidate lists far below 4096 edges, with deleted
    edges and vertices, vertices outside every part, excluded edges and
    candidate lists holding duplicates and deleted ids."""
    for trial in range(60):
        n = rng.randrange(1, 25)
        m = rng.randrange(0, 80)
        g = random_multigraph(rng, n, m)
        for e in rng.sample(range(m), m // 6):
            g.delete_edge(e)
        for v in rng.sample(range(n), n // 8):
            g.delete_vertex(v)
        verts = g.active_vertices()
        rng.shuffle(verts)
        k = rng.randrange(1, 5)
        parts = [p for p in (verts[i::k + 1] for i in range(k)) if p]
        exclude = set(rng.sample(range(m), rng.randrange(0, m // 3 + 1)))
        _assert_contract_matches(g, parts, exclude)
        if m:
            cand = [rng.randrange(m) for _ in range(rng.randrange(0, 40))]
            _assert_contract_matches(g, parts, exclude, edges=cand)


def test_contract_candidate_list(rng):
    g = random_multigraph(rng, 30, 400)
    parts = [list(range(0, 15)), list(range(15, 30))]
    cand = rng.sample(range(400), 120)
    _assert_contract_matches(g, parts, set(), edges=cand)


def test_contract_edge_conservation(rng):
    for _ in range(25):
        g = random_multigraph(rng, 20, 60)
        cut = rng.randrange(1, 20)
        parts = [list(range(cut)), list(range(cut, 20))]
        exclude = {e for e in g.active_edges() if rng.random() < 0.2}
        cm = contract(g, part_array(20, parts), sorted(exclude))
        assert cm.h.m_active + cm.excluded + cm.outside_edges == g.m_active
        for he, e in enumerate(cm.f):
            pu, pv = cm.h.eu[he], cm.h.ev[he]
            assert {cm.part_of[g.eu[e]], cm.part_of[g.ev[e]]} == {pu, pv}


# -- flat adjacency and the vectorized BFS ----------------------------------

def test_flat_adjacency_matches_incidence(rng):
    g = random_multigraph(rng, 25, 300)
    for e in rng.sample(range(300), 80):
        g.delete_edge(e)
    for v in rng.sample(range(25), 3):
        g.delete_vertex(v)
    starts, tails, eids = (a.tolist() for a in flat_adjacency_np(g))
    want = _scalar_rows(g.eu, g.ev, g.eactive, g.n_total)
    for v in range(g.n_total):
        row = list(zip(eids[starts[v]:starts[v + 1]],
                       tails[starts[v]:starts[v + 1]]))
        assert row == want[v]


def test_flat_adjacency_empty():
    starts, tails, eids = flat_adjacency_np(MultiGraph(4))
    assert list(starts) == [0] * 5
    assert len(tails) == 0 and len(eids) == 0


def _scalar_forest(g, roots, labels, seen=()):
    """Multi-root BFS with one FIFO queue, rows in incidence order, a
    vertex entered only from its own label and never if in `seen`:
    (order, parent, edge, depth)."""
    order = list(roots)
    parent = [-1] * len(roots)
    edge = [-1] * len(roots)
    depth = [0] * len(roots)
    seen = set(roots) | set(seen)
    for head, v in enumerate(order):
        for e in g.incident(v):
            w = g.other_end(e, v)
            if labels[w] == labels[v] and w not in seen:
                seen.add(w)
                order.append(w)
                parent.append(v)
                edge.append(e)
                depth.append(depth[head] + 1)
    return order, parent, edge, depth


def test_bfs_forest_matches_scalar(rng):
    """One root under one label; several roots of distinct labels, as
    the LDD uses it; and a shared visited array."""
    for trial in range(30):
        n = 30
        g = random_multigraph(rng, n, rng.randrange(20, 90))
        for e in rng.sample(range(g.m_total), 5):
            g.delete_edge(e)
        adj = flat_adjacency_np(g)
        if trial % 2:
            labels = np.zeros(n, dtype=np.int8)
            roots = [rng.randrange(n)]
        else:
            labels = np.array([rng.randrange(4) for _ in range(n)])
            roots = [int(np.nonzero(labels == c)[0][0])
                     for c in range(4) if (labels == c).any()]
        order, parent, edge, layers = bfs_forest(adj, roots, labels)
        want = _scalar_forest(g, roots, labels)
        depth = np.repeat(np.arange(len(layers) - 1), np.diff(layers))
        assert (order.tolist(), parent.tolist(), edge.tolist(),
                depth.tolist()) == want
        # A second call over the same visited array skips what it covered.
        visited = np.zeros(n, dtype=bool)
        first = bfs_forest(adj, roots[:1], labels, visited)[0].tolist()
        assert np.flatnonzero(visited).tolist() == sorted(first)
        rest = [v for v in range(n) if not visited[v]]
        if rest:
            again = bfs_forest(adj, rest[:1], labels, visited)[0].tolist()
            assert not set(again) & set(first)
            assert again == _scalar_forest(g, rest[:1], labels)[0]


def test_bfs_forest_shared_visited_across_labels(rng):
    """Calls sharing one visited array, as a clustering's second BFS
    shares it with its first, one label class at a time: rows reaching
    vertices already visited, of their own label or of another, skip
    them, and each tree is the scalar BFS over the vertices left."""
    skipped = 0
    for trial in range(30):
        n = 40
        g = random_multigraph(rng, n, rng.randrange(40, 160))
        adj = flat_adjacency_np(g)
        labels = np.array([rng.randrange(3) for _ in range(n)])
        visited = np.zeros(n, dtype=bool)
        seen = set(rng.sample(range(n), 4))   # visited before any call
        visited[list(seen)] = True
        for c in (0, 1, 2, 0):
            roots = [v for v in range(n)
                     if labels[v] == c and v not in seen][:2]
            if not roots:
                continue
            order, parent, edge, layers = bfs_forest(adj, roots, labels,
                                                     visited)
            want = _scalar_forest(g, roots, labels, seen)
            depth = np.repeat(np.arange(len(layers) - 1), np.diff(layers))
            assert (order.tolist(), parent.tolist(), edge.tolist(),
                    depth.tolist()) == want
            skipped += any(visited[w] and labels[w] == c
                           for v in order.tolist() for e in g.incident(v)
                           for w in [g.other_end(e, v)]
                           if w not in want[0])
            seen.update(want[0])
            assert np.flatnonzero(visited).tolist() == sorted(seen)
    assert skipped
