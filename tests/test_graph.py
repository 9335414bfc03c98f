"""Multigraph core: mutation bookkeeping, BFS trees, contraction."""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortcycles import (GraphError, MultiGraph, bfs_spanning_tree,
                         connected_components, contract, tree_path)
from shortcycles.graph import bfs_tree_np, flat_adjacency_np
from shortcycles.verify import measure_diameter

from conftest import (cycle_graph, path_graph, random_multigraph,
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


def test_delete_edges_rejects_inactive(rng):
    g = random_multigraph(rng, 20, 600)
    g.delete_edge(5)
    with pytest.raises(GraphError):
        g.delete_edges(list(range(400)))


def test_from_edges_matches_add_edge(rng):
    for trial in range(20):
        n = rng.randrange(1, 20)
        ref = random_multigraph(rng, n, rng.randrange(0, 5 * n))
        vactive = None
        if trial % 2:
            ref.add_vertex()
            ref.vactive[n] = 0
            ref.n_active -= 1
            vactive = ref.vactive
        g = MultiGraph.from_edges(ref.n_total, list(ref.eu), list(ref.ev),
                                  vactive)
        for attr in ("eu", "ev", "deg"):
            assert list(getattr(g, attr)) == list(getattr(ref, attr))
        assert g.eactive == ref.eactive and g.vactive == ref.vactive
        assert [list(a) for a in g.inc] == [list(a) for a in ref.inc]
        assert (g.n_active, g.m_active) == (ref.n_active, ref.m_active)


def test_add_vertices_bulk():
    g = path_graph(3)
    g.add_vertices(500)
    assert g.n_total == 503
    assert g.n_active == 503
    assert g.degree(100) == 0
    g.add_edge(3, 502)
    assert g.degree(502) == 1


def test_compact_drops_tombstones(rng):
    g = random_multigraph(rng, 15, 60)
    for e in range(0, 60, 3):
        g.delete_edge(e)
    g.delete_vertex(7)
    h, vmap, emap = g.compact()
    assert h.n_total == g.n_active
    assert h.m_total == g.m_active
    for ne, oe in enumerate(emap):
        assert {vmap[h.eu[ne]], vmap[h.ev[ne]]} == {g.eu[oe], g.ev[oe]}


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


def test_components_partition_vertices(rng):
    g = random_multigraph(rng, 50, 40)
    comps = connected_components(g)
    flat = sorted(v for c in comps for v in c)
    assert flat == g.active_vertices()


# -- BFS spanning trees -----------------------------------------------------

def test_bfs_star_from_center():
    g = star_graph(4)
    t = bfs_spanning_tree(g, None, 0)
    assert t.max_depth() == 1
    assert len(t.order) == 5


def test_bfs_cycle_six():
    t = bfs_spanning_tree(cycle_graph(6), None, 0)
    assert t.max_depth() == 3


def test_bfs_singleton():
    g = MultiGraph(1)
    t = bfs_spanning_tree(g, None, 0)
    assert t.order == [0]
    assert t.parent == {}


def test_bfs_root_outside_component():
    g = path_graph(4)
    with pytest.raises(GraphError):
        bfs_spanning_tree(g, [0, 1], 3)


def test_bfs_depth_structure(rng):
    g = random_multigraph(rng, 40, 80)
    comp = connected_components(g)[0]
    t = bfs_spanning_tree(g, comp, comp[0])
    assert set(t.covered) == set(comp)
    for v, (p, e) in t.parent.items():
        assert t.depth[v] == t.depth[p] + 1
        assert {g.eu[e], g.ev[e]} == {v, p} or g.eu[e] == g.ev[e] == v == p


def test_bfs_depth_at_most_diameter(rng):
    for _ in range(10):
        g = random_multigraph(rng, 25, 60)
        for comp in connected_components(g):
            t = bfs_spanning_tree(g, comp, comp[0])
            assert t.max_depth() <= measure_diameter(g, comp)


# -- tree paths -------------------------------------------------------------

def test_tree_path_same_vertex():
    t = bfs_spanning_tree(path_graph(3), None, 0)
    verts, edges = tree_path(t, 2, 2)
    assert verts == [2] and edges == []


def test_tree_path_along_path():
    t = bfs_spanning_tree(path_graph(3), None, 0)
    verts, edges = tree_path(t, 0, 2)
    assert verts == [0, 1, 2]
    assert edges == [0, 1]


def test_tree_path_through_center():
    g = star_graph(3)
    t = bfs_spanning_tree(g, None, 0)
    verts, edges = tree_path(t, 1, 2)
    assert verts == [1, 0, 2]
    assert len(edges) == 2


def test_tree_path_uncovered_vertex():
    g = path_graph(4)
    g.delete_edge(2)
    t = bfs_spanning_tree(g, [0, 1, 2], 0)
    with pytest.raises(GraphError):
        tree_path(t, 0, 3)


def test_tree_path_is_valid_walk(rng):
    for _ in range(20):
        g = random_multigraph(rng, 20, 50)
        comp = max(connected_components(g), key=len)
        t = bfs_spanning_tree(g, comp, comp[0])
        u, v = rng.choice(comp), rng.choice(comp)
        verts, edges = tree_path(t, u, v)
        assert verts[0] == u and verts[-1] == v
        assert len(verts) == len(edges) + 1
        assert len(set(verts)) == len(verts)
        for i, e in enumerate(edges):
            assert {g.eu[e], g.ev[e]} == {verts[i], verts[i + 1]}
        assert len(edges) <= 2 * t.max_depth()


# -- contraction ------------------------------------------------------------

def test_contract_triangle():
    g = MultiGraph(3)
    e0 = g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 0)
    cm = contract(g, [[0, 1], [2]], {e0})
    assert cm.h.n_total == 2
    assert cm.h.m_active == 2
    assert all({cm.h.eu[e], cm.h.ev[e]} == {0, 1} for e in range(2))
    assert cm.excluded == 1


def test_contract_identity(rng):
    g = random_multigraph(rng, 12, 30)
    cm = contract(g, [[v] for v in range(12)], set())
    assert cm.h.m_active == g.m_active
    assert sorted(cm.f) == g.active_edges()
    for he, e in enumerate(cm.f):
        assert {cm.h.eu[he], cm.h.ev[he]} == {g.eu[e], g.ev[e]}


def test_contract_parallel_to_loops():
    g = MultiGraph(2)
    for _ in range(4):
        g.add_edge(0, 1)
    cm = contract(g, [[0, 1]], {0})
    assert cm.h.n_total == 1
    assert cm.h.m_active == 3
    assert all(cm.h.is_loop(e) for e in range(3))


def test_contract_strict_outside_raises():
    g = path_graph(3)
    with pytest.raises(GraphError):
        contract(g, [[0], [1]], set(), strict=True)


def test_contract_skips_outside_by_default():
    g = path_graph(3)
    cm = contract(g, [[0], [1]], set())
    assert cm.h.m_active == 1
    assert cm.outside_edges == 1


def _reference_contract(g, parts, exclude, edges=None):
    """Straight-line re-implementation used as a cross-check."""
    part_of = {}
    for i, part in enumerate(parts):
        for v in part:
            part_of[v] = i
    hu, hv, f = [], [], []
    cand = range(g.m_total) if edges is None else sorted(set(edges))
    for e in cand:
        if not g.eactive[e] or e in exclude:
            continue
        pu = part_of.get(g.eu[e], -1)
        pv = part_of.get(g.ev[e], -1)
        if pu < 0 or pv < 0:
            continue
        hu.append(pu)
        hv.append(pv)
        f.append(e)
    return hu, hv, f


def test_contract_bulk_matches_reference(rng):
    """Graph large enough to take the vectorized path."""
    g = random_multigraph(rng, 60, 5000)
    verts = list(range(60))
    rng.shuffle(verts)
    parts = [verts[i::7] for i in range(7)]
    exclude = set(rng.sample(range(5000), 300))
    cm = contract(g, parts, exclude)
    hu, hv, f = _reference_contract(g, parts, exclude)
    assert list(cm.h.eu) == hu
    assert list(cm.h.ev) == hv
    assert cm.f == f
    assert list(cm.h.deg) == recomputed_degrees(cm.h)
    for v in range(cm.h.n_total):
        row = cm.h.incident(v)
        assert row == sorted(row)


def test_contract_candidate_list(rng):
    g = random_multigraph(rng, 30, 400)
    parts = [list(range(0, 15)), list(range(15, 30))]
    cand = rng.sample(range(400), 120)
    cm = contract(g, parts, set(), edges=cand)
    hu, hv, f = _reference_contract(g, parts, set(), edges=cand)
    assert list(cm.h.eu) == hu and list(cm.h.ev) == hv and cm.f == f


def test_contract_edge_conservation(rng):
    for _ in range(25):
        g = random_multigraph(rng, 20, 60)
        cut = rng.randrange(1, 20)
        parts = [list(range(cut)), list(range(cut, 20))]
        exclude = {e for e in g.active_edges() if rng.random() < 0.2}
        cm = contract(g, parts, exclude)
        assert cm.h.m_active + cm.excluded + cm.outside_edges == g.m_active
        for he, e in enumerate(cm.f):
            pu, pv = cm.h.eu[he], cm.h.ev[he]
            assert {cm.part_of[g.eu[e]], cm.part_of[g.ev[e]]} == {pu, pv}


def test_contract_duplicate_part_raises():
    g = path_graph(3)
    with pytest.raises(GraphError):
        contract(g, [[0, 1], [1, 2]], set())


# -- flat adjacency and the vectorized BFS ----------------------------------

def test_flat_adjacency_matches_incidence(rng):
    g = random_multigraph(rng, 25, 300)
    for e in rng.sample(range(300), 80):
        g.delete_edge(e)
    for v in rng.sample(range(25), 3):
        g.delete_vertex(v)
    starts, tails, eids = (a.tolist() for a in flat_adjacency_np(g))
    for v in range(g.n_total):
        row = list(zip(eids[starts[v]:starts[v + 1]],
                       tails[starts[v]:starts[v + 1]]))
        want = sorted((e, g.other_end(e, v)) for e in g.incident(v))
        assert row == want


def test_flat_adjacency_empty():
    starts, tails, eids = flat_adjacency_np(MultiGraph(4))
    assert list(starts) == [0] * 5
    assert len(tails) == 0 and len(eids) == 0


def test_bfs_tree_np_matches_scalar(rng):
    for _ in range(30):
        g = random_multigraph(rng, 30, rng.randrange(20, 90))
        adj = flat_adjacency_np(g)
        comp = max(connected_components(g), key=len)
        root = comp[0]
        ref = bfs_spanning_tree(g, None, root)
        order, pv, pe, layers = bfs_tree_np(adj, root, g.n_total)
        assert order.tolist() == ref.order
        got = dict(zip(order.tolist()[1:], zip(pv.tolist(), pe.tolist())))
        assert got == ref.parent
        depth = np.repeat(np.arange(len(layers) - 1), np.diff(layers))
        assert dict(zip(order.tolist(), depth.tolist())) == ref.depth
