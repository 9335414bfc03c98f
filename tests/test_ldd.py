"""Low-diameter decomposition: cut bound, diameter cap, partition shape."""
import itertools
import math
from fractions import Fraction

import pytest

from shortcycles import (GraphError, MultiGraph, low_diam_decomp,
                         measure_diameter)
from shortcycles.io import d_regular, gnm
from shortcycles.ldd import diameter_cap

from conftest import cycle_graph, path_graph, random_multigraph, star_graph

B12 = Fraction(1, 12)


def test_diameter_cap_formula():
    assert diameter_cap(B12, 500) == math.ceil(48 * math.log(501))
    assert diameter_cap(Fraction(1, 2), 10) == math.ceil(8 * math.log(11))


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        low_diam_decomp(MultiGraph(0), B12, seed=0)


def test_bad_beta_rejected():
    g = cycle_graph(3)
    with pytest.raises(GraphError):
        low_diam_decomp(g, Fraction(0), seed=0)
    with pytest.raises(GraphError):
        low_diam_decomp(g, Fraction(3, 2), seed=0)


def test_triangle_full_beta():
    g = cycle_graph(3)
    res = low_diam_decomp(g, Fraction(1), seed=1)
    assert sum(len(c) for c in res.clusters) == 3
    assert res.max_diameter <= diameter_cap(Fraction(1), 3)


def test_star_single_cluster_admissible():
    """K_{1,99}: whatever the shifts do, every guarantee must hold."""
    g = star_graph(99)
    cap = diameter_cap(B12, 100)
    assert 2 <= cap
    res = low_diam_decomp(g, B12, seed=7)
    assert 12 * len(res.removed) <= g.m_active
    for cluster in res.clusters:
        assert measure_diameter(g_minus(g, res.removed), cluster) <= cap


def test_long_path_cut_bound():
    g = path_graph(1000)
    res = low_diam_decomp(g, B12, seed=3)
    assert len(res.removed) <= 999 // 12
    cap = diameter_cap(B12, 1000)
    cut = g_minus(g, res.removed)
    for cluster in res.clusters:
        assert measure_diameter(cut, cluster) <= cap


def g_minus(g, removed):
    h = g.copy()
    for e in removed:
        h.delete_edge(e)
    return h


def _check_partition(g, res):
    flat = sorted(v for c in res.clusters for v in c)
    assert flat == g.active_vertices()
    cluster_of = {}
    for i, c in enumerate(res.clusters):
        for v in c:
            cluster_of[v] = i
    for e in g.active_edges():
        if e not in res.removed:
            assert cluster_of[g.eu[e]] == cluster_of[g.ev[e]]


def test_partition_and_intra_cluster_edges(rng):
    for trial in range(15):
        g = random_multigraph(rng, 80, 300)
        res = low_diam_decomp(g, B12, seed=trial)
        _check_partition(g, res)
        assert 12 * len(res.removed) <= g.m_active
        assert res.retries <= 20


def test_guarantees_on_seeded_runs():
    """The measured diameter from the independent oracle respects the cap."""
    cap = diameter_cap(B12, 200)
    for seed in range(8):
        g = gnm(200, 2000, seed=seed)
        res = low_diam_decomp(g, B12, seed=seed)
        cut = g_minus(g, res.removed)
        worst = 0
        for cluster in res.clusters:
            d = measure_diameter(cut, cluster)
            worst = max(worst, d)
            assert d <= cap
        assert worst <= res.max_diameter or res.diameter_exact is False
        if res.diameter_exact:
            assert worst == res.max_diameter


def test_deterministic_per_seed():
    g = gnm(120, 700, seed=9)
    a = low_diam_decomp(g, B12, seed=42)
    b = low_diam_decomp(g, B12, seed=42)
    assert a.removed == b.removed
    assert a.clusters == b.clusters
    assert a.retries == b.retries


def test_different_seeds_vary():
    g = path_graph(1500)
    outcomes = {frozenset(low_diam_decomp(g, B12, seed=s).removed)
                for s in range(6)}
    assert len(outcomes) > 1


def test_truncation_counter_nonnegative():
    g = gnm(50, 200, seed=4)
    res = low_diam_decomp(g, B12, seed=4)
    assert res.truncated_shifts >= 0


def _scalar_tree(g, cluster):
    """BFS from the cluster's first vertex inside the cluster, incidence
    rows in edge-id order: (order, parent, parent edge, depth) lists."""
    member = set(cluster)
    root = cluster[0]
    order, parent, pedge, depth = [root], [-1], [-1], [0]
    seen = {root}
    head = 0
    while head < len(order):
        v = order[head]
        for e in g.incident(v):
            w = g.other_end(e, v)
            if w in member and w not in seen:
                seen.add(w)
                order.append(w)
                parent.append(v)
                pedge.append(e)
                depth.append(depth[head] + 1)
        head += 1
    return order, parent, pedge, depth


def _row_scan(g, cluster):
    """Internal edges by (vertex, id), each once, and internal degrees."""
    member = set(cluster)
    edges, degrees = [], {}
    for v in cluster:
        degrees[v] = 0
        for e in g.incident(v):
            w = g.other_end(e, v)
            if w not in member:
                continue
            if w == v:
                degrees[v] += 2
                edges.append(e)
            else:
                degrees[v] += 1
                if g.eu[e] == v:
                    edges.append(e)
    return edges, degrees


def test_cluster_forest_matches_scalar_bfs():
    """Every cluster's forest slice is the scalar BFS tree from its first
    vertex, and its edge slice the row scan of its vertices."""
    trees = 0
    betas = (Fraction(1, 2), Fraction(1))
    for seed, beta in itertools.product(range(3), betas):
        for g in (gnm(600, 700, seed=seed), d_regular(600, 3, seed=seed),
                  gnm(300, 3000, seed=seed)):
            res = low_diam_decomp(g, beta, seed=seed)
            ts, es = res.tree_starts, res.edge_starts
            for i, cluster in enumerate(res.clusters):
                assert (res.labels[cluster] == i).all()
                edges, degrees = _row_scan(g, cluster)
                assert res.edges[es[i]:es[i + 1]].tolist() == edges
                assert res.degrees[cluster].tolist() == \
                    [degrees[v] for v in cluster]
                a, b = ts[i], ts[i + 1]
                if len(cluster) == 1:
                    assert a == b
                    continue
                order, parent, pedge, depth = _scalar_tree(g, cluster)
                assert res.tree_order[a:b].tolist() == order
                assert res.tree_parent[a:b].tolist() == parent
                assert res.tree_edge[a:b].tolist() == pedge
                assert res.tree_depth[a:b].tolist() == depth
                tdeg = {v: 0 for v in order}
                for v, p in zip(order[1:], parent[1:]):
                    tdeg[v] += 1
                    tdeg[p] += 1
                assert res.tree_max_degree[i] == max(tdeg.values())
                tree = res.tree(i)
                assert tree.order == order
                assert tree.parent == dict(zip(order[1:],
                                               zip(parent[1:], pedge[1:])))
                trees += 1
    assert trees > 300
