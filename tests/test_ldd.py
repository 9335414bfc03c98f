"""Low-diameter decomposition: cut bound, diameter cap, partition shape."""
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from shortcycles import (GraphError, MultiGraph, low_diam_decomp,
                         measure_diameter)
from shortcycles.io import d_regular, gnm
from shortcycles.graph import flat_adjacency_np
from shortcycles.primitives import tree_split
from shortcycles import ldd
from shortcycles.ldd import (_active_edges, _class_edges, _clustering,
                             _shifted_search, diameter_cap, repair,
                             single_cluster)
from shortcycles.rng import mix64

from conftest import cycle_graph, path_graph, random_multigraph, star_graph
from ldd_reference import dial_centers, dial_search, dict_clusters

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
    """The clusters partition the active vertices that have an active
    edge; every other vertex has label -1."""
    flat = sorted(v for c in res.clusters for v in c)
    assert flat == [v for v in g.active_vertices() if g.deg[v]]
    assert [v for v in range(g.n_total) if res.labels[v] < 0] == [
        v for v in range(g.n_total) if not (g.vactive[v] and g.deg[v])]
    cluster_of = {}
    for i, c in enumerate(res.clusters):
        for v in c:
            cluster_of[v] = i
    for e in g.active_edges():
        if e not in res.removed:
            assert cluster_of[g.eu[e]] == cluster_of[g.ev[e]]


def test_edgeless_vertex_joins_no_cluster():
    """An active vertex without an active edge gets label -1 and depth -1,
    no tree and no part, like an inactive vertex; one with only a loop
    is a cluster of its own."""
    g = MultiGraph(7)
    for u, v in [(0, 1), (1, 2), (4, 4), (3, 5)]:
        g.add_edge(u, v)
    g.delete_edge(3)   # 3 and 5 keep only a deleted edge; 6 has none
    g.delete_vertex(2)
    res = low_diam_decomp(g, Fraction(1), seed=0)
    _check_partition(g, res)
    off = [2, 3, 5, 6]
    assert res.labels[off].tolist() == [-1] * 4
    assert res.depth[off].tolist() == [-1] * 4
    assert res.parent[off].tolist() == [-1] * 4
    assert not set(res.tree_order.tolist()) & set(off)
    assert sorted(res.tree_order.tolist()) == [0, 1, 4]
    assert (tree_split(res, res.degrees, 1)[off] == -1).all()
    assert [4] in res.clusters
    # No active vertex has an active edge, so none draws a shift.
    bare = path_graph(4)
    bare.delete_edges([0, 1, 2])
    bare.delete_vertex(1)
    for edgeless in (MultiGraph(3), bare):
        res = low_diam_decomp(edgeless, B12, seed=0)
        assert res.clusters == [] and res.max_diameter == 0
        assert res.truncated_shifts == 0 and res.removed == set()
        off = [-1] * edgeless.n_total
        assert res.labels.tolist() == res.depth.tolist() == off


def test_partition_and_intra_cluster_edges(rng):
    for trial in range(15):
        g = random_multigraph(rng, 80, 300)
        res = low_diam_decomp(g, B12, seed=trial)
        _check_partition(g, res)
        assert 12 * len(res.removed) <= g.m_active
        assert res.retries <= 20


def _assert_guarantees(g, seed):
    """The measured diameter from the independent oracle is at most
    max_diameter, which is at most the cap; returns (res, cap)."""
    res = low_diam_decomp(g, B12, seed=seed)
    cut = g_minus(g, res.removed)
    worst = max(measure_diameter(cut, c) for c in res.clusters)
    cap = diameter_cap(B12, g.n_active)
    assert worst <= res.max_diameter <= cap
    return res, cap


def test_guarantees_on_seeded_runs():
    """The guarantees hold on gnm draws and on the long path. Some seed in
    0-29 gives the long path a first draw that is accepted although twice
    one cluster's forest depth from its first vertex is over the cap: the
    bound comes from the hop counts."""
    for seed in range(8):
        _assert_guarantees(gnm(200, 2000, seed=seed), seed)
    g = path_graph(1500)
    for seed in range(30):
        res, cap = _assert_guarantees(g, seed)
        if 2 * res.depth.max() > cap and res.retries == 0:
            break
    else:
        pytest.fail("no seed in 0-29 gives an accepted deep first draw")


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


def _assert_forest_matches(g, res, i, cluster):
    """Cluster i of `res` against the scalar BFS and row scan."""
    assert (res.labels[cluster] == i).all()
    ts = res.member_starts
    edges, degrees = _row_scan(g, cluster)
    assert res.edges[res.edge_label == i].tolist() == sorted(edges)
    assert res.degrees[cluster].tolist() == [degrees[v] for v in cluster]
    order, parent, pedge, depth = _scalar_tree(g, cluster)
    a, b = ts[i], ts[i + 1]
    assert res.tree_order[a:b].tolist() == order
    assert res.parent[order].tolist() == parent
    assert res.parent_edge[order].tolist() == pedge
    assert res.depth[order].tolist() == depth
    off = np.ones(len(res.labels), dtype=bool)
    off[res.tree_order] = False   # vertices in no cluster's tree
    assert (res.parent[off] == -1).all() and (res.parent_edge[off] == -1).all()
    assert (res.depth[off] == -1).all()


def test_cluster_forest_matches_scalar_bfs(rng):
    """Every cluster's forest slice and per-vertex forest arrays are the
    scalar BFS tree from its first vertex (a singleton's tree is its one
    vertex), -1 off the forest, and its edge slice the row scan of its
    vertices. The same holds for single_cluster on connected vertex sets
    that are not LDD clusters."""
    trees = singles = 0
    betas = (Fraction(1, 2), Fraction(1))
    for seed, beta in itertools.product(range(3), betas):
        for g in (gnm(600, 700, seed=seed), d_regular(600, 3, seed=seed),
                  gnm(300, 3000, seed=seed)):
            res = low_diam_decomp(g, beta, seed=seed)
            for i, cluster in enumerate(res.clusters):
                _assert_forest_matches(g, res, i, cluster)
                trees += 1
                singles += len(cluster) == 1
    assert trees - singles > 300 and singles > 100
    for seed in range(3):
        g = gnm(80, 160, seed=seed)
        for e in rng.sample(range(160), 20):
            g.delete_edge(e)
        for size in (1, 2, 5, 20, 60):
            grown = [rng.randrange(80)]   # a random connected set
            for _ in range(size - 1):
                fresh = [w for v in grown for w in
                         (g.other_end(e, v) for e in g.incident(v))
                         if w not in grown]
                if fresh:
                    grown.append(rng.choice(fresh))
            cluster = sorted(grown)
            _assert_forest_matches(g, single_cluster(g, grown), 0, cluster)


def _matches_reference(g, beta, seed):
    """low_diam_decomp's accepted attempt equals the Dial queue and dict
    grouping on the same draw; returns its truncated shift count."""
    res = low_diam_decomp(g, beta, seed=seed)
    shift_cap = 2.0 / float(beta) * math.log(g.n_active + 1)
    center, truncated = dial_centers(g, float(beta),
                                     mix64(seed, res.retries), shift_cap)
    clusters, labels = dict_clusters(center)
    assert res.truncated_shifts == truncated
    assert res.clusters == clusters
    assert res.labels.tolist() == labels
    crossing = {e for e in g.active_edges()
                if labels[g.eu[e]] != labels[g.ev[e]]}
    assert res.removed == crossing
    return truncated


def test_shifted_search_matches_dial_queue(rng):
    """Centers and truncation counts equal the scalar bucket queue's on
    gnm, d_regular and random multigraphs with loops, isolated and
    deleted vertices and deleted edges."""
    for seed, beta in itertools.product(range(4), (B12, Fraction(1, 2))):
        g = random_multigraph(rng, 120, 150)
        g.add_vertices(10)                      # isolated
        for v in rng.sample(range(120), 8):
            g.delete_vertex(v)
        for e in rng.sample(g.active_edges(), 10):
            g.delete_edge(e)
        for h in (g, gnm(300, 900, seed=seed), d_regular(200, 3, seed=seed)):
            _matches_reference(h, beta, seed)


def test_shifted_search_ties_match_dial_queue():
    """On tiny graphs with beta 1 and 1/2 the shift cap is small, so
    several shifts are truncated to the same value and tie; the lowest
    center id takes those ties."""
    ties = 0
    for seed in range(3000):
        local = random.Random(seed)
        small = random_multigraph(local, 6, 9)
        for beta in (Fraction(1), Fraction(1, 2)):
            for g in (path_graph(6), star_graph(5), cycle_graph(6), small):
                ties += _matches_reference(g, beta, seed) >= 2
    assert ties > 0


def _assert_hop_bound(g, center, dist, shifts):
    """Exactly the active vertices without an edge have no center. Each
    other's hop count h = dist(v) - dist(center) is 0 at its center, at
    least its BFS depth from the center inside its cluster, and at most
    shift(center) - shift(v)."""
    live = [v for v in shifts if g.deg[v]]
    assert [v for v in shifts if center[v] >= 0] == live
    hops = {v: np.rint(dist[v] - dist[center[v]]) for v in live}
    clusters = {}
    for v in live:
        clusters.setdefault(int(center[v]), []).append(v)
    for c, cluster in clusters.items():
        assert hops[c] == 0
        order, _, _, depth = _scalar_tree(
            g, [c] + [v for v in cluster if v != c])
        assert len(order) == len(cluster)
        for v, d in zip(order, depth):
            assert d <= hops[v] <= shifts[c] - shifts[v] + 1e-9


def _search(g, shifts, groups):
    """_shifted_search on g's active edges and a dict of shifts, of which
    it reads those of the vertices with an edge."""
    adj = flat_adjacency_np(g)
    active = np.asarray(g.active_vertices(), dtype=np.int64)
    live = active[adj[0][active + 1] > adj[0][active]]
    return _shifted_search(adj, live,
                           np.array([shifts[v] for v in live.tolist()]),
                           np.asarray(groups, dtype=np.int64))


def test_shifted_search_matches_dial_queue_on_coarse_shifts(rng):
    """Shifts on a coarse grid make offers from different centers tie, so
    the lowest-center rule decides; the tie cases below pin it by hand.
    On disjoint unions of small random multigraphs (loops, isolated and
    deleted vertices), one bucket clock per component, per group of a
    random coarsening of the components, and one clock for all give the
    scalar queue's centers and distances; the components' buckets differ,
    so one clock per vertex would not. The hop counts bound every
    vertex's depth from its center."""
    unions = 0
    for trial in range(300):
        g = MultiGraph(0)
        for _ in range(rng.randrange(1, 5)):
            base = g.n_total
            n = rng.randrange(1, 25)
            g.add_vertices(n)
            for _ in range(rng.randrange(0, 2 * n)):
                g.add_edge(base + rng.randrange(n), base + rng.randrange(n))
        g.add_vertices(rng.randrange(3))            # isolated
        for v in rng.sample(range(g.n_total), g.n_total // 8):
            g.delete_vertex(v)
        grid = rng.choice((0.5, 0.25, 1.5))
        shifts = {v: grid * rng.randrange(6) for v in g.active_vertices()}
        want, want_dist = dial_search(g, shifts)
        exact = g._partition()
        merge = [rng.randrange(min(3, g.n_total)) for _ in range(g.n_total)]
        coarse = [merge[c] for c in exact.tolist()]
        for groups in (exact, coarse, np.zeros(g.n_total)):
            got, dist = _search(g, shifts, groups)
            assert got.tolist() == want and dist.tolist() == want_dist
        _assert_hop_bound(g, got, dist, shifts)
        unions += len(set(exact[g.active_vertices()].tolist())) > 1
    assert unions > 200


# Vertices s1=0, sx=1, s2=2, w=3, x=4, y=5 and z=6, joined to the others
# by no edge, carrying the largest shift; its loop gives it one, as only
# vertices with an edge have a shift. sx and s2 start at equal
# distances, so w (reached from s2) and x (from sx) make offers to y at
# equal distances, and y joins sx = 1, the lower of the two centers,
# whatever order w and x settle in. w also gets an offer from s1.
_TIE_EDGES = [(0, 3), (1, 4), (2, 3), (3, 5), (4, 5), (6, 6)]
_TIE_SHIFTS = [
    # s1's offer to w is worse than s2's but in the same bucket.
    {0: 2.25, 1: 2.75, 2: 2.75, 3: 0.0, 4: 0.0, 5: 0.0, 6: 3.0},
    # s1 starts at 2 - 2**-52, so its offer rounds up to 3.0, a bucket
    # later than s2's final 2.25.
    {0: 1.5 + 2.0 ** -52, 1: 2.25, 2: 2.25, 3: 0.0, 4: 0.0, 5: 0.0,
     6: 3.5},
]


@pytest.mark.parametrize("shifts", _TIE_SHIFTS)
def test_shifted_search_ties_go_to_lowest_center(shifts):
    g = MultiGraph(7)
    for u, v in _TIE_EDGES:
        g.add_edge(u, v)
    got, dist = _search(g, shifts, np.zeros(7))
    want, want_dist = dial_search(g, shifts)
    assert got.tolist() == want and dist.tolist() == want_dist
    assert got[3] == 2 and got[4] == 1 and got[5] == 1
    _assert_hop_bound(g, got, dist, shifts)


def _pieces(g, prev):
    """Reference repair: every cluster of `prev`, cut to the active
    vertices with an active edge, split into the connected pieces of its
    internal active edges, each ascending, ordered by lowest vertex."""
    alive = {v for v in g.active_vertices() if g.deg[v]}
    label = {v: int(prev.labels[v]) for v in alive}
    nbrs = {v: [] for v in alive}
    for e in g.active_edges():
        u, w = g.eu[e], g.ev[e]
        if label[u] == label[w]:
            nbrs[u].append(w)
            nbrs[w].append(u)
    pieces, seen = [], set()
    for s in sorted(alive):
        if s in seen:
            continue
        seen.add(s)
        piece, stack = [s], [s]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    piece.append(w)
                    stack.append(w)
        pieces.append(sorted(piece))
    return pieces


def _check_repair(g, prev, beta):
    """repair(g, prev, beta) is None exactly when the reference pieces
    break the cut bound or the diameter cap; otherwise its clusters are
    those pieces, partition the active vertices with an edge, keep the
    surviving crossing edges of `prev` as their only crossing edges, and
    carry the scalar BFS tree of each piece. Returns the result."""
    res = repair(g, prev, beta)
    pieces = _pieces(g, prev)
    crossing = {e for e in prev.removed if g.eactive[e]}
    depth = max((max(_scalar_tree(g, p)[3]) for p in pieces), default=0)
    cap = diameter_cap(beta, g.n_active)
    fails = (len(crossing) * beta.denominator > beta.numerator * g.m_active
             or 2 * depth > cap)
    assert (res is None) == fails
    if res is not None:
        assert res.clusters == pieces
        _check_partition(g, res)
        assert res.removed == crossing
        assert res.max_diameter == 2 * depth
        for i, piece in enumerate(pieces):
            _assert_forest_matches(g, res, i, piece)
    return res


def test_repair_splits_clusters_into_connected_pieces(rng):
    """On random multigraphs (loops, parallel edges, isolated vertices),
    deleting vertices of an LDD's largest cluster leaves the clustering
    repair rebuilds: the connected pieces of every cluster, with their
    trees; some deletions cut a cluster in two, and some leave a vertex
    without an edge, which joins no piece."""
    splits = stranded = 0
    for trial in range(60):
        g = random_multigraph(rng, 60, rng.randrange(60, 150))
        g.add_vertices(3)
        beta = rng.choice((B12, Fraction(1, 2), Fraction(1)))
        prev = low_diam_decomp(g, beta, seed=trial)
        big = max(prev.clusters, key=len)
        g.delete_vertices(rng.sample(big, max(1, len(big) // 4)))
        res = _check_repair(g, prev, beta)
        if res is None:
            continue
        splits += len(res.clusters) > len(prev.clusters)
        stranded += any(prev.labels[v] >= 0 and res.labels[v] < 0
                        for v in g.active_vertices())
    assert splits > 20 and stranded > 20


def test_chained_repairs_match_the_reference(rng):
    """Three deletions in a row on random multigraphs, each repair taken
    on the result of the one before: every step is the reference
    repair, splits included."""
    steps = splits = 0
    for trial in range(40):
        g = random_multigraph(rng, 60, rng.randrange(80, 160))
        prev = low_diam_decomp(g, Fraction(1), seed=trial)
        for _ in range(3):
            big = max(prev.clusters, key=len)
            g.delete_vertices(rng.sample(big, max(1, len(big) // 3)))
            res = _check_repair(g, prev, Fraction(1))
            if res is None or not g.m_active:
                break
            steps += 1
            splits += len(res.clusters) > len(prev.clusters)
            prev = res
    assert steps > 80 and splits > 30


def _counted(monkeypatch, name):
    """Count the calls ldd makes to `name`."""
    calls = []
    real = getattr(ldd, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(ldd, name, counted)
    return calls


def test_repair_splits_a_class_into_three_pieces(monkeypatch):
    """Class {0, ..., 9} hangs off vertex 1. Deleting it leaves vertex 0,
    the class's lowest, with only a crossing edge: a piece of its own,
    and all the first BFS finds of the class. The other two pieces,
    {2, 4, 6, 8} and {3, 5, 7, 9}, come from label_components and a
    second BFS rooted at their lowest vertices, with trees of depth 2."""
    g = MultiGraph(13)
    for u, v in [(0, 1), (1, 2), (1, 3),
                 (2, 4), (4, 6), (6, 8), (4, 8), (6, 6),
                 (3, 5), (5, 7), (7, 9), (5, 9), (5, 9),
                 (0, 10), (8, 11), (9, 12),
                 (10, 11), (11, 12), (12, 10)]:
        g.add_edge(u, v)
    prev = _centered(g, [0] * 10 + [10] * 3)
    g.delete_vertices([1])
    lc = _counted(monkeypatch, "label_components")
    bfs = _counted(monkeypatch, "bfs_forest")
    res = _check_repair(g, prev, Fraction(1))
    assert (len(lc), len(bfs)) == (1, 2)
    assert res.clusters == [[0], [2, 4, 6, 8], [3, 5, 7, 9], [10, 11, 12]]
    assert res.depth[[8, 7, 9]].tolist() == [2, 2, 2]


def test_repair_without_a_split_runs_one_bfs(monkeypatch, rng):
    """A repair that splits no cluster makes one bfs_forest call and no
    label_components call; one that splits some makes one of each more."""
    seen = set()
    for trial in range(40):
        g = random_multigraph(rng, 60, rng.randrange(80, 200))
        prev = low_diam_decomp(g, Fraction(1), seed=trial)
        g.delete_vertices(rng.sample(g.active_vertices(), 3))
        classes = {int(prev.labels[v]) for v in g.active_vertices()
                   if g.deg[v]}
        split = len(_pieces(g, prev)) > len(classes)
        lc = _counted(monkeypatch, "label_components")
        bfs = _counted(monkeypatch, "bfs_forest")
        assert repair(g, prev, Fraction(1)) is not None
        assert (len(lc), len(bfs)) == ((1, 2) if split else (0, 1))
        monkeypatch.undo()
        seen.add(split)
    assert seen == {False, True}


def _centered(g, center):
    """The clustering of g given by a per-vertex center list."""
    center = np.asarray(center, dtype=np.int64)
    return _clustering(center, flat_adjacency_np(g),
                       *_class_edges(center, _active_edges(g)))


def test_repair_refuses_a_cut_over_the_bound():
    """Clusters {0, 1, 2} and {3, 4, 5} joined by 2 of 7 edges. Deleting
    vertex 1 leaves 2 crossing edges of 5, within beta = 2/5, exactly, but
    over beta = 1/3, where repair refuses."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (2, 3), (0, 5)]
    for beta, refused in ((Fraction(2, 5), False), (Fraction(1, 3), True)):
        g = MultiGraph(6)
        for u, v in edges:
            g.add_edge(u, v)
        prev = _centered(g, [0, 0, 0, 3, 3, 3])
        assert len(prev.crossing) * beta.denominator <= beta.numerator * 7
        g.delete_vertices([1])
        res = _check_repair(g, prev, beta)
        assert (res is None) == refused
        if not refused:
            assert res.clusters == [[0, 2], [3, 4, 5]]


def test_repair_refuses_a_piece_over_the_cap():
    """A 40-vertex path as one cluster, beta = 1/2: the cap is 30 once two
    vertices go. Deleting 16 and 32 leaves pieces whose deepest tree has
    depth 15, within it exactly; deleting 17 and 34 leaves depth 16,
    over it."""
    beta = Fraction(1, 2)
    for cut, refused in (([16, 32], False), ([17, 34], True)):
        g = path_graph(40)
        prev = _centered(g, [0] * 40)
        g.delete_vertices(cut)
        assert diameter_cap(beta, g.n_active) == 30
        res = _check_repair(g, prev, beta)
        assert (res is None) == refused
        if not refused:
            assert res.max_diameter == 30 and len(res.clusters) == 3
