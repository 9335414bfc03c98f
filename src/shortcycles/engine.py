"""Decomposition engine: the layered cycle-finding algorithms.

Every level runs the same round loop (`_round_loop`): a low-diameter
decomposition of what is left, extraction of vertex-disjoint short cycles
from its clusters, then deletion of the covered vertices, until the level
covers m/(10*max_degree) vertices. Only the per-round extractor differs:

  one_round_short_cycle  -- one contraction round on one cluster
  improved_short_cycle   -- deepest level: one_round on every cluster
  short_cycle_decomp     -- levels above: contract the big clusters'
                            tree-split parts, sparsify, recurse one level
                            down and pull the cycles back up
  decompose              -- driver turning any multigraph into edge-disjoint
                            short cycles plus at most 20n leftover edges

The levels require m = 10n on entry and consume (mutate) the graph they
are given; `decompose` works on a private copy of its input.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph import (GraphError, MultiGraph, SpanningTree, bfs_tree_np,
                    contract, tree_path)
from .ldd import LddError, low_diam_decomp, single_cluster
from .primitives import (Cycle, LabeledTree, VertexDisjointCycleSet,
                         graph_reduce, naive_short_cycle, pull_up,
                         sparsify, split_circuit, tree_split)
from .rng import mix64

# A level with at most this many active vertices left ends with one naive
# sweep instead of another round.
_SMALL_N = 100


@dataclass(frozen=True)
class EngineConfig:
    c: int = 1
    seed: int = 0
    beta: Fraction = Fraction(1, 12)
    greedy_rounds: bool = True            # keep extracting past the target

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if not (0 < self.beta <= 1):
            raise ValueError("beta must be in (0, 1]")


@dataclass
class LevelStats:
    level: int
    edges_processed: int = 0
    rounds: int = 0
    ldd_retries: int = 0
    cycles_found: int = 0


@dataclass
class CycleDecomposition:
    cycles: list[Cycle]
    leftover: set[int]
    source_m: int
    source_n: int
    level_stats: list[LevelStats] = field(default_factory=list)

    @property
    def cycle_edge_count(self) -> int:
        return sum(len(c.edges) for c in self.cycles)

    def max_cycle_length(self) -> int:
        return max((len(c) for c in self.cycles), default=0)


class EngineFailure(GraphError):
    """Round budget exhausted or LDD hard failure; `partial` holds whatever
    was extracted before the failure."""

    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


class _Ctx:
    """Per-run bookkeeping: seed stream and per-level statistics."""

    def __init__(self, cfg: EngineConfig):
        self.cfg = cfg
        self.stream = 0
        self.levels: dict[int, LevelStats] = {}

    def next_seed(self) -> int:
        self.stream += 1
        return mix64(self.cfg.seed, self.stream)

    def stats(self, level: int) -> LevelStats:
        if level not in self.levels:
            self.levels[level] = LevelStats(level=level)
        return self.levels[level]

    def stats_list(self) -> list[LevelStats]:
        return [self.levels[k] for k in sorted(self.levels)]


def _isqrt_ceil(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def _introot(x: int, p: int) -> int:
    """floor(x ** (1/p)) without float drift."""
    if x < 1:
        return 0
    r = int(round(x ** (1.0 / p)))
    while r ** p > x:
        r -= 1
    while (r + 1) ** p <= x:
        r += 1
    return r


# Cluster size at which one_round switches to the vectorized scan.
_VEC_CUTOFF = 4096


def _cluster_tree(adj_np, root: int, n_total: int, cnp):
    """BFS spanning tree of root's center class, confined by center labels,
    plus the maximum tree degree. `adj_np` is a flat adjacency snapshot and
    `cnp` the per-vertex center array."""
    o, pv, pe, ls = bfs_tree_np(adj_np, root, n_total, cnp)
    order = o.tolist()
    parent = dict(zip(order[1:], zip(pv.tolist(), pe.tolist())))
    depth = dict(zip(order, np.repeat(
        np.arange(len(ls) - 1), np.diff(ls)).tolist()))
    tree = SpanningTree(root=root, parent=parent, depth=depth, order=order)
    # Tree degree of v: its child count, plus 1 unless root.
    tdeg = np.bincount(pv, minlength=n_total)[o] + 1
    tdeg[0] -= 1
    return tree, int(tdeg.max())


def _bfs_tree(adj: dict[int, list[tuple[int, int]]],
              root: int) -> SpanningTree:
    """BFS tree from `root` over the adjacency {v: [(w, e), ...]}, each row
    scanned in order; it spans root's component of `adj`."""
    parent: dict[int, tuple[int, int]] = {}
    depth = {root: 0}
    order = [root]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        dv = depth[v] + 1
        for w, e in adj[v]:
            if w not in depth:
                depth[w] = dv
                parent[w] = (v, e)
                order.append(w)
    return SpanningTree(root=root, parent=parent, depth=depth, order=order)


def _subtree(tree: SpanningTree, part: list[int]) -> SpanningTree:
    """Spanning tree of `part` using only tree edges internal to the part.
    `part` must be connected within the tree (tree_split guarantees it)."""
    pset = set(part)
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in part}
    for v in part:
        pe = tree.parent.get(v)
        if pe is not None and pe[0] in pset:
            adj[v].append(pe)
            adj[pe[0]].append((v, pe[1]))
    sub = _bfs_tree(adj, part[0])
    if len(sub.order) != len(part):
        raise GraphError("part not connected within its tree")
    return sub


def one_round_short_cycle(g: MultiGraph, cfg: EngineConfig,
                          component=None,
                          clustering=None) -> VertexDisjointCycleSet:
    """One contraction round on a connected low-diameter piece.

    Spanning tree -> degree-labeled tree split at threshold 4*ceil(sqrt(m))
    -> contraction without the part-tree edges -> maximal vertex-disjoint
    collection of parallel-pair 2-cycles then self-loops -> pull-up.

    `component` defaults to every active vertex. `clustering` is an
    LddResult of g, taken since g last changed, that has `component` as one
    of its clusters; without it, the clustering with `component` as its
    only cluster is built.
    """
    if component is None:
        component = g.active_vertices()
    if not component:
        return VertexDisjointCycleSet()
    eu, ev = g.eu, g.ev
    out = VertexDisjointCycleSet()
    if len(component) == 1:
        v = component[0]
        ea = g.eactive
        for e in g.inc[v]:
            if ea[e] and eu[e] == ev[e]:
                out.add(Cycle(edges=[e], vertices=[v]))
                break
        return out
    if clustering is None:
        clustering = single_cluster(g, component)
    # The component is one label class, so membership is a label compare.
    # Local degrees count loops twice; `edges` lists each internal edge once.
    if len(component) >= _VEC_CUTOFF:
        # Big cluster: masked selection and a vectorized layer BFS replace
        # the per-vertex scan. Edge ids are reordered by (head, id) to match
        # the scan order exactly.
        cnp = clustering.labels
        cid = int(cnp[component[0]])
        eunp = np.frombuffer(eu, dtype=np.int32)
        evnp = np.frombuffer(ev, dtype=np.int32)
        eanp = np.frombuffer(g.eactive, dtype=np.uint8)
        ids = np.nonzero((eanp != 0) & (cnp[eunp] == cid)
                         & (cnp[evnp] == cid))[0]
        ids = ids[np.argsort(eunp[ids], kind="stable")]
        degl = (np.bincount(eunp[ids], minlength=g.n_total)
                + np.bincount(evnp[ids], minlength=g.n_total))
        degs = {v: int(degl[v]) for v in component}
        edges = ids.tolist()
        tree, tree_maxdeg = _cluster_tree(clustering.adj, component[0],
                                          g.n_total, cnp)
    else:
        starts, tails, eids, labels = clustering.rows
        cid = labels[component[0]]
        degs: dict[int, int] = {}
        adj: dict[int, list[tuple[int, int]]] = {}
        edges: list[int] = []
        for v in component:
            d = 0
            av = []
            for i in range(starts[v], starts[v + 1]):
                w = tails[i]
                if labels[w] != cid:
                    continue
                e = eids[i]
                if w == v:
                    d += 2
                    av.append((v, e))
                    edges.append(e)
                else:
                    d += 1
                    av.append((w, e))
                    if eu[e] == v:
                        edges.append(e)
            degs[v] = d
            adj[v] = av
        tree = _bfs_tree(adj, component[0])
        tree_maxdeg = None
    if len(tree.order) != len(component):
        raise GraphError("one_round_short_cycle needs a connected input")
    m_i = len(edges)
    if m_i == 0:
        return out
    parent = tree.parent
    threshold = 4 * _isqrt_ceil(m_i)
    if 2 * m_i < threshold:
        # Single part: contraction would collapse the piece to one vertex
        # with every non-tree edge a loop, and the greedy would keep the
        # smallest-id loop. Lift it along the tree path directly.
        tree_edges = {e for (_, e) in parent.values()}
        best = min((e for e in edges if e not in tree_edges), default=-1)
        if best >= 0:
            pv_, pe_ = tree_path(tree, ev[best], eu[best])
            pe_.append(best)
            out.add(Cycle(edges=pe_, vertices=pv_))
        return out
    if tree_maxdeg is None:
        tree_deg: dict[int, int] = {v: 0 for v in component}
        for v, (p, _) in parent.items():
            tree_deg[v] += 1
            tree_deg[p] += 1
        tree_maxdeg = max(tree_deg.values())
    lt = LabeledTree(tree=tree, labels=degs, label_cap=max(degs.values()),
                     max_deg=tree_maxdeg)
    parts = tree_split(lt, threshold)
    part_trees = [_subtree(tree, part) for part in parts]
    exclude = set()
    for st in part_trees:
        for (_, e) in st.parent.values():
            exclude.add(e)
    cm = contract(g, parts, exclude, edges=edges)
    h = cm.h
    pair_first: dict[tuple[int, int], int] = {}
    loops: dict[int, int] = {}
    cycles_h = VertexDisjointCycleSet()
    used = set()
    for he in range(h.m_total):
        a, b = h.endpoints(he)
        if a == b:
            if a not in loops:
                loops[a] = he
            continue
        key = (a, b) if a < b else (b, a)
        if key in pair_first:
            first = pair_first[key]
            if first >= 0 and a not in used and b not in used:
                cycles_h.add(Cycle(edges=[first, he], vertices=[key[0], key[1]]))
                used.add(a)
                used.add(b)
                pair_first[key] = -1
        else:
            pair_first[key] = he
    for a in sorted(loops):
        if a not in used:
            cycles_h.add(Cycle(edges=[loops[a]], vertices=[a]))
            used.add(a)
    return pull_up(cm, part_trees, cycles_h)


def _delete_used(g: MultiGraph, cs: VertexDisjointCycleSet, since: int) -> int:
    """Delete vertices of cycles added at index `since` onward; returns the
    number of vertices covered by those cycles."""
    covered = 0
    for cyc in cs.cycles[since:]:
        covered += len(cyc.vertices)
        for v in cyc.vertices:
            g.delete_vertex(v)
    return covered


def _round_loop(g: MultiGraph, cfg: EngineConfig, ctx: _Ctx, level: int,
                name: str, budget: int, extract) -> VertexDisjointCycleSet:
    """The round loop of every level; `name` labels its errors.

    Requires m = 10n on entry; consumes the graph. Each round takes a fresh
    low-diameter decomposition, lets `extract(g, cfg, ldd, acc)` add
    vertex-disjoint cycles of g to `acc`, and deletes their vertices. It
    stops once m/(10*max_degree) vertices are covered (with greedy_rounds,
    once a round also yields under a quarter of that), and fails after
    `budget` rounds. At most _SMALL_N vertices left end in a naive sweep.
    """
    n0, m0 = g.n_active, g.m_active
    if m0 != 10 * n0:
        raise GraphError(f"{name} requires m = 10n, got n={n0} m={m0}")
    st = ctx.stats(level)
    st.edges_processed += m0
    acc = VertexDisjointCycleSet()
    if m0 == 0:
        return acc
    delta0 = g.max_degree()
    target_num, target_den = m0, 10 * delta0   # covered >= m0/(10*delta0)
    covered = 0
    rounds = 0
    while True:
        done = covered * target_den >= target_num
        if done and not cfg.greedy_rounds:
            break
        if g.n_active == 0:
            break
        before = len(acc.cycles)
        if g.n_active <= _SMALL_N:
            acc.extend(naive_short_cycle(g))
            covered += _delete_used(g, acc, before)
            break
        rounds += 1
        if rounds > budget:
            raise EngineFailure(
                f"{name} exhausted its round budget ({budget})", partial=acc)
        ldd = low_diam_decomp(g, cfg.beta, ctx.next_seed())
        st.ldd_retries += ldd.retries
        st.rounds += 1
        extract(g, cfg, ldd, acc)
        round_yield = _delete_used(g, acc, before)
        covered += round_yield
        done = covered * target_den >= target_num
        if done and (not cfg.greedy_rounds
                     or round_yield * 4 * target_den < target_num):
            break
    if covered * target_den < target_num:
        raise EngineFailure(
            f"{name} covered {covered} vertices, "
            f"target {m0}/(10*{delta0})", partial=acc)
    st.cycles_found += len(acc.cycles)
    return acc


def _one_rounds(g: MultiGraph, cfg: EngineConfig, ldd,
                acc: VertexDisjointCycleSet) -> None:
    """Extractor of the deepest level: one_round on every cluster."""
    for cluster in ldd.clusters:
        acc.extend(one_round_short_cycle(g, cfg, cluster, ldd))


def improved_short_cycle(g: MultiGraph, cfg: EngineConfig,
                         _ctx: _Ctx | None = None,
                         _level: int = 0) -> VertexDisjointCycleSet:
    """LDD + one_round loop covering at least m/(10*max_degree) vertices.

    Requires m = 10n on entry. Consumes the graph (covered vertices are
    deleted between rounds); at most 100*ceil(sqrt(n)) rounds.
    """
    return _round_loop(g, cfg, _ctx or _Ctx(cfg), _level,
                       "improved_short_cycle",
                       100 * _isqrt_ceil(g.n_active), _one_rounds)


def short_cycle_decomp(g: MultiGraph, d: int, cfg: EngineConfig, k: int,
                       _ctx: _Ctx | None = None) -> VertexDisjointCycleSet:
    """Recursive engine: contract tree-split parts, sparsify, recurse,
    pull up. Requires m = 10n; covers at least m/(10*max_degree) vertices
    in at most 100*k rounds.

    At depth d = c-1 this is improved_short_cycle. Above it, a round whose
    small clusters (at most k vertices) hold a quarter of the edges peels
    them with naive_short_cycle. Otherwise, when there are no big clusters
    or the sparsification target would not shrink the contracted graph
    (small k), the round runs one_round on every cluster, which preserves
    every guarantee except the asymptotic runtime.
    """
    ctx = _ctx or _Ctx(cfg)
    if not (0 <= d <= cfg.c - 1):
        raise GraphError(f"depth {d} outside [0, c-1]")
    if d == cfg.c - 1:
        return improved_short_cycle(g, cfg, _ctx=ctx, _level=d)
    n0, m0 = g.n_active, g.m_active
    n_min = -(-20 * n0 // k)   # vertex count of the recursion's input

    def extract(g, cfg, ldd, acc):
        small = [c for c in ldd.clusters if len(c) <= k]
        big = [c for c in ldd.clusters if len(c) > k]
        # A cluster's internal edges are exactly the active edges whose
        # endpoints carry its label.
        labels = ldd.labels
        eunp = np.frombuffer(g.eu, dtype=np.int32)
        evnp = np.frombuffer(g.ev, dtype=np.int32)
        eanp = np.frombuffer(g.eactive, dtype=np.uint8)
        internal = (eanp != 0) & (labels[eunp] == labels[evnp])
        per_cluster = np.bincount(labels[eunp[internal]], minlength=g.n_total)
        center = ldd.rows[3]
        small_edges = int(per_cluster[[center[c[0]] for c in small]].sum())
        if 4 * small_edges >= m0:
            for cluster in small:
                acc.extend(naive_short_cycle(g, cluster))
            return
        # H's edges are a subset of g's, so when g has fewer than
        # 10*n_min edges recursion cannot shrink the instance at this k.
        if not big or 10 * n_min > g.m_active:
            _one_rounds(g, cfg, ldd, acc)
            return
        degl = (np.bincount(eunp[internal], minlength=g.n_total)
                + np.bincount(evnp[internal], minlength=g.n_total)).tolist()
        parts: list[list[int]] = []
        trees: list[SpanningTree] = []
        exclude: set[int] = set()
        for cluster in big:
            degs = {v: degl[v] for v in cluster}
            tree, tree_maxdeg = _cluster_tree(ldd.adj, cluster[0],
                                              g.n_total, labels)
            lt = LabeledTree(tree=tree, labels=degs,
                             label_cap=max(degs.values()),
                             max_deg=tree_maxdeg)
            for part in tree_split(lt, k):
                parts.append(part)
                sub = _subtree(tree, part)
                trees.append(sub)
                for (_, e) in sub.parent.values():
                    exclude.add(e)
        cm = contract(g, parts, exclude)
        n_target = max(n_min, len(parts))
        m_target = 10 * n_target
        if m_target > cm.h.m_active:   # too many parts to shrink
            _one_rounds(g, cfg, ldd, acc)
            return
        cm.h.add_vertices(n_target - cm.h.n_total)
        h_sub = sparsify(cm.h, m_target)
        assert h_sub.m_active == 10 * h_sub.n_active
        inner = short_cycle_decomp(h_sub, d + 1, cfg, k, _ctx=ctx)
        acc.extend(pull_up(cm, trees, inner))

    return _round_loop(g, cfg, ctx, d, "short_cycle_decomp", 100 * k,
                       extract)


def decompose(g: MultiGraph, cfg: EngineConfig) -> CycleDecomposition:
    """Full (20n, L)-short cycle decomposition of any undirected multigraph.

    While more than 20n edges remain: take the 20n lowest active edge ids,
    reduce to a bounded-degree graph on exactly 2n vertices, run the
    recursive engine, map its cycles back through the vertex splitting
    (splitting circuits into simple cycles), and delete those edges.
    Leftover is whatever remains, at most 20n edges.
    """
    work = g.copy()
    n = work.n_active
    ctx = _Ctx(cfg)
    cycles: list[Cycle] = []
    if n == 0:
        return CycleDecomposition(cycles=[], leftover=set(),
                                  source_m=g.m_active, source_n=0,
                                  level_stats=[])
    k = max(2, _introot(2 * n, cfg.c + 1))
    try:
        while work.m_active > 20 * n:
            chosen = []
            ea = work.eactive
            for e in range(len(ea)):
                if ea[e]:
                    chosen.append(e)
                    if len(chosen) == 20 * n:
                        break
            gp = MultiGraph.__new__(MultiGraph)
            gp.eu, gp.ev = array("i"), array("i")
            gp.eactive = bytearray()
            gp.vactive = bytearray(work.vactive)
            gp.inc = [array("i") for _ in range(work.n_total)]
            gp.deg = array("i", bytes(4 * work.n_total))
            gp.n_active = work.n_active
            gp.m_active = 0
            for e in chosen:
                gp.add_edge(work.eu[e], work.ev[e])
            rmap = graph_reduce(gp, n_override=n)
            h = rmap.h
            if h.n_total > 2 * n:
                raise GraphError("reduction produced more than 2n vertices")
            h.add_vertices(2 * n - h.n_total)
            found = short_cycle_decomp(h, 0, cfg, k, _ctx=ctx)
            removed = 0
            for hc in found.cycles:
                walk_vs = [rmap.origin_vertex[v] for v in hc.vertices]
                walk_es = [chosen[rmap.origin_edge[e]] for e in hc.edges]
                for simple in split_circuit(walk_vs, walk_es):
                    cycles.append(simple)
                    for e in simple.edges:
                        work.delete_edge(e)
                        removed += 1
            if removed == 0:
                raise EngineFailure("driver made no progress", partial=None)
    except (EngineFailure, LddError) as exc:
        partial = CycleDecomposition(
            cycles=cycles, leftover=set(work.active_edges()),
            source_m=g.m_active, source_n=n,
            level_stats=ctx.stats_list())
        raise EngineFailure(str(exc), partial=partial) from exc
    return CycleDecomposition(cycles=cycles,
                              leftover=set(work.active_edges()),
                              source_m=g.m_active, source_n=n,
                              level_stats=ctx.stats_list())
