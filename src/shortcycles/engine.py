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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph import GraphError, MultiGraph, SpanningTree, contract, tree_path
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


def _subtree(tree: SpanningTree, part: list[int]) -> SpanningTree:
    """Spanning tree of `part` using only tree edges internal to the part,
    rooted at its shallowest vertex; depths keep the tree's offset, which
    tree_path allows. `part` must be connected within the tree (tree_split
    guarantees it)."""
    depth = {v: tree.depth[v] for v in part}
    order = sorted(part, key=depth.__getitem__)
    parent = {v: tree.parent[v] for v in order[1:]}
    if any(p not in depth for p, _ in parent.values()):
        raise GraphError("part not connected within its tree")
    return SpanningTree(root=order[0], parent=parent, depth=depth,
                        order=order)


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
    out = VertexDisjointCycleSet()
    if len(component) == 1:
        v = component[0]
        ea, eu, ev = g.eactive, g.eu, g.ev
        for e in g.inc[v]:
            if ea[e] and eu[e] == ev[e]:
                out.add(Cycle(edges=[e], vertices=[v]))
                break
        return out
    if clustering is None:
        clustering = single_cluster(g, component)
    i = int(clustering.labels[component[0]])
    tree = clustering.tree(i)
    if len(tree.order) != len(component):
        raise GraphError("one_round_short_cycle needs a connected input")
    edges = clustering.edges[clustering.edge_starts[i]:
                             clustering.edge_starts[i + 1]].tolist()
    m_i = len(edges)
    if m_i == 0:
        return out
    threshold = 4 * _isqrt_ceil(m_i)
    if 2 * m_i < threshold:
        # Single part: contraction would collapse the piece to one vertex
        # with every non-tree edge a loop, and the greedy would keep the
        # smallest-id loop. Lift it along the tree path directly.
        tree_edges = {e for (_, e) in tree.parent.values()}
        best = min((e for e in edges if e not in tree_edges), default=-1)
        if best >= 0:
            pv_, pe_ = tree_path(tree, g.ev[best], g.eu[best])
            pe_.append(best)
            out.add(Cycle(edges=pe_, vertices=pv_))
        return out
    parts = tree_split(_labeled_tree(clustering, i, tree), threshold)
    part_trees = [_subtree(tree, part) for part in parts]
    exclude = {e for st in part_trees for (_, e) in st.parent.values()}
    cm = contract(g, parts, exclude, edges=edges)
    return pull_up(cm, part_trees, _pair_loop_greedy(cm.h))


def _labeled_tree(ldd, i: int, tree: SpanningTree) -> LabeledTree:
    """Cluster i's tree labeled by internal degree."""
    a, b = ldd.tree_starts[i], ldd.tree_starts[i + 1]
    labels = dict(zip(tree.order, ldd.degrees[ldd.tree_order[a:b]].tolist()))
    return LabeledTree(tree=tree, labels=labels,
                       label_cap=max(labels.values()),
                       max_deg=int(ldd.tree_max_degree[i]))


def _pair_loop_greedy(h: MultiGraph) -> VertexDisjointCycleSet:
    """Maximal vertex-disjoint 2-cycles of parallel pairs, then self-loops.

    The pairs are taken greedily in edge-id order, each made of the first
    two edges joining its endpoints and taken at the second when both
    endpoints are still free; a later parallel edge can never match, since
    used vertices stay used. Then every free vertex, in id order, takes
    its lowest-id loop.
    """
    hu = np.frombuffer(h.eu, dtype=np.int32).astype(np.int64)
    hv = np.frombuffer(h.ev, dtype=np.int32).astype(np.int64)
    lo = np.minimum(hu, hv)
    hi = np.maximum(hu, hv)
    out = VertexDisjointCycleSet()
    used = out.used_vertices
    pairs = np.nonzero(lo != hi)[0]
    key = lo[pairs] * h.n_total + hi[pairs]
    order = np.argsort(key, kind="stable")
    by_key, key = pairs[order], key[order]
    second = np.zeros(len(key), dtype=bool)
    second[1:] = key[1:] == key[:-1]
    second[2:] &= key[2:] != key[:-2]
    at = np.nonzero(second)[0]
    at = at[np.argsort(by_key[at])]
    for e1, e2, a, b in zip(by_key[at - 1].tolist(), by_key[at].tolist(),
                            lo[by_key[at]].tolist(), hi[by_key[at]].tolist()):
        if a not in used and b not in used:
            out.add(Cycle(edges=[e1, e2], vertices=[a, b]))
    loops = np.nonzero(lo == hi)[0]
    vs, first = np.unique(lo[loops], return_index=True)
    for a, e in zip(vs.tolist(), loops[first].tolist()):
        if a not in used:
            out.add(Cycle(edges=[e], vertices=[a]))
    return out


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
    """Extractor of the deepest level: one_round on every cluster. A
    singleton cluster's internal edges are its loops, so it yields its
    lowest-id loop, as one_round would, without the call."""
    edges = ldd.edges.tolist()
    starts = ldd.edge_starts.tolist()
    for i, cluster in enumerate(ldd.clusters):
        if len(cluster) > 1:
            acc.extend(one_round_short_cycle(g, cfg, cluster, ldd))
        elif starts[i] < starts[i + 1]:
            acc.add(Cycle(edges=[edges[starts[i]]], vertices=cluster[:]))


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
        small = [i for i, c in enumerate(ldd.clusters) if len(c) <= k]
        big = [i for i, c in enumerate(ldd.clusters) if len(c) > k]
        small_edges = int(np.diff(ldd.edge_starts)[small].sum())
        if 4 * small_edges >= m0:
            for i in small:
                acc.extend(naive_short_cycle(g, ldd.clusters[i]))
            return
        # H's edges are a subset of g's, so when g has fewer than
        # 10*n_min edges recursion cannot shrink the instance at this k.
        if not big or 10 * n_min > g.m_active:
            _one_rounds(g, cfg, ldd, acc)
            return
        parts: list[list[int]] = []
        trees: list[SpanningTree] = []
        for i in big:
            tree = ldd.tree(i)
            for part in tree_split(_labeled_tree(ldd, i, tree), k):
                parts.append(part)
                trees.append(_subtree(tree, part))
        exclude = {e for st in trees for (_, e) in st.parent.values()}
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
        eu = np.frombuffer(work.eu, dtype=np.int32)
        ev = np.frombuffer(work.ev, dtype=np.int32)
        while work.m_active > 20 * n:
            chosen = np.nonzero(
                np.frombuffer(work.eactive, dtype=np.uint8))[0][:20 * n]
            gp = MultiGraph.from_edges(work.n_total, eu[chosen], ev[chosen],
                                       work.vactive)
            rmap = graph_reduce(gp, n_override=n)
            h = rmap.h
            if h.n_total > 2 * n:
                raise GraphError("reduction produced more than 2n vertices")
            h.add_vertices(2 * n - h.n_total)
            found = short_cycle_decomp(h, 0, cfg, k, _ctx=ctx)
            chosen = chosen.tolist()
            removed: list[int] = []
            for hc in found.cycles:
                walk_vs = [rmap.origin_vertex[v] for v in hc.vertices]
                walk_es = [chosen[rmap.origin_edge[e]] for e in hc.edges]
                for simple in split_circuit(walk_vs, walk_es):
                    cycles.append(simple)
                    removed.extend(simple.edges)
            if not removed:
                raise EngineFailure("driver made no progress", partial=None)
            work.delete_edges(removed)
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
