"""Decomposition engine: the layered cycle-finding algorithms.

Every level runs the same round loop (`_round_loop`): a low-diameter
decomposition of what is left, extraction of vertex-disjoint short cycles
from its clusters, then deletion of the covered vertices, until the level
covers m/(10*max_degree) vertices. After the deepest level's extraction,
the next rounds are passes of it over the clustering repaired after each
deletion (`ldd.repair`, held to the LDD's cut bound and diameter cap);
the round budget counts every pass, `LevelStats.rounds` every LDD draw.
Only the per-round extractor differs:

  one_round_short_cycle  -- one contraction round on a connected piece
  improved_short_cycle   -- deepest level: one contraction round on every
                            cluster at once
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
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .graph import (GraphError, MultiGraph, contract, contracted_edges,
                    row_entries)
from .ldd import LddError, low_diam_decomp, repair, single_cluster
from .primitives import (_EMPTY, Cycle, VertexDisjointCycleSet, cut,
                         graph_reduce, int64_codes, lengths, naive_short_cycle,
                         pull_up, sparsify, split_circuit, tree_split)
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


class CycleDecomposition:
    """Edge-disjoint cycles of a graph, plus its leftover edge ids.

    The cycles are flat int64 arrays, `arrays()` = (edges, verts,
    edge_counts, vert_counts): every cycle's edge ids and its vertices,
    cycle after cycle, and each one's edge and vertex count (equal in a
    well-formed cycle). `cycles`, a list of Cycle, is a view built on
    first read, or given to the constructor instead of `arrays`; once it
    exists it is the decomposition: callers may edit the list and its
    cycles, and `arrays()` reads it afresh each time. Read from the list,
    an id outside the int64 range takes a negative code (`int64_codes`),
    and `id_value` turns a code back into the id.
    """

    def __init__(self, cycles: list[Cycle] | None = None,
                 leftover: set[int] | None = None, source_m: int = 0,
                 source_n: int = 0,
                 level_stats: list[LevelStats] | None = None,
                 arrays: tuple | None = None):
        self._cycles = cycles
        self._arrays = (_EMPTY,) * 4 if arrays is None else arrays
        self._odd: list[int] = []
        self.leftover = set() if leftover is None else leftover
        self.source_m = source_m
        self.source_n = source_n
        self.level_stats = [] if level_stats is None else level_stats

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray]:
        if self._cycles is None:
            return self._arrays
        edge_lists = [c.edges for c in self._cycles]
        vert_lists = [c.vertices for c in self._cycles]
        flat_e = list(chain.from_iterable(edge_lists))
        ids, self._odd = int64_codes(
            flat_e + list(chain.from_iterable(vert_lists)))
        return (ids[:len(flat_e)], ids[len(flat_e):],
                lengths(edge_lists), lengths(vert_lists))

    def id_value(self, x: int) -> int:
        """The id that value x of the last `arrays()` stands for."""
        return self._odd[-1 - x] if x < 0 and self._odd else x

    def id_lists(self) -> tuple[list[list[int]], list[list[int]]]:
        """Every cycle's edge ids, and every cycle's vertices, as lists."""
        if self._cycles is not None:
            return ([list(c.edges) for c in self._cycles],
                    [list(c.vertices) for c in self._cycles])
        edges, verts, edge_counts, vert_counts = self._arrays
        return (cut(edges.tolist(), edge_counts),
                cut(verts.tolist(), vert_counts))

    @property
    def cycles(self) -> list[Cycle]:
        if self._cycles is None:
            self._cycles = [Cycle(edges=es, vertices=vs)
                            for es, vs in zip(*self.id_lists())]
            self._arrays = None
        return self._cycles

    @property
    def cycle_edge_count(self) -> int:
        return int(self.arrays()[2].sum())

    def max_cycle_length(self) -> int:
        return int(self.arrays()[2].max(initial=0))


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


def one_round_short_cycle(g: MultiGraph, cfg: EngineConfig,
                          component=None) -> VertexDisjointCycleSet:
    """One contraction round on a connected low-diameter piece.

    Spanning tree -> degree-labeled tree split at threshold 4*ceil(sqrt(m))
    -> contraction without the part-tree edges -> maximal vertex-disjoint
    collection of parallel-pair 2-cycles then self-loops -> pull-up: the
    deepest level's pass (`_one_rounds`) over the clustering whose one
    cluster is `component` (default: every active vertex), which must be
    connected (GraphError otherwise).
    """
    if component is None:
        component = g.active_vertices()
    out = VertexDisjointCycleSet()
    if not component:
        return out
    _one_rounds(g, cfg, single_cluster(g, component), out)
    return out


def _part_tree_edges(ldd, part) -> np.ndarray:
    """The forest edges inside the parts of a split of ldd's forest."""
    parent = ldd.parent
    inside = (parent >= 0) & (part >= 0) & (part[parent] == part)
    return ldd.parent_edge[inside]


def _pair_loop_greedy(pu, pv, k: int) -> VertexDisjointCycleSet:
    """Maximal vertex-disjoint 2-cycles of parallel pairs, then self-loops,
    of the graph on vertices 0 .. k-1 whose edge i joins pu[i] and pv[i].

    The pairs are taken greedily in edge-id order, each made of the first
    two edges joining its endpoints and taken at the second when both
    endpoints are still free; a later parallel edge can never match, since
    used vertices stay used. Then every free vertex, in id order, takes
    its lowest-id loop.
    """
    lo = np.minimum(pu, pv, dtype=np.int64)
    hi = np.maximum(pu, pv, dtype=np.int64)
    m = len(lo)
    pairs = np.flatnonzero(lo != hi)
    key = lo[pairs] * k + hi[pairs]
    order = np.argsort(key)
    key, by_key = key[order], pairs[order]
    head = np.flatnonzero(np.diff(key, prepend=-1))
    # Each key's lowest edge id, then its next lowest (m if none).
    e1 = np.minimum.reduceat(by_key, head)
    rest = np.where(by_key == np.repeat(e1, np.diff(head, append=len(key))),
                    m, by_key)
    e2 = np.minimum.reduceat(rest, head)
    e1, e2 = e1[e2 < m], e2[e2 < m]
    at = np.argsort(e2)
    e1, e2 = e1[at], e2[at]
    free = bytearray(b"\x01") * k
    verts: list[int] = []
    edges: list[int] = []
    for x, y, a, b in zip(e1.tolist(), e2.tolist(), lo[e2].tolist(),
                          hi[e2].tolist()):
        if free[a] and free[b]:
            free[a] = free[b] = 0
            verts += (a, b)
            edges += (x, y)
    loops = np.flatnonzero(lo == hi)
    low = np.full(k, m)
    np.minimum.at(low, lo[loops], loops)
    vs = np.flatnonzero(low < m)
    vs = vs[np.frombuffer(free, dtype=np.uint8)[vs] != 0]
    sizes = [2] * (len(verts) // 2) + [1] * len(vs)
    return VertexDisjointCycleSet(verts + vs.tolist(),
                                  edges + low[vs].tolist(), sizes)


def _delete_used(g: MultiGraph, cs: VertexDisjointCycleSet, since: int) -> int:
    """Delete the vertices of cs from its `since`-th vertex onward, those
    of the cycles added since it held `since`; returns how many."""
    vs = cs.arrays()[0][since:]
    g.delete_vertices(vs)
    return len(vs)


def _round_loop(g: MultiGraph, cfg: EngineConfig, ctx: _Ctx, level: int,
                name: str, budget: int, extract) -> VertexDisjointCycleSet:
    """The round loop of every level; `name` labels its errors.

    Requires m = 10n on entry; consumes the graph. A round draws a fresh
    low-diameter decomposition, lets `extract(g, cfg, ldd, acc)` add
    vertex-disjoint cycles of g to `acc`, and deletes their vertices.
    If extract ran `_one_rounds` (it returns True), each next round is a
    pass of `_one_rounds` over the clustering `repair` leaves, which
    meets a fresh draw's cut bound and diameter cap, until a pass yields
    nothing or the repair fails. Every draw and pass is a round, but
    `LevelStats.rounds` counts the draws only, one per LDD call. The
    loop stops once m/(10*max_degree) vertices are covered (with
    greedy_rounds, once a round also yields under a quarter of that),
    and fails after `budget` rounds. At most _SMALL_N vertices left end
    in a naive sweep.
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
    ldd = None   # the clustering the next pass repairs, if any
    while True:
        done = covered * target_den >= target_num
        if done and not cfg.greedy_rounds:
            break
        if g.n_active == 0:
            break
        before = acc.total_vertices
        if g.n_active <= _SMALL_N:
            acc.extend(naive_short_cycle(g))
            covered += _delete_used(g, acc, before)
            break
        rounds += 1
        if rounds > budget:
            raise EngineFailure(
                f"{name} exhausted its round budget ({budget})", partial=acc)
        if ldd is not None:
            ldd = repair(g, ldd, cfg.beta)
        if ldd is None:
            ldd = low_diam_decomp(g, cfg.beta, ctx.next_seed())
            st.rounds += 1
            st.ldd_retries += ldd.retries
            again = extract(g, cfg, ldd, acc)
        else:
            again = _one_rounds(g, cfg, ldd, acc)
        round_yield = _delete_used(g, acc, before)
        if not (again and round_yield):
            ldd = None
        covered += round_yield
        done = covered * target_den >= target_num
        if done and (not cfg.greedy_rounds
                     or round_yield * 4 * target_den < target_num):
            break
    if covered * target_den < target_num:
        raise EngineFailure(
            f"{name} covered {covered} vertices, "
            f"target {m0}/(10*{delta0})", partial=acc)
    st.cycles_found += acc.n_cycles
    return acc


def _one_rounds(g: MultiGraph, cfg: EngineConfig, ldd,
                acc: VertexDisjointCycleSet) -> bool:
    """Extractor of the deepest level: one contraction round on every
    cluster at once. Cluster i's tree splits at 4*ceil(sqrt(m_i)) for its
    m_i internal edges, and only internal edges are contracted, so each
    component of H lies in one cluster. The cycles are listed in cluster
    order, as one round per cluster would give them. Returns True: passes
    may follow."""
    m_i = np.bincount(ldd.edge_label, minlength=len(ldd.member_starts) - 1)
    # ceil(sqrt(m_i)), exact below 2^52: IEEE sqrt is correctly rounded.
    # A cluster without internal edges yields nothing at any threshold.
    root = np.ceil(np.sqrt(m_i)).astype(np.int64)
    part = tree_split(ldd, ldd.degrees, np.maximum(4 * root, 1))
    ids, pu, pv, _, _ = contracted_edges(g, part, _part_tree_edges(ldd, part),
                                         ldd.edges)
    n_parts = int(part.max()) + 1
    cycles = _pair_loop_greedy(pu, pv, n_parts)
    in_part = part >= 0
    cluster_of = np.empty(n_parts, dtype=np.int64)
    cluster_of[part[in_part]] = ldd.labels[in_part]
    cycles = cycles.take(np.argsort(cluster_of[cycles.first_vertices()],
                                    kind="stable"))
    acc.extend(pull_up(g, part, ids, ldd.parent, ldd.parent_edge, ldd.depth,
                       cycles))
    return True


def _naive_round(g: MultiGraph, ldd, small: np.ndarray,
                 acc: VertexDisjointCycleSet) -> None:
    """One naive_short_cycle call over the clusters where `small` holds,
    on their internal edges only, so each yields the cycles it would
    alone; they are listed in cluster order."""
    cs = naive_short_cycle(
        g, ldd.tree_order[np.repeat(small, np.diff(ldd.member_starts))],
        ldd.edges[small[ldd.edge_label]])
    acc.extend(cs.take(np.argsort(ldd.labels[cs.first_vertices()],
                                  kind="stable")))


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
    them all with one naive_short_cycle call (`_naive_round`). Otherwise,
    when there are no big clusters or the sparsification target would not
    shrink the contracted graph (small k), the round runs one_round on
    every cluster, which preserves every guarantee except the asymptotic
    runtime. That test needs only the kept part count and the number of
    edges contracted_edges keeps, so H is built only for a round that
    recurses.
    """
    ctx = _ctx or _Ctx(cfg)
    if not (0 <= d <= cfg.c - 1):
        raise GraphError(f"depth {d} outside [0, c-1]")
    if d == cfg.c - 1:
        return improved_short_cycle(g, cfg, _ctx=ctx, _level=d)
    n0, m0 = g.n_active, g.m_active
    n_min = -(-20 * n0 // k)   # vertex count of the recursion's input

    def extract(g, cfg, ldd, acc):
        big = np.diff(ldd.member_starts) > k
        small_edges = int(np.count_nonzero(~big[ldd.edge_label]))
        if 4 * small_edges >= m0:
            _naive_round(g, ldd, ~big, acc)
            return
        # H's edges are a subset of g's, so when g has fewer than
        # 10*n_min edges recursion cannot shrink the instance at this k.
        if not big.any() or 10 * n_min > g.m_active:
            return _one_rounds(g, cfg, ldd, acc)
        # Split every tree at k and keep the big clusters' parts,
        # renumbered in order (vertices off the forest have no part).
        part = tree_split(ldd, ldd.degrees, k)
        part[~big[ldd.labels]] = -1
        ids = np.flatnonzero(part >= 0)
        kept = np.zeros(int(part.max()) + 1, dtype=np.int64)
        kept[part[ids]] = 1
        part[ids] = np.cumsum(kept)[part[ids]] - 1
        # H would have one vertex per kept part and one edge per id that
        # contracted_edges keeps; it is built only when the round recurses.
        exclude = _part_tree_edges(ldd, part)
        h_ids = contracted_edges(g, part, exclude, np.arange(g.m_total))[0]
        n_target = max(n_min, int(kept.sum()))
        m_target = 10 * n_target
        if m_target > len(h_ids):   # too many parts to shrink
            return _one_rounds(g, cfg, ldd, acc)
        cm = contract(g, part, exclude, h_ids)
        cm.h.add_vertices(n_target - cm.h.n_total)
        h_sub = sparsify(cm.h, m_target)
        assert h_sub.m_active == 10 * h_sub.n_active
        inner = short_cycle_decomp(h_sub, d + 1, cfg, k, _ctx=ctx)
        acc.extend(pull_up(g, part, cm.f, ldd.parent, ldd.parent_edge,
                           ldd.depth, inner))

    return _round_loop(g, cfg, ctx, d, "short_cycle_decomp", 100 * k,
                       extract)


def _split_walks(verts, edges, size, split):
    """Flat walk arrays (verts, edges, sizes) with every walk where
    `split` holds replaced, in its place, by the simple cycles
    split_circuit splits it into."""
    starts = np.cumsum(size) - size
    keep = np.repeat(~split, size)
    owner = [np.flatnonzero(~split)]
    vs, es, ns = [verts[keep]], [edges[keep]], [size[~split]]
    for w in np.flatnonzero(split).tolist():
        a, b = starts[w], starts[w] + size[w]
        pieces = split_circuit(verts[a:b].tolist(), edges[a:b].tolist())
        owner.append(np.full(len(pieces), w))
        vs.append(np.array([v for c in pieces for v in c.vertices]))
        es.append(np.array([e for c in pieces for e in c.edges]))
        ns.append(lengths([c.edges for c in pieces]))
    sizes = np.concatenate(ns)
    pos, cnt = row_entries(np.concatenate(([0], np.cumsum(sizes))),
                           np.argsort(np.concatenate(owner), kind="stable"))
    return np.concatenate(vs)[pos], np.concatenate(es)[pos], cnt


def decompose(g: MultiGraph, cfg: EngineConfig) -> CycleDecomposition:
    """Full (20n, L)-short cycle decomposition of any undirected multigraph.

    While more than 20n edges remain: take the 20n lowest active edge ids,
    reduce to a bounded-degree graph on exactly 2n vertices, run the
    recursive engine, map its cycles back through the vertex splitting
    (splitting a circuit that revisits a vertex into simple cycles), and
    delete those edges. The cycles go into the result's arrays as they
    come; no Cycle is built.
    Leftover is whatever remains, at most 20n edges.
    """
    work = g.copy()
    n = work.n_active
    ctx = _Ctx(cfg)
    parts = []   # each iteration's (edges, verts, sizes)

    def result():
        edges, verts, sizes = (
            np.concatenate(a).astype(np.int64, copy=False)
            for a in zip(*parts)) if parts else (_EMPTY,) * 3
        return CycleDecomposition(
            arrays=(edges, verts, sizes, sizes),
            leftover=set(work.active_edges()), source_m=g.m_active,
            source_n=n, level_stats=ctx.stats_list())

    if n == 0:
        return result()
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
            if not found.n_cycles:
                raise EngineFailure("driver made no progress", partial=None)
            # Every walk at once, mapped back through the reduction.
            walk_vs, walk_es, size = found.arrays()
            walk_vs = rmap.origin_vertex[walk_vs]
            walk_es = chosen[rmap.origin_edge[walk_es]]
            work.delete_edges(walk_es)
            # A walk through distinct vertices is already simple; the
            # split of any other covers the same edges.
            key = np.sort(np.repeat(np.arange(len(size)), size) * work.n_total
                          + walk_vs)
            split = np.zeros(len(size), dtype=bool)
            split[key[1:][key[1:] == key[:-1]] // work.n_total] = True
            if split.any():
                walk_vs, walk_es, size = _split_walks(walk_vs, walk_es, size,
                                                      split)
            parts.append((walk_es, walk_vs, size))
    except (EngineFailure, LddError) as exc:
        raise EngineFailure(str(exc), partial=result()) from exc
    return result()
