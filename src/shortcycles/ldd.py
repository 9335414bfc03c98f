"""Low-diameter decomposition via exponentially shifted clustering.

Removes at most a beta fraction of edges so that every remaining component
has small strong diameter. The guarantee is enforced by check-and-retry:
an attempt is accepted only if both the cut bound and the diameter cap
hold, resampling shifts otherwise.
"""
from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import (GraphError, MultiGraph, SpanningTree, _gather_rows,
                    flat_adjacency_np)
from .rng import exponential, mix64


class LddError(GraphError):
    """All retry attempts failed; `best` carries the last attempt."""

    def __init__(self, msg, best=None):
        super().__init__(msg)
        self.best = best


@dataclass
class LddResult:
    removed: set[int]           # edge ids crossing clusters
    clusters: list[list[int]]   # vertex sets, each internally connected
    max_diameter: int           # measured (exact when cheap, else 2*radius)
    retries: int                # attempts before acceptance, 0 = first try
    truncated_shifts: int
    diameter_exact: bool = True
    # The clustering, valid while the graph is unchanged. `adj` is a CSR
    # snapshot (starts, tails, eids) of the active edges as numpy arrays and
    # `labels` the per-vertex index into `clusters` (-1 off the clusters),
    # so each cluster is exactly one label class.
    adj: tuple = ()
    labels: np.ndarray | None = None
    # The cluster forest: a BFS tree of every non-singleton cluster from its
    # first vertex, confined to its label class, rows scanned in order.
    # Cluster i's tree is tree_order[tree_starts[i]:tree_starts[i + 1]] in
    # discovery order, with the aligned tree_parent and tree_edge (-1 at the
    # root) and tree_depth; tree_max_degree[i] is its maximum degree.
    tree_order: np.ndarray | None = None
    tree_parent: np.ndarray | None = None
    tree_edge: np.ndarray | None = None
    tree_depth: np.ndarray | None = None
    tree_starts: np.ndarray | None = None
    tree_max_degree: np.ndarray | None = None
    # Cluster i's internal active edges are edges[edge_starts[i]:
    # edge_starts[i + 1]] in (eu, id) order; `degrees` is the per-vertex
    # internal degree, loops counted twice.
    edges: np.ndarray | None = None
    edge_starts: np.ndarray | None = None
    degrees: np.ndarray | None = None

    def tree(self, i: int) -> SpanningTree:
        """Cluster i's BFS tree; it covers the whole cluster when the
        cluster is connected."""
        a, b = int(self.tree_starts[i]), int(self.tree_starts[i + 1])
        order = self.tree_order[a:b].tolist()
        parent = dict(zip(order[1:], zip(self.tree_parent[a + 1:b].tolist(),
                                         self.tree_edge[a + 1:b].tolist())))
        depth = dict(zip(order, self.tree_depth[a:b].tolist()))
        return SpanningTree(root=order[0], parent=parent, depth=depth,
                            order=order)


def diameter_cap(beta: Fraction, n: int, constant: int = 4) -> int:
    """Cap enforced on cluster strong diameter: ceil((constant/beta) ln(n+1))."""
    return math.ceil(constant / float(beta) * math.log(n + 1))


def low_diam_decomp(g: MultiGraph, beta: Fraction, seed: int,
                    diam_constant: int = 4,
                    max_retries: int = 20) -> LddResult:
    """Partition active vertices into low-diameter clusters.

    Each vertex draws an exponential shift with rate beta and joins the
    center minimizing dist(u, v) - shift(v), computed as one multi-source
    Dijkstra with fractional start offsets. `removed` is the set of
    inter-cluster edges; |removed| <= beta * m is checked exactly on the
    rational beta.
    """
    if g.n_active == 0:
        raise GraphError("low_diam_decomp on empty graph")
    if not (0 < beta <= 1):
        raise GraphError(f"beta must be in (0, 1], got {beta}")
    n = g.n_active
    m = g.m_active
    cap = diameter_cap(beta, n, diam_constant)
    shift_cap = 2.0 / float(beta) * math.log(n + 1)
    best = None
    snap = _snapshot(g)   # static across attempts
    for attempt in range(max_retries):
        rng = random.Random(mix64(seed, attempt))
        center, truncated = _attempt(g, beta, rng, shift_cap, snap[1])
        result = _clustering(g, center, snap[0], truncated)
        result.retries = attempt
        if len(result.removed) * beta.denominator <= beta.numerator * m:
            _forest(g, result)
            if _check_diameters(result, cap, snap[1], center):
                return result
        best = result
    raise LddError(
        f"low-diameter decomposition failed after {max_retries} attempts "
        f"(cap {cap}, beta {beta})", best=best)


def single_cluster(g: MultiGraph, component: list[int]) -> LddResult:
    """The clustering of g whose one cluster is `component`, every other
    vertex unlabeled, over a fresh snapshot, with its forest. Unlike
    low_diam_decomp's clusters, `component` carries no diameter or
    connectivity guarantee."""
    center = [-1] * g.n_total
    for v in component:
        center[v] = component[0]
    result = _clustering(g, center, flat_adjacency_np(g))
    _forest(g, result)
    return result


def _snapshot(g: MultiGraph):
    """CSR snapshot of g's active edges: the numpy arrays, and for scalar
    traversal its starts as a list and its tails as a flat int array."""
    adj = flat_adjacency_np(g)
    return adj, (adj[0].tolist(), array("i", adj[1].tobytes()))


def _clustering(g: MultiGraph, center: array | list[int], adj,
                truncated: int = 0) -> LddResult:
    """The clustering given by per-vertex centers `center` (-1: none) over
    the snapshot `adj`: its label classes and the edges crossing them."""
    index: dict[int, int] = {}
    clusters: list[list[int]] = []
    labels = [-1] * len(center)
    for v, c in enumerate(center):
        if c >= 0:
            if c not in index:
                index[c] = len(clusters)
                clusters.append([])
            labels[v] = index[c]
            clusters[labels[v]].append(v)
    labels = np.asarray(labels, dtype=np.int64)
    eu = np.frombuffer(g.eu, dtype=np.int32)
    ev = np.frombuffer(g.ev, dtype=np.int32)
    ea = np.frombuffer(g.eactive, dtype=np.uint8)
    crossing = (ea != 0) & (labels[eu] != labels[ev])
    return LddResult(removed=set(np.nonzero(crossing)[0].tolist()),
                     clusters=clusters, max_diameter=0, retries=0,
                     truncated_shifts=truncated, adj=adj, labels=labels)


def _forest(g: MultiGraph, result: LddResult) -> None:
    """Fill in the cluster forest, internal edges and degrees of `result`.

    One multi-source BFS, a layer at a time: cluster regions are disjoint,
    so every root expands simultaneously, confined to its own label. Each
    vertex keeps its first discovery in (frontier order, row order), so
    every cluster's tree is the one a scalar BFS from its root would build.
    """
    starts, tails, eids = result.adj
    lab = result.labels
    n_total = len(lab)
    k = len(result.clusters)
    roots = np.asarray([c[0] for c in result.clusters if len(c) > 1],
                       dtype=np.int64)
    visited = np.zeros(n_total, dtype=bool)
    visited[roots] = True
    none = np.full(len(roots), -1, dtype=np.int64)
    order, par, pe, dep = [roots], [none], [none], [np.zeros_like(roots)]
    frontier = roots
    while frontier.size:
        src, w, e = _gather_rows(starts, tails, eids, frontier)
        ok = (lab[w] == lab[src]) & ~visited[w]
        if not ok.any():
            break
        src, w, e = src[ok], w[ok], e[ok]
        _, first = np.unique(w, return_index=True)
        first.sort()
        frontier = w[first]
        visited[frontier] = True
        order.append(frontier)
        par.append(src[first])
        pe.append(e[first])
        dep.append(np.full(len(frontier), len(dep), dtype=np.int64))
    order = np.concatenate(order)
    by_cluster = np.argsort(lab[order], kind="stable")
    result.tree_order = order[by_cluster]
    result.tree_parent = np.concatenate(par)[by_cluster]
    result.tree_edge = np.concatenate(pe)[by_cluster]
    result.tree_depth = np.concatenate(dep)[by_cluster]
    result.tree_starts = np.concatenate(
        ([0], np.cumsum(np.bincount(lab[order], minlength=k))))
    # Tree degree: child count, plus 1 below the root.
    has_parent = result.tree_parent >= 0
    tdeg = (np.bincount(result.tree_parent[has_parent], minlength=n_total)
            [result.tree_order] + has_parent)
    result.tree_max_degree = np.zeros(k, dtype=np.int64)
    nonempty = np.nonzero(np.diff(result.tree_starts))[0]
    if len(nonempty):
        result.tree_max_degree[nonempty] = np.maximum.reduceat(
            tdeg, result.tree_starts[nonempty])
    eu = np.frombuffer(g.eu, dtype=np.int32)
    ev = np.frombuffer(g.ev, dtype=np.int32)
    ea = np.frombuffer(g.eactive, dtype=np.uint8)
    lu = lab[eu]
    ids = np.nonzero((ea != 0) & (lu == lab[ev]) & (lu >= 0))[0]
    iu = eu[ids]
    result.edges = ids[np.argsort(lu[ids] * n_total + iu, kind="stable")]
    result.edge_starts = np.concatenate(
        ([0], np.cumsum(np.bincount(lu[ids], minlength=k))))
    result.degrees = (np.bincount(iu, minlength=n_total)
                      + np.bincount(ev[ids], minlength=n_total))


def _attempt(g: MultiGraph, beta: Fraction, rng: random.Random,
             shift_cap: float, rows) -> tuple[array, int]:
    """One draw of shifts; returns each vertex's center (-1 when inactive)
    and the number of truncated shifts."""
    rate = float(beta)
    va = g.vactive
    n_total = g.n_total
    starts, tails = rows
    truncated = 0
    max_shift = 0.0
    shifts = array("d", bytes(8 * n_total))
    for v in range(n_total):
        if not va[v]:
            continue
        s = exponential(rng, rate)
        if s > shift_cap:
            s = shift_cap
            truncated += 1
        shifts[v] = s
        if s > max_shift:
            max_shift = s
    # Dijkstra with unit edge weights and fractional start offsets; keys in
    # bucket b never relax into bucket b, so a Dial bucket queue processed
    # in ascending order is exact. Flat arrays keep the state cache-compact.
    dist = array("d", [float("inf")]) * n_total
    center = array("i", [-1]) * n_total
    buckets: list[list[int]] = [[] for _ in range(int(max_shift) + 2)]
    for v in range(n_total):
        if va[v]:
            d = max_shift - shifts[v]
            dist[v] = d
            center[v] = v
            buckets[int(d)].append(v)
    settled = bytearray(n_total)
    b = 0
    while b < len(buckets):
        for v in buckets[b]:
            if settled[v]:
                continue
            d = dist[v]
            if d >= b + 1:  # superseded entry, lives in a later bucket now
                continue
            settled[v] = 1
            cv = center[v]
            nd = d + 1.0
            nb = int(nd)
            if nb >= len(buckets):
                buckets.append([])
            bucket_next = buckets[nb]
            for i in range(starts[v], starts[v + 1]):
                w = tails[i]
                if nd < dist[w]:
                    dist[w] = nd
                    center[w] = cv
                    bucket_next.append(w)
        b += 1
    return center, truncated


def _cluster_ecc(starts, tails, center, cid: int, size: int,
                 root: int) -> int:
    """Eccentricity of `root` inside its cluster; inter-cluster edges are
    exactly those whose endpoints carry different centers, so the cluster
    is traversed by comparing center labels."""
    depth = {root: 0}
    frontier = [root]
    ecc = 0
    while frontier:
        nxt = []
        for v in frontier:
            dv = depth[v]
            for i in range(starts[v], starts[v + 1]):
                w = tails[i]
                if center[w] != cid or w in depth:
                    continue
                depth[w] = dv + 1
                if dv + 1 > ecc:
                    ecc = dv + 1
                nxt.append(w)
        frontier = nxt
    if len(depth) != size:
        raise GraphError("cluster disconnected (internal error)")
    return ecc


def _check_diameters(result: LddResult, cap: int, rows, center) -> bool:
    """Verify every cluster's strong diameter is <= cap, and record the max.

    A cluster passes cheaply when twice its forest depth from the cluster
    root is within the cap; only otherwise is the exact diameter computed
    over the list snapshot `rows` and the per-vertex `center`. The recorded
    max_diameter is exact unless every cluster passed the cheap test, in
    which case it is the 2*radius upper bound.
    """
    worst = 0
    exact = True
    ts = result.tree_starts.tolist()
    depth = result.tree_depth
    for i, cluster in enumerate(result.clusters):
        size = len(cluster)
        if size <= 2:
            if size - 1 > worst:
                worst = size - 1   # diameter <= 1 <= cap
            continue
        if ts[i + 1] - ts[i] != size:
            raise GraphError("cluster disconnected (internal error)")
        bound = 2 * int(depth[ts[i + 1] - 1])
        if bound <= cap:
            if bound > worst:
                worst = bound
                exact = False
            continue
        cid = center[cluster[0]]
        diam = max(_cluster_ecc(rows[0], rows[1], center, cid, size, v)
                   for v in cluster)
        if diam > cap:
            return False
        if diam > worst:
            worst = diam
            exact = True
    result.max_diameter = worst
    result.diameter_exact = exact
    return True
