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

from .graph import GraphError, MultiGraph, _gather_rows, flat_adjacency_np
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
    # The clustering, valid while the graph is unchanged: `adj` is a CSR
    # snapshot (starts, tails, eids) of the active edges as numpy arrays,
    # `labels` the per-vertex cluster id (the cluster's center, -1 off the
    # active vertices), so each cluster is exactly one label class. `rows`
    # holds the same four arrays as plain lists (starts, tails, eids,
    # labels) for scalar loops.
    adj: tuple = ()
    labels: np.ndarray | None = None
    rows: tuple = ()


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
        result = _clustering(g, center, snap, truncated)
        result.retries = attempt
        if len(result.removed) * beta.denominator <= beta.numerator * m:
            if _check_diameters(result, cap):
                return result
        best = result
    raise LddError(
        f"low-diameter decomposition failed after {max_retries} attempts "
        f"(cap {cap}, beta {beta})", best=best)


def single_cluster(g: MultiGraph, component: list[int]) -> LddResult:
    """The clustering of g whose one cluster is `component`, every other
    vertex unlabeled, over a fresh snapshot. Unlike low_diam_decomp's
    clusters, `component` carries no diameter or connectivity guarantee."""
    center = [-1] * g.n_total
    for v in component:
        center[v] = component[0]
    return _clustering(g, center, _snapshot(g))


def _snapshot(g: MultiGraph):
    """CSR snapshot of g's active edges, as numpy arrays and as lists."""
    adj = flat_adjacency_np(g)
    return adj, tuple(a.tolist() for a in adj)


def _clustering(g: MultiGraph, center: list[int], snap,
                truncated: int = 0) -> LddResult:
    """The clustering given by per-vertex labels `center` (-1: none) over
    the snapshot `snap`: its label classes and the edges crossing them."""
    by_center: dict[int, list[int]] = {}
    for v, c in enumerate(center):
        if c >= 0:
            by_center.setdefault(c, []).append(v)
    labels = np.asarray(center, dtype=np.int64)
    eu = np.frombuffer(g.eu, dtype=np.int32)
    ev = np.frombuffer(g.ev, dtype=np.int32)
    ea = np.frombuffer(g.eactive, dtype=np.uint8)
    crossing = (ea != 0) & (labels[eu] != labels[ev])
    adj, rows = snap
    return LddResult(removed=set(np.nonzero(crossing)[0].tolist()),
                     clusters=list(by_center.values()), max_diameter=0,
                     retries=0, truncated_shifts=truncated, adj=adj,
                     labels=labels, rows=(*rows, center))


def _attempt(g: MultiGraph, beta: Fraction, rng: random.Random,
             shift_cap: float, rows) -> tuple[list[int], int]:
    """One draw of shifts; returns each vertex's center (-1 when inactive)
    and the number of truncated shifts."""
    rate = float(beta)
    va = g.vactive
    n_total = g.n_total
    starts, tails, _ = rows
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
    # in ascending order is exact.
    INF = float("inf")
    dist = [INF] * n_total
    center = [-1] * n_total
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


def _check_diameters(result: LddResult, cap: int) -> bool:
    """Verify every cluster's strong diameter is <= cap, and record the max.

    A cluster passes cheaply when twice its radius from the cluster root is
    within the cap; only otherwise is the exact diameter computed. The
    recorded max_diameter is exact unless every cluster passed the cheap
    test, in which case it is the 2*radius upper bound.
    """
    worst = 0
    exact = True
    starts, tails, eids = result.adj
    cnp = result.labels
    rows = result.rows
    center = rows[3]
    n_total = len(center)
    # One multi-source BFS, a layer at a time: cluster regions are disjoint,
    # so every root expands simultaneously, confined to its own center label.
    roots = [c[0] for c in result.clusters if len(c) > 2]
    for cluster in result.clusters:
        if len(cluster) <= 2 and len(cluster) - 1 > worst:
            worst = len(cluster) - 1   # diameter <= 1 <= cap
    visited = np.zeros(n_total, dtype=bool)
    ecc = np.zeros(n_total, dtype=np.int64)
    seen = np.zeros(n_total, dtype=np.int64)
    frontier = np.asarray(roots, dtype=np.int64)
    visited[frontier] = True
    seen += np.bincount(cnp[frontier], minlength=n_total)
    d = 0
    while frontier.size:
        src, w, _ = _gather_rows(starts, tails, eids, frontier)
        if len(w):
            ok = (cnp[w] == cnp[src]) & ~visited[w]
            w = w[ok]
        if not len(w):
            break
        w = np.unique(w)
        visited[w] = True
        d += 1
        cw = cnp[w]
        ecc[cw] = d
        seen += np.bincount(cw, minlength=n_total)
        frontier = w
    for cluster in result.clusters:
        size = len(cluster)
        if size <= 2:
            continue
        cid = center[cluster[0]]
        if seen[cid] != size:
            raise GraphError("cluster disconnected (internal error)")
        bound = 2 * int(ecc[cid])
        if bound <= cap:
            if bound > worst:
                worst = bound
                exact = False
            continue
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
