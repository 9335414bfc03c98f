"""Low-diameter decomposition via exponentially shifted clustering.

Removes at most a beta fraction of edges so that every remaining component
has small strong diameter. The guarantee is enforced by check-and-retry:
an attempt is accepted only if both the cut bound and the diameter cap
hold, resampling shifts otherwise.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .graph import (GraphError, MultiGraph, _first_of, _gather_rows,
                    bfs_forest, flat_adjacency_np)
from .rng import exponentials, mix64


class LddError(GraphError):
    """All retry attempts failed; `best` carries the last attempt."""

    def __init__(self, msg, best=None):
        super().__init__(msg)
        self.best = best


@dataclass
class LddResult:
    max_diameter: int           # measured (exact when cheap, else 2*radius)
    retries: int                # attempts before acceptance, 0 = first try
    truncated_shifts: int
    diameter_exact: bool = True
    # The clustering, valid while the graph is unchanged. `adj` is a CSR
    # snapshot (starts, tails, eids) of the active edges as numpy arrays and
    # `labels` the per-vertex cluster index (-1 off the clusters), so each
    # cluster is exactly one label class. Cluster i's vertices, ascending,
    # are members[member_starts[i]:member_starts[i + 1]], and `crossing`
    # holds the ids of the active edges between clusters, ascending;
    # `clusters` and `removed` are their list and set views, built on use.
    adj: tuple = ()
    labels: np.ndarray | None = None
    members: np.ndarray | None = None
    member_starts: np.ndarray | None = None
    crossing: np.ndarray | None = None
    # The cluster forest: a BFS tree of every cluster from its first vertex,
    # confined to its label class, rows scanned in order. Cluster i's tree
    # is tree_order[tree_starts[i]:tree_starts[i + 1]] in discovery order;
    # per vertex, `parent` and `parent_edge` (-1 at the roots) and `depth`
    # (-1 off the forest, as are the other two).
    tree_order: np.ndarray | None = None
    tree_starts: np.ndarray | None = None
    parent: np.ndarray | None = None
    parent_edge: np.ndarray | None = None
    depth: np.ndarray | None = None
    # Cluster i's internal active edges are edges[edge_starts[i]:
    # edge_starts[i + 1]] in (eu, id) order; `degrees` is the per-vertex
    # internal degree, loops counted twice.
    edges: np.ndarray | None = None
    edge_starts: np.ndarray | None = None
    degrees: np.ndarray | None = None

    @cached_property
    def clusters(self) -> list[list[int]]:
        flat = self.members.tolist()
        bounds = self.member_starts.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    @cached_property
    def removed(self) -> set[int]:
        return set(self.crossing.tolist())


def diameter_cap(beta: Fraction, n: int, constant: int = 4) -> int:
    """Cap enforced on cluster strong diameter: ceil((constant/beta) ln(n+1))."""
    return math.ceil(constant / float(beta) * math.log(n + 1))


def low_diam_decomp(g: MultiGraph, beta: Fraction, seed: int,
                    diam_constant: int = 4,
                    max_retries: int = 20) -> LddResult:
    """Partition active vertices into low-diameter clusters.

    Each active vertex v draws an exponential shift with rate beta (capped
    at (2/beta) ln(n+1)) and joins the center c minimizing
    dist(c, v) - shift(c). Vertices start at max_shift - shift; the search
    settles them a unit layer at a time, relaxing every edge of a layer at
    once, in the order a Dijkstra bucket queue would (`_shifted_search`).
    `crossing` holds the inter-cluster edges; |crossing| <= beta * m is
    checked exactly on the rational beta, and an attempt that fails it or
    the diameter cap is redrawn, up to max_retries times.
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
    adj = flat_adjacency_np(g)   # static across attempts
    starts = adj[0]
    active = np.nonzero(np.frombuffer(g.vactive, dtype=np.uint8))[0]
    # Vertices without an active edge stay their own centers.
    live = active[starts[active + 1] > starts[active]]
    for attempt in range(max_retries):
        rng = random.Random(mix64(seed, attempt))
        shifts = exponentials(rng, float(beta), n)
        truncated = int(np.count_nonzero(shifts > shift_cap))
        np.minimum(shifts, shift_cap, out=shifts)
        center = _shifted_search(adj, active, live, shifts)
        result = _clustering(g, center, adj, truncated)
        result.retries = attempt
        if len(result.crossing) * beta.denominator <= beta.numerator * m:
            _forest(g, result)
            if _check_diameters(result, cap):
                return result
        best = result
    raise LddError(
        f"low-diameter decomposition failed after {max_retries} attempts "
        f"(cap {cap}, beta {beta})", best=best)


def single_cluster(g: MultiGraph, component: list[int]) -> LddResult:
    """The clustering of g whose one cluster is `component`, every other
    vertex unlabeled, over a fresh snapshot, with its forest: its one
    tree is the BFS tree of `component` from its lowest vertex. Unlike
    low_diam_decomp's clusters, `component` carries no diameter or
    connectivity guarantee."""
    center = np.full(g.n_total, -1, dtype=np.int64)
    center[component] = component[0]
    result = _clustering(g, center, flat_adjacency_np(g))
    _forest(g, result)
    return result


def _shifted_search(adj, active, live, shifts) -> np.ndarray:
    """Each vertex's center (-1 when inactive) under the shifts of the
    `active` vertices: the Dijkstra with unit edges and start distances
    max_shift - shift, run one bucket of the queue at a time.

    A vertex settles in bucket int(dist). Relaxing from bucket b only
    reaches b + 1 or later, so bucket b's vertices are settled together,
    in queue order: initial starts by id, then vertices in the order they
    first entered bucket b. Each relaxed vertex takes its minimum offer,
    the first in gather order among equal ones, as the queue's strict `<`
    does. `key` holds each vertex's place in its current bucket.
    """
    starts, tails, eids = adj
    n_total = len(starts) - 1
    max_shift = max(0.0, float(shifts.max()))
    dist = np.full(n_total, np.inf)
    dist[active] = max_shift - shifts
    center = np.full(n_total, -1, dtype=np.int64)
    center[active] = active
    key = np.arange(n_total, dtype=np.int64)
    stamp = n_total
    pending = live
    while pending.size:
        fl = np.floor(dist[pending])
        now = fl == fl.min()
        layer = pending[now]
        pending = pending[~now]
        layer = layer[np.argsort(key[layer])]
        src, w, _ = _gather_rows(starts, tails, eids, layer)
        nd = dist[src] + 1.0
        old = dist[w]
        better = nd < old
        if not better.any():
            continue
        src, w, nd, old = src[better], w[better], nd[better], old[better]
        np.minimum.at(dist, w, nd)
        new = dist[w]
        pos = np.arange(len(w))
        # The offer that set each vertex's distance: its first minimum.
        win = _first_of(w, pos, nd == new, n_total)
        center[w[win]] = center[src[win]]
        # A vertex that changed bucket is filed at its first offer there.
        fresh = np.floor(new) != np.floor(old)
        filed = _first_of(w, pos, fresh & (np.floor(nd) == np.floor(new)),
                          n_total)
        key[w[filed]] = stamp + pos[filed]
        stamp += len(w)
    return center


def _clustering(g: MultiGraph, center: np.ndarray, adj,
                truncated: int = 0) -> LddResult:
    """The clustering given by per-vertex centers `center` (-1: none) over
    the snapshot `adj`: its label classes, ordered by first vertex with
    ascending members, and the edges crossing them."""
    n_total = len(center)
    vs = np.nonzero(center >= 0)[0]
    cv = center[vs]
    first = np.full(n_total, n_total, dtype=np.int64)
    np.minimum.at(first, cv, vs)
    head = first[cv]            # each vertex's cluster by its first vertex
    rank = np.zeros(n_total, dtype=np.int64)
    rank[vs] = np.cumsum(head == vs) - 1
    labels = np.full(n_total, -1, dtype=np.int64)
    labels[vs] = rank[head]
    eu = np.frombuffer(g.eu, dtype=np.int32)
    ev = np.frombuffer(g.ev, dtype=np.int32)
    ea = np.frombuffer(g.eactive, dtype=np.uint8)
    return LddResult(
        max_diameter=0, retries=0, truncated_shifts=truncated, adj=adj,
        labels=labels, members=vs[np.argsort(labels[vs] * n_total + vs)],
        member_starts=np.concatenate(([0], np.cumsum(np.bincount(
            labels[vs])))),
        crossing=np.nonzero((ea != 0) & (labels[eu] != labels[ev]))[0])


def _forest(g: MultiGraph, result: LddResult) -> None:
    """Fill in the cluster forest, internal edges and degrees of `result`.

    One `bfs_forest` from every cluster's first vertex, confined to its
    own label: each label class holds one root, so every cluster's tree is
    the one a scalar BFS from its root would build.
    """
    lab, members = result.labels, result.members
    n_total = len(lab)
    k = len(result.member_starts) - 1
    order, par, pe, layers = bfs_forest(
        result.adj, members[result.member_starts[:-1]], lab)
    size = len(order)
    result.tree_order = order[np.argsort(lab[order] * size
                                         + np.arange(size))]
    result.tree_starts = np.concatenate(
        ([0], np.cumsum(np.bincount(lab[order], minlength=k))))
    result.parent = np.full(n_total, -1, dtype=np.int64)
    result.parent_edge = np.full(n_total, -1, dtype=np.int64)
    result.depth = np.full(n_total, -1, dtype=np.int64)
    result.parent[order] = par
    result.parent_edge[order] = pe
    result.depth[order] = np.repeat(np.arange(len(layers) - 1),
                                    np.diff(layers))
    eu = np.frombuffer(g.eu, dtype=np.int32)
    ev = np.frombuffer(g.ev, dtype=np.int32)
    ea = np.frombuffer(g.eactive, dtype=np.uint8)
    lu = lab[eu]
    ids = np.nonzero((ea != 0) & (lu == lab[ev]) & (lu >= 0))[0]
    iu = eu[ids]
    # (cluster, eu, id) order: members are in (cluster, vertex) order.
    place = np.empty(n_total, dtype=np.int64)
    place[members] = np.arange(len(members))
    result.edges = ids[np.argsort(place[iu] * g.m_total + ids)]
    result.edge_starts = np.concatenate(
        ([0], np.cumsum(np.bincount(lu[ids], minlength=k))))
    result.degrees = (np.bincount(iu, minlength=n_total)
                      + np.bincount(ev[ids], minlength=n_total))


def _cluster_ecc(starts, tails, lab, i: int, size: int, root: int) -> int:
    """Eccentricity of `root` inside cluster i; inter-cluster edges are
    exactly those whose endpoints carry different labels, so the cluster
    is traversed by comparing labels."""
    depth = {root: 0}
    frontier = [root]
    ecc = 0
    while frontier:
        nxt = []
        for v in frontier:
            dv = depth[v]
            for j in range(starts[v], starts[v + 1]):
                w = tails[j]
                if lab[w] != i or w in depth:
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

    A cluster of at most 2 vertices has diameter size - 1. A larger one
    passes cheaply when twice its forest depth (that of its last vertex in
    BFS order) is within the cap; only the clusters over it get their
    exact diameter, by scalar BFS over the snapshot converted to lists (a
    numpy BFS per vertex is 30x slower on a 185-vertex path cluster). The
    recorded max_diameter is exact when the first cluster reaching it was
    measured exactly, and otherwise a 2*radius upper bound.
    """
    ms, ts = result.member_starts, result.tree_starts
    size = np.diff(ms)
    if (np.diff(ts) != size).any():
        raise GraphError("cluster disconnected (internal error)")
    value = np.where(size <= 2, size - 1,
                     2 * result.depth[result.tree_order[ts[1:] - 1]])
    exact = (size <= 2) | (value > cap)
    heavy = np.flatnonzero(exact & (size > 2)).tolist()
    if heavy:
        rows = (result.adj[0].tolist(), result.adj[1].tolist(),
                result.labels.tolist())
        ms = ms.tolist()
        for i in heavy:
            cluster = result.members[ms[i]:ms[i + 1]].tolist()
            diam = max(_cluster_ecc(*rows, i, len(cluster), v)
                       for v in cluster)
            if diam > cap:
                return False
            value[i] = diam
    top = int(np.argmax(value))
    result.max_diameter = int(value[top])
    result.diameter_exact = bool(exact[top])
    return True
