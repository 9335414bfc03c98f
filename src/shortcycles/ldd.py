"""Low-diameter decomposition via exponentially shifted clustering.

Removes at most a beta fraction of edges so that every remaining component
has small strong diameter. The diameter cap holds by construction: every
vertex is within shift(center) <= (2/beta) ln(n+1) hops of its center
inside its own cluster (Miller-Peng-Xu). The cut bound is enforced by
check-and-retry: an attempt is accepted only if both the cut bound and the
diameter cap hold, resampling shifts otherwise. Exact ties go to the lowest
center id, so the layered search needs no queue order, and every component
of the graph runs its own bucket clock, read from a partition the graph
caches and each accepted clustering narrows to the exact components.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .graph import (GraphError, MultiGraph, bfs_forest, flat_adjacency_np,
                    label_components, row_entries)
from .rng import mix64, words

MAX_RETRIES = 20


class LddError(GraphError):
    """All retry attempts failed."""


@dataclass
class LddResult:
    max_diameter: int           # 2 * largest hop count: a diameter bound
    retries: int                # attempts before acceptance, 0 = first try
    truncated_shifts: int
    # The clustering, valid while the graph is unchanged. `adj` is a CSR
    # snapshot (starts, tails, eids) of the active edges as numpy arrays and
    # `labels` the per-vertex cluster index, so each cluster is exactly one
    # label class. The clusters partition the active vertices that have an
    # active edge; every other vertex is off them, with label -1. Cluster
    # i's vertices, ascending, are members[member_starts[i]:member_starts[i
    # + 1]], and `crossing` holds the ids of the active edges between
    # clusters, ascending; `clusters` and `removed` are their list and set
    # views, built on use.
    adj: tuple = ()
    labels: np.ndarray | None = None
    members: np.ndarray | None = None
    member_starts: np.ndarray | None = None
    crossing: np.ndarray | None = None
    # The cluster forest: a BFS tree of every cluster from its lowest
    # vertex, confined to its label class, rows scanned in order. The BFS
    # runs from each class's lowest vertex before the classes are cut into
    # clusters, and label_components runs only over the vertices it
    # misses (`_clustering`). Every tree spans its cluster: cluster i's
    # is tree_order[member_starts[i]:member_starts[i + 1]] in discovery
    # order; per vertex, `parent` and `parent_edge` (-1 at the roots) and
    # `depth` (-1 off the forest, as are the other two).
    tree_order: np.ndarray | None = None
    parent: np.ndarray | None = None
    parent_edge: np.ndarray | None = None
    depth: np.ndarray | None = None
    # `edges` holds the clusters' internal active edges, ascending, and
    # `edge_label` each one's cluster; `degrees` is the per-vertex
    # internal degree, loops counted twice.
    edges: np.ndarray | None = None
    edge_label: np.ndarray | None = None
    degrees: np.ndarray | None = None

    @cached_property
    def clusters(self) -> list[list[int]]:
        flat = self.members.tolist()
        bounds = self.member_starts.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    @cached_property
    def removed(self) -> set[int]:
        return set(self.crossing.tolist())


def _shift_cap(beta: Fraction, n: int) -> float:
    """Cap on every shift: (2/beta) ln(n+1)."""
    return 2.0 / float(beta) * math.log(n + 1)


def diameter_cap(beta: Fraction, n: int) -> int:
    """Cap on cluster strong diameter: ceil(2 * shift cap), which equals
    ceil((4/beta) ln(n+1)) exactly (scaling by 2 is exact in floats). No
    vertex is more than the shift cap hops from its center inside its
    cluster, so no clustering of low_diam_decomp exceeds it."""
    return math.ceil(2 * _shift_cap(beta, n))


def low_diam_decomp(g: MultiGraph, beta: Fraction, seed: int) -> LddResult:
    """Partition the active vertices that have an active edge into
    low-diameter clusters; the others, which no cut can affect, get label
    -1, no tree and no part.

    Each active vertex v with an edge draws an exponential shift with
    rate beta (capped at (2/beta) ln(n+1)) and joins the center c
    minimizing dist(c, v) - shift(c), the lowest center id on exact ties.
    An attempt's shifts come from `words(mix64(seed, attempt), k)`, one
    word w per such vertex in id order: u = ((w >> 11) + 1) / 2^53, exact
    and in (0, 1], and shift = -log(u) / beta, taken with math.log, whose
    result does not depend on the host's SIMD path as np.log's last bit
    does. Vertices start at max_shift - shift; the search settles them a
    unit layer at a time, relaxing every edge of a layer at once, with
    one bucket clock per group of the graph's cached partition
    (`_shifted_search`). A vertex's hop count to its center is
    dist(v) - dist(center), at most shift(center) - shift(v), and
    `max_diameter` is twice the largest one.
    `crossing` holds the inter-cluster edges; |crossing| <= beta * m is
    checked exactly on the rational beta, and an attempt that fails it or
    the diameter cap is redrawn, up to MAX_RETRIES times. An accepted
    clustering narrows the cached partition to the graph's components:
    the cluster labels joined by `crossing`.
    """
    if g.n_active == 0:
        raise GraphError("low_diam_decomp on empty graph")
    if not (0 < beta <= 1):
        raise GraphError(f"beta must be in (0, 1], got {beta}")
    n = g.n_active
    m = g.m_active
    shift_cap = _shift_cap(beta, n)
    cap = diameter_cap(beta, n)
    adj = flat_adjacency_np(g)   # static across attempts
    edges = _active_edges(g)
    groups = g._partition()
    starts = adj[0]
    active = np.nonzero(np.frombuffer(g.vactive, dtype=np.uint8))[0]
    # Vertices without an active edge join no cluster and draw no shift.
    live = active[starts[active + 1] > starts[active]]
    for attempt in range(MAX_RETRIES):
        w = words(mix64(seed, attempt), len(live))
        u = (((w >> np.uint64(11)) + np.uint64(1)).astype(np.float64)
             * 2.0 ** -53)
        shifts = -np.fromiter(map(math.log, u.tolist()), dtype=np.float64,
                              count=len(u)) / float(beta)
        truncated = int(np.count_nonzero(shifts > shift_cap))
        np.minimum(shifts, shift_cap, out=shifts)
        center, dist = _shifted_search(adj, live, shifts, groups)
        # An active edge crosses iff its ends have different centers, so
        # both checks come before the clustering is built.
        crossing = int(np.count_nonzero(center[edges[1]] != center[edges[2]]))
        hops = np.rint(dist[live] - dist[center[live]])
        max_diameter = 2 * int(hops.max(initial=0))
        if (crossing * beta.denominator <= beta.numerator * m
                and max_diameter <= cap):
            result = _whole(_clustering(
                center, adj, *_class_edges(center, edges), truncated), center)
            result.retries = attempt
            result.max_diameter = max_diameter
            g._groups = _components(g, result)
            return result
    raise LddError(
        f"low-diameter decomposition failed after {MAX_RETRIES} attempts "
        f"(cap {cap}, beta {beta})")


def single_cluster(g: MultiGraph, component: list[int]) -> LddResult:
    """The clustering of g whose one cluster is `component`, every other
    vertex unlabeled, over a fresh snapshot, with its forest: its one
    tree is the BFS tree of `component` from its lowest vertex. Unlike
    low_diam_decomp's clusters, `component` carries no diameter guarantee;
    GraphError if it is not connected."""
    center = np.full(g.n_total, -1, dtype=np.int64)
    center[component] = component[0]
    return _whole(_clustering(center, flat_adjacency_np(g),
                              *_class_edges(center, _active_edges(g))),
                  center)


def repair(g: MultiGraph, prev: LddResult,
           beta: Fraction) -> LddResult | None:
    """The clustering `prev` of g leaves after vertex deletions, over a
    fresh snapshot, with its forest: each cluster, cut to the active
    vertices that keep an active edge, splits into the connected pieces
    of its internal edges, each with its BFS tree from its lowest vertex
    (`_clustering` on the labels of `prev`, so `label_components` runs
    only if some cluster splits). The crossing and internal edges are
    those of `prev` that survive. None if it breaks low_diam_decomp's
    contract: more than beta * m_active crossing edges, or twice a
    tree's depth, a bound on its piece's diameter, over
    diameter_cap(beta, n_active)."""
    alive = np.frombuffer(g.eactive, dtype=bool)
    crossing = prev.crossing[alive[prev.crossing]]
    if len(crossing) * beta.denominator > beta.numerator * g.m_active:
        return None
    adj = flat_adjacency_np(g)
    ids = prev.edges[alive[prev.edges]]
    result = _clustering(
        np.where(np.diff(adj[0]) > 0, prev.labels, -1), adj, crossing,
        (ids, np.frombuffer(g.eu, dtype=np.int32)[ids],
         np.frombuffer(g.ev, dtype=np.int32)[ids]))
    result.max_diameter = 2 * int(result.depth.max(initial=0))
    if result.max_diameter > diameter_cap(beta, g.n_active):
        return None
    return result


def _active_edges(g: MultiGraph):
    """(ids, eu, ev): the active edge ids, ascending, and their ends."""
    ids = np.flatnonzero(np.frombuffer(g.eactive, dtype=np.uint8))
    return (ids, np.frombuffer(g.eu, dtype=np.int32)[ids],
            np.frombuffer(g.ev, dtype=np.int32)[ids])


def _shifted_search(adj, live, shifts, groups):
    """(center, dist): each vertex's center and final distance (-1 and
    inf off `live`, the active vertices with an edge) under the `shifts`
    of `live`, from the Dijkstra with unit edges and start distances
    max_shift - shift in which a vertex joins the lowest center id among
    the offers at its distance.
    `groups` gives each vertex a group id in [0, n_total) such that no
    edge of `adj` joins two groups.

    A vertex settles in bucket int(dist). Relaxing from bucket b only
    reaches b + 1 or later, so a bucket's vertices settle together, and
    the outcome needs no order inside a bucket: every offer to a vertex
    of bucket b is made before b settles, and the vertex keeps the least
    (distance, center) among them and its own start. Groups exchange no
    offers, so each layer settles, in every group, the pending vertices
    of that group's lowest bucket: one clock per group, and as many
    layers as the group with the most distinct buckets needs.

    A vertex's final (dist, center) come from one settled offer, one edge
    closer and with the same center, so dist(v) - dist(center) is the
    length of a path inside v's cluster; and dist(v) is at most v's own
    start, so that length is at most shift(center) - shift(v).
    """
    starts, tails, _ = adj
    n_total = len(starts) - 1
    max_shift = float(shifts.max(initial=0.0))
    dist = np.full(n_total, np.inf)
    dist[live] = max_shift - shifts
    center = np.full(n_total, -1, dtype=np.int64)
    center[live] = live
    low = np.full(n_total, np.inf)   # per group: its lowest pending bucket
    pending = live
    while pending.size:
        fl = np.floor(dist[pending])
        gp = groups[pending]
        np.minimum.at(low, gp, fl)
        now = fl == low[gp]
        low[gp] = np.inf
        layer = pending[now]
        pending = pending[~now]
        if not pending.size:
            # The layer's offers, at least its bucket + 1, reach only
            # settled vertices, which all lie below that.
            break
        # Drop the offers that lose on distance before reading the
        # survivors' centers.
        pos, cnt = row_entries(starts, layer)
        w = tails[pos]
        nd = np.repeat(dist[layer] + 1.0, cnt)
        old = dist[w]
        at = np.flatnonzero(nd <= old)
        w, nd, old = w[at], nd[at], old[at]
        cs = np.repeat(center[layer], cnt)[at]
        better = (nd < old) | (cs < center[w])
        if not better.any():
            continue
        w, nd, cs, old = w[better], nd[better], cs[better], old[better]
        np.minimum.at(dist, w, nd)
        new = dist[w]
        center[w[new < old]] = n_total   # above every center id
        hit = nd == new
        np.minimum.at(center, w[hit], cs[hit])
    return center, dist


def _components(g: MultiGraph, result: LddResult) -> np.ndarray:
    """The components of g's active edges as a vertex partition, each
    named by its lowest vertex: the cluster labels joined by the crossing
    edges, each cluster being connected. A vertex off the clusters,
    inactive or without an active edge, is a group of its own."""
    lab = result.labels
    cu = np.frombuffer(g.eu, dtype=np.int32)[result.crossing]
    cv = np.frombuffer(g.ev, dtype=np.int32)[result.crossing]
    lowest = label_components(len(result.member_starts) - 1, lab[cu],
                              lab[cv])
    groups = np.arange(len(lab))
    on = lab >= 0
    groups[on] = result.members[result.member_starts[lowest]][lab[on]]
    return groups


def _class_edges(classes: np.ndarray, edges):
    """(crossing, inner) of the active edges `edges` (ids, eu, ev), ids
    ascending, under per-vertex classes `classes` (-1: none): the ids of
    the edges between two classes, and (ids, eu, ev) of those inside one.
    An edge between two vertices of no class is neither."""
    ids, eu, ev = edges
    cu = classes[eu]
    same = cu == classes[ev]
    inner = same & (cu >= 0)
    return ids[~same], (ids[inner], eu[inner], ev[inner])


def _whole(result: LddResult, classes: np.ndarray) -> LddResult:
    """`result`, the clustering of `classes`; GraphError if some class
    came back as more than one piece."""
    classes = classes[classes >= 0]
    if len(result.member_starts) - 1 > np.count_nonzero(np.bincount(classes)):
        raise GraphError("cluster disconnected")
    return result


def _clustering(classes: np.ndarray, adj, crossing, inner,
                truncated: int = 0) -> LddResult:
    """The clustering of the per-vertex classes `classes` (-1: none, every
    label below n_total) over the snapshot `adj`, given the ids of the
    active edges between classes, `crossing`, and those inside one as
    `inner` (ids, eu, ev), ids ascending. Each class splits into the
    connected pieces of its internal edges; the pieces are the clusters,
    ordered by lowest vertex, with ascending members and a BFS tree each
    from that vertex. No edge joins two pieces of one class, so the
    clustering's crossing and internal edges are those of the classes.

    One `bfs_forest`, confined to the classes, runs from every class's
    lowest vertex; every vertex it reaches lies in its root's piece, and
    each class holding one root, every tree is the one a scalar BFS from
    its root would build. The vertices it misses, none unless a class
    splits, are grouped by `label_components` over the internal edges
    among them, and one more `bfs_forest`, sharing `visited`, runs from
    each such piece's lowest vertex.
    """
    n_total = len(classes)
    vs = np.flatnonzero(classes >= 0)
    cv = classes[vs]
    first = np.full(n_total, n_total, dtype=np.int64)
    np.minimum.at(first, cv, vs)
    head = first[cv]            # each vertex's piece by its lowest vertex
    visited = np.zeros(n_total, dtype=bool)
    forests = [bfs_forest(adj, vs[head == vs], classes, visited,
                          size=len(vs))]
    ids, eu, ev = inner
    if len(forests[0][0]) < len(vs):
        stray = ~visited[vs]
        lost = ~visited[eu]
        head[stray] = label_components(n_total, eu[lost], ev[lost])[
            vs[stray]]
        forests.append(bfs_forest(adj, vs[stray & (head == vs)], classes,
                                  visited))
    rank = np.zeros(n_total, dtype=np.int64)
    rank[vs] = np.cumsum(head == vs) - 1
    labels = np.full(n_total, -1, dtype=np.int64)
    labels[vs] = rank[head]
    order = np.concatenate([f[0] for f in forests])
    result = LddResult(
        max_diameter=0, retries=0, truncated_shifts=truncated, adj=adj,
        labels=labels, members=vs[np.argsort(labels[vs], kind="stable")],
        member_starts=np.concatenate(([0], np.cumsum(np.bincount(
            labels[vs])))),
        crossing=crossing,
        tree_order=order[np.argsort(labels[order], kind="stable")],
        edges=ids, edge_label=labels[eu],
        degrees=(np.bincount(eu, minlength=n_total)
                 + np.bincount(ev, minlength=n_total)),
        parent=np.full(n_total, -1, dtype=np.int64),
        parent_edge=np.full(n_total, -1, dtype=np.int64),
        depth=np.full(n_total, -1, dtype=np.int64))
    for reached, par, pe, layers in forests:
        result.parent[reached] = par
        result.parent_edge[reached] = pe
        result.depth[reached] = np.repeat(np.arange(len(layers) - 1),
                                        np.diff(layers))
    return result
