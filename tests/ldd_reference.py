"""Scalar references for the LDD's array passes, kept for cross-checks.

`dial_centers` is the exponential-shift clustering as one multi-source
Dijkstra over a Dial bucket queue (`dial_search`), drawing one scalar
exponential per active vertex with an active edge, over an adjacency of
its own; `dict_clusters` groups per-vertex centers into clusters with a
dict. `low_diam_decomp` must reproduce both exactly.
"""
import math

from shortcycles.rng import words


def dial_centers(g, rate: float, seed: int, shift_cap: float):
    """One draw of shifts, one word of `words(seed, k)` per active vertex
    with an active edge, in id order: u = ((w >> 11) + 1) / 2^53 and
    shift -log(u) / rate. Returns each vertex's center (-1 when inactive
    or without an active edge) and the number of truncated shifts."""
    has_edge = [False] * g.n_total
    for u, w, alive in zip(g.eu, g.ev, g.eactive):
        if alive:
            has_edge[u] = has_edge[w] = True
    live = [v for v in range(g.n_total) if g.vactive[v] and has_edge[v]]
    truncated = 0
    shifts = {}
    for v, w in zip(live, words(seed, len(live)).tolist()):
        s = -math.log(((w >> 11) + 1) / 2 ** 53) / rate
        if s > shift_cap:
            s = shift_cap
            truncated += 1
        shifts[v] = s
    return dial_search(g, shifts)[0], truncated


def dial_search(g, shifts):
    """Each vertex's center and distance (-1 and inf when inactive or
    without an active edge) given the shifts of the active vertices (a
    dict), of which those without an edge are ignored: Dijkstra with unit
    edges from start distances max_shift - shift, relaxing w from v when
    (dist, center) drops, so an exact tie goes to the lowest center id.
    Keys in bucket b never relax into bucket b, so a Dial bucket queue
    processed in ascending order is exact, and the order inside a bucket
    does not matter."""
    n_total = g.n_total
    nbrs = [[] for _ in range(n_total)]   # over active edges, loops once
    for u, w, alive in zip(g.eu, g.ev, g.eactive):
        if alive:
            nbrs[u].append(w)
            if u != w:
                nbrs[w].append(u)
    shifts = {v: s for v, s in shifts.items() if nbrs[v]}
    max_shift = 0.0
    for s in shifts.values():
        if s > max_shift:
            max_shift = s
    dist = [float("inf")] * n_total
    center = [-1] * n_total
    buckets = [[] for _ in range(int(max_shift) + 2)]
    for v in range(n_total):
        if v in shifts:
            d = max_shift - shifts[v]
            dist[v] = d
            center[v] = v
            buckets[int(d)].append(v)
    settled = [False] * n_total
    b = 0
    while b < len(buckets):
        for v in buckets[b]:
            if settled[v]:
                continue
            d = dist[v]
            if d >= b + 1:  # superseded entry, lives in a later bucket now
                continue
            settled[v] = True
            nd = d + 1.0
            nb = int(nd)
            if nb >= len(buckets):
                buckets.append([])
            for w in nbrs[v]:
                if (nd, center[v]) < (dist[w], center[w]):
                    dist[w] = nd
                    center[w] = center[v]
                    buckets[nb].append(w)
        b += 1
    return center, dist


def dict_clusters(center):
    """Label classes of `center` (-1: none), ordered by first vertex, and
    the per-vertex cluster index."""
    index = {}
    clusters = []
    labels = [-1] * len(center)
    for v, c in enumerate(center):
        if c >= 0:
            if c not in index:
                index[c] = len(clusters)
                clusters.append([])
            labels[v] = index[c]
            clusters[labels[v]].append(v)
    return clusters, labels
