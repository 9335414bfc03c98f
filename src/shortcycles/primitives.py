"""Standalone subroutines of the decomposition pipeline.

Each routine is a pure function of its inputs: callers pass graphs they
own; routines that need to delete work on internal scratch state or on a
tombstoned copy, never on the caller's graph.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (GraphError, MultiGraph, bfs_forest, euler_tours,
                    flat_adjacency_np, tree_path)


@dataclass
class Cycle:
    """Closed walk with no repeated edge and no repeated vertex.

    vertices[i] -- edges[i] --> vertices[i+1], closing back to vertices[0].
    Length 1 is a self-loop, length 2 a pair of parallel edges.
    """
    edges: list[int]
    vertices: list[int]

    def __len__(self) -> int:
        return len(self.edges)


@dataclass
class VertexDisjointCycleSet:
    cycles: list[Cycle] = field(default_factory=list)
    used_vertices: set[int] = field(default_factory=set)

    def add(self, cycle: Cycle) -> None:
        self.cycles.append(cycle)
        self.used_vertices.update(cycle.vertices)

    def extend(self, other: "VertexDisjointCycleSet") -> None:
        self.cycles.extend(other.cycles)
        self.used_vertices.update(other.used_vertices)

    @property
    def total_vertices(self) -> int:
        return sum(len(c.vertices) for c in self.cycles)

    @property
    def total_edges(self) -> int:
        return sum(len(c.edges) for c in self.cycles)


@dataclass
class ReductionMap:
    h: MultiGraph
    origin_vertex: list[int]   # H vertex -> source vertex
    origin_edge: list[int]     # H edge -> source edge (bijection)


# ---------------------------------------------------------------------------
# Degree reduction: split high-degree vertices into bounded-degree copies.

def graph_reduce(g: MultiGraph, n_override: int | None = None) -> ReductionMap:
    """Split each vertex into copies of degree at most ceil(2m/n).

    The result has at most 2n vertices and exactly m edges; each vertex's
    incident-edge slots (loops occupy two) are chunked into consecutive
    blocks, one copy per block. `n_override` substitutes the vertex count
    used for the degree bound, for callers whose edge subgraph lives in a
    larger vertex space.
    """
    n = g.n_active if n_override is None else n_override
    m = g.m_active
    if n < 1 or m < n:
        raise GraphError(f"graph_reduce requires m >= n >= 1, got n={n} m={m}")
    d_cap = -(-2 * m // n)  # ceil(2m/n)
    # Each vertex's row lists its active edges by id, a loop once but over
    # two slots; slot s of vertex v goes to copy base[v] + s // d_cap.
    starts, tails, eids = flat_adjacency_np(g)
    heads = np.repeat(np.arange(g.n_total), np.diff(starts))
    loop = tails == heads
    slot_end = np.concatenate(([0], np.cumsum(1 + loop)))
    slot = slot_end[:-1] - slot_end[starts[heads]]
    slots = slot_end[starts[1:]] - slot_end[starts[:-1]]
    va = np.frombuffer(g.vactive, dtype=np.uint8) != 0
    copies = np.where(va, np.maximum(1, -(-slots // d_cap)), 0)
    base = np.cumsum(copies) - copies
    copy = base[heads] + slot // d_cap
    # A non-loop's row entry at eu gives its eu-side copy; a loop's two
    # slots give its eu and ev copies.
    copy_u = np.zeros(g.m_total, dtype=np.int64)
    copy_v = np.zeros(g.m_total, dtype=np.int64)
    eu = np.frombuffer(g.eu, dtype=np.int32)
    at_u = eu[eids] == heads
    copy_u[eids[at_u]] = copy[at_u]
    copy_v[eids[~at_u]] = copy[~at_u]
    copy_v[eids[loop]] = (base[heads] + (slot + 1) // d_cap)[loop]
    ids = np.nonzero(np.frombuffer(g.eactive, dtype=np.uint8))[0]
    h = MultiGraph.from_edges(int(copies.sum()), copy_u[ids], copy_v[ids])
    return ReductionMap(h=h,
                        origin_vertex=np.repeat(np.arange(g.n_total),
                                                copies).tolist(),
                        origin_edge=ids.tolist())


# ---------------------------------------------------------------------------
# Circuit splitting: closed walk -> simple cycles of equal total length.

def split_circuit(vertices: list[int], edges: list[int],
                  g: MultiGraph | None = None) -> list[Cycle]:
    """Split a closed walk into simple cycles covering the same edges.

    `vertices[i] -- edges[i] --> vertices[i+1 mod k]`. Scans the walk with
    an on-path marker per vertex and pops a cycle at every revisit, so
    nested cycles come out innermost first.
    """
    k = len(edges)
    if k == 0:
        return []
    if len(vertices) != k:
        raise GraphError("walk must have as many vertices as edges")
    if len(set(edges)) != k:
        raise GraphError("walk repeats an edge")
    if g is not None:
        for i in range(k):
            u, v = vertices[i], vertices[(i + 1) % k]
            a, b = g.endpoints(edges[i])
            if {u, v} != {a, b} and not (u == v == a == b):
                raise GraphError(f"walk edge {edges[i]} does not join "
                                 f"{u} and {v}")
    cycles: list[Cycle] = []
    path = [vertices[0]]
    path_edges: list[int] = []
    pos = {vertices[0]: 0}
    for i in range(k):
        path_edges.append(edges[i])
        w = vertices[(i + 1) % k]
        j = pos.get(w)
        if j is not None:
            cyc_vs = path[j:]
            cyc_es = path_edges[j:]
            cycles.append(Cycle(edges=cyc_es, vertices=cyc_vs))
            for x in path[j + 1:]:
                del pos[x]
            del path[j + 1:]
            del path_edges[j:]
        else:
            path.append(w)
            pos[w] = len(path) - 1
    if path_edges:
        raise GraphError("walk is not closed")
    return cycles


# ---------------------------------------------------------------------------
# NaiveShortCycle: peel low degree, BFS to the first non-tree edge, repeat.

class _Scratch:
    """Private adjacency mirror used by naive_short_cycle: a CSR over the
    slots of the sorted `vertices` whose rows list the edges inside them
    in ascending id (other end's slot, edge), loops once, and every slot's
    live degree (loops twice) and alive flag. Removing a vertex only marks
    it dead and lowers its live neighbours' degrees; rows keep their
    entries, and readers skip those whose other end is dead."""

    __slots__ = ("vs", "starts", "tails", "eids", "deg", "alive")

    def __init__(self, g: MultiGraph, vertices, edges):
        vs = np.unique(np.asarray(vertices, dtype=np.int64))
        n = len(vs)
        if edges is None:
            edges = np.flatnonzero(np.frombuffer(g.eactive, dtype=np.uint8))
        edges = np.asarray(edges, dtype=np.int64)
        ends = np.stack([np.frombuffer(a, dtype=np.int32)[edges]
                         for a in (g.eu, g.ev)])
        slot = np.minimum(np.searchsorted(vs, ends), n - 1)
        inside = (vs[slot] == ends).all(axis=0)   # both ends in `vertices`
        edges, (su, sv) = edges[inside], slot[:, inside]
        two = su != sv
        head = np.concatenate((su, sv[two]))
        eids = np.concatenate((edges, edges[two]))
        order = np.argsort(head * g.m_total + eids)
        self.vs = vs.tolist()
        self.starts = np.concatenate(
            ([0], np.cumsum(np.bincount(head, minlength=n)))).tolist()
        self.tails = np.concatenate((sv, su[two]))[order].tolist()
        self.eids = eids[order].tolist()
        self.deg = (np.bincount(su, minlength=n)
                    + np.bincount(sv, minlength=n)).tolist()
        self.alive = bytearray(b"\x01") * n

    def remove_vertex(self, x: int, peel: list[int]) -> None:
        """Mark slot x dead and lower its live neighbours' degrees, once
        per edge, appending each that drops to 2 or less to `peel`."""
        alive, deg = self.alive, self.deg
        alive[x] = 0
        for w in self.tails[self.starts[x]:self.starts[x + 1]]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] <= 2:
                    peel.append(w)


def naive_short_cycle(g: MultiGraph, vertices=None,
                      edges=None) -> VertexDisjointCycleSet:
    """Vertex-disjoint cycles of length <= 2 log2 n with total vertex count
    at least (m - 2n) / max_degree.

    Repeatedly peels degree <= 2 vertices, then runs BFS from the lowest
    alive vertex until the first non-tree edge closes a cycle; the cycle's
    vertices are removed and the process repeats until nothing is left.
    The peel and the removals take time linear in the edges. Does not
    modify `g`; it runs on the subgraph of `edges` (active edge ids in any
    order, default all active edges) with both ends in `vertices`. Each
    of its components yields the cycles it would alone: no BFS leaves it,
    and the peel's fixpoint does not depend on the order of removals.
    """
    if vertices is None:
        vertices = np.nonzero(np.frombuffer(g.vactive, dtype=np.uint8))[0]
    out = VertexDisjointCycleSet()
    if len(vertices) == 0:
        return out
    s = _Scratch(g, vertices, edges)
    vs, deg, alive = s.vs, s.deg, s.alive
    peel = [x for x in range(len(vs)) if deg[x] <= 2]
    root = 0   # alive only shrinks, so the lowest live slot only rises
    while True:
        while peel:
            x = peel.pop()
            if alive[x]:
                s.remove_vertex(x, peel)
        while root < len(vs) and not alive[root]:
            root += 1
        if root == len(vs):
            return out
        cycle = _bfs_first_cycle(s, root)
        if cycle is None:  # cannot happen at min degree >= 3; guard anyway
            s.remove_vertex(root, peel)
            continue
        slots, cyc_edges = cycle
        out.add(Cycle(edges=cyc_edges, vertices=[vs[x] for x in slots]))
        # The whole cycle dies first, so each removal lowers only the
        # degrees of neighbours outside it.
        for x in slots:
            alive[x] = 0
        for x in slots:
            s.remove_vertex(x, peel)


def _bfs_first_cycle(s: _Scratch, root: int):
    """BFS from slot root up to the first non-tree edge: the cycle it
    closes as (slots, edges), or None."""
    alive, starts, tails, eids = s.alive, s.starts, s.tails, s.eids
    parent: dict[int, int] = {}
    pedge: dict[int, int] = {}
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            pe = pedge.get(v, -1)
            skipped_parent = False
            for j in range(starts[v], starts[v + 1]):
                w = tails[j]
                if not alive[w]:
                    continue
                e = eids[j]
                if e == pe and not skipped_parent:
                    skipped_parent = True
                    continue
                if w in depth:
                    # v .. lca .. w along the tree, closed by e back to v.
                    verts, edges = tree_path(parent, pedge, depth, v, w)
                    edges.append(e)
                    return verts, edges
                depth[w] = depth[v] + 1
                parent[w] = v
                pedge[w] = e
                nxt.append(w)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# TreeSplit: partition every tree of a forest into subtrees with bounded
# label sums.

def tree_split(ldd, weights, threshold) -> np.ndarray:
    """Partition every tree of a clustering's forest (an LddResult) into
    connected subtrees whose label sums lie in [t, D*t + X], for the
    tree's threshold t, maximum degree D and largest label X; `weights`
    holds every vertex slot's non-negative label.

    `threshold` is one int or one int per cluster, each at least 1
    (GraphError otherwise, and on `weights` of another length). Each
    tree is re-rooted at its first leaf in the forest's order by flipping
    the parents on the path from that leaf to the old root. Walking up a
    layer at a time from the deepest, a vertex whose accumulated label
    sum reaches t is cut from its parent; otherwise the sum is added to
    its parent's. A root component lighter than t merges into its
    shallowest adjacent cut, the first in the re-rooted BFS order (tree
    edges scanned in id order). A tree whose label sum is below t has no
    cut and stays one part.

    Returns every vertex's part, -1 off the forest. Parts are numbered by
    cluster, then by the re-rooted BFS order of their shallowest vertex.
    """
    lab, fv, depth = ldd.labels, ldd.tree_order, ldd.depth
    parent, pedge = ldd.parent, ldd.parent_edge
    n_total = len(lab)
    weights = np.asarray(weights, dtype=np.int64)
    if weights.shape != (n_total,):
        raise GraphError(f"weights must have one entry per vertex slot "
                         f"({n_total}), got shape {weights.shape}")
    thr = np.asarray(threshold)
    if thr.dtype.kind not in "iu":
        raise GraphError("threshold must be an integer")
    if thr.ndim > 1 or (thr.ndim == 1
                        and len(thr) != len(ldd.tree_starts) - 1):
        raise GraphError("threshold must be one int or one per cluster")
    thr = thr.astype(np.int64)
    if (thr < 1).any():
        raise GraphError("threshold must be positive")
    tdeg = np.bincount(parent[parent >= 0], minlength=n_total) + (parent >= 0)
    # Each tree's first vertex of tree degree <= 1: a leaf, or a lone root.
    cand = fv[tdeg[fv] <= 1]
    first = np.ones(len(cand), dtype=bool)
    first[1:] = lab[cand[1:]] != lab[cand[:-1]]
    leaf = cand[first]
    # Flip the parents on every leaf-to-root path: a path vertex's new
    # parent is its old child c there, joined by c's parent edge, the key
    # that orders it among its new siblings, and its new depth is its
    # distance to the leaf.
    up, key = parent.copy(), pedge.copy()
    new_depth = np.zeros(n_total, dtype=np.int64)
    on_path = np.zeros(n_total, dtype=bool)
    on_path[leaf] = True
    up[leaf] = -1
    cur, step = leaf[parent[leaf] >= 0], 1
    while len(cur):
        p = parent[cur]
        up[p], key[p], on_path[p], new_depth[p] = cur, pedge[cur], True, step
        cur, step = p[parent[p] >= 0], step + 1
    # Off the path, one more than the parent's, top-down over the old
    # layers.
    off = fv[~on_path[fv]]
    off = off[np.argsort(depth[off])]
    a = 0
    for b in np.cumsum(np.bincount(depth[off])).tolist():
        v = off[a:b]
        new_depth[v] = new_depth[parent[v]] + 1
        a = b
    # The BFS order from the leaves: each vertex is reached only from its
    # new parent, so a layer sorts by (parent's position, key).
    d = new_depth[fv]
    order = fv[np.argsort(d, kind="stable")]   # roots in cluster order
    layers = [0] + np.cumsum(np.bincount(d, minlength=1)).tolist()
    pos = np.empty(n_total, dtype=np.int64)
    pos[order[:layers[1]]] = np.arange(layers[1])
    m = int(pedge.max(initial=0)) + 1
    for a, b in zip(layers[1:-1], layers[2:]):
        v = order[a:b]
        v = v[np.argsort(pos[up[v]] * m + key[v])]
        order[a:b] = v
        pos[v] = np.arange(a, b)
    size, n_roots = len(order), layers[1]
    up = pos[up[order]]                # parent positions; junk at the roots
    label = weights[order]
    t = thr[lab[order]] if thr.ndim else np.full(size, thr)
    extra = label.copy()
    cut = np.zeros(size, dtype=bool)
    for a, b in zip(layers[-2:0:-1], layers[:1:-1]):
        cut[a:b] = extra[a:b] >= t[a:b]
        light = np.flatnonzero(~cut[a:b]) + a
        np.add.at(extra, up[light], extra[light])
    top = np.arange(size)       # position of each part's shallowest vertex
    for a, b in zip(layers[1:-1], layers[2:]):
        top[a:b] = np.where(cut[a:b], top[a:b], top[up[a:b]])
    # The first cut whose parent lies in a root component, per root.
    cuts = np.flatnonzero(cut)
    at_root = top[up[cuts]] < n_roots
    target = np.full(n_roots, size)
    np.minimum.at(target, top[up[cuts[at_root]]], cuts[at_root])
    merge = ((np.bincount(top, weights=label, minlength=size)[:n_roots]
              < t[:n_roots]) & (target < size))
    moved = np.arange(size)
    moved[target[merge]] = np.flatnonzero(merge)
    top = moved[top]
    tops = np.flatnonzero(top == np.arange(size))
    rank = np.empty(size, dtype=np.int64)
    rank[tops[np.argsort(lab[order[tops]], kind="stable")]] = \
        np.arange(len(tops))
    part = np.full(n_total, -1, dtype=np.int64)
    part[order] = rank[top]
    return part


# ---------------------------------------------------------------------------
# PullUp: lift vertex-disjoint cycles of a contracted graph to the source.

def pull_up(g: MultiGraph, part, f, parent, edge, depth,
            cycles_h: VertexDisjointCycleSet) -> VertexDisjointCycleSet:
    """Lift cycles on the contracted graph H back to the source graph g.

    H's vertices are the parts of g's vertices given by `part` (-1: none)
    and its edge i is g's edge f[i] (an int array). Consecutive images of
    a cycle's H-edges are joined by the unique tree path inside the part,
    read from per-vertex `parent`, `edge` and `depth` arrays (-1 off the
    forest) of a forest in which every part is connected. Output cycles
    are vertex-disjoint and cover at least one source vertex per H-vertex
    covered."""
    out = VertexDisjointCycleSet()
    if not cycles_h.cycles:
        return out
    parent, edge, depth = (np.asarray(a).tolist()
                           for a in (parent, edge, depth))
    f = np.asarray(f)
    for hc in cycles_h.cycles:
        k = len(hc.edges)
        src = f[hc.edges].tolist()
        # exits[i]: source vertex where the cycle leaves part hc.vertices[i]
        # along the image of hc.edges[i]; entries[i]: where it arrived.
        exits = [0] * k
        entries = [0] * k
        for i, e in enumerate(src):
            pu = hc.vertices[i]
            pv = hc.vertices[(i + 1) % k]
            gu, gv = g.endpoints(e)
            if part[gu] == pu and part[gv] == pv:
                a, b = gu, gv
            elif part[gv] == pu and part[gu] == pv:
                a, b = gv, gu
            else:
                raise GraphError(f"edge {e} endpoints not in parts "
                                 f"{pu}, {pv}")
            exits[i] = a
            entries[(i + 1) % k] = b
        verts: list[int] = []
        edges: list[int] = []
        for i in range(k):
            pv_, pe_ = tree_path(parent, edge, depth, entries[i], exits[i])
            verts.extend(pv_)
            edges.extend(pe_)
            edges.append(src[i])
        out.add(Cycle(edges=edges, vertices=verts))
    return out


# ---------------------------------------------------------------------------
# Sparsify: halve edges via parity fix + Euler-tour deletion, then trim.

def sparsify(g: MultiGraph, k: int) -> MultiGraph:
    """Subgraph with exactly k edges and max degree <= (2k + 4n) * D / m.

    Runs the fewest rounds r with 2^r * (2k + 4n) >= m, each of:
    per-component spanning tree, bottom-up removal of the parent edge at
    every odd-degree vertex, then an Euler tour per component deleting
    every other edge starting from the first. A round at least halves
    every degree, which gives the bound, and keeps at least m'/2 - n of
    its m' edges, so each round starts above 2k + 2n edges and at least
    k remain. Finally trims highest edge ids down to exactly k. Returns
    a tombstoned copy; edge ids are preserved.
    """
    m = g.m_active
    n = g.n_active
    if not (1 <= k <= m):
        raise GraphError(f"sparsify needs 1 <= k <= m, got k={k} m={m}")
    out = g.copy()
    bound = 2 * k + 4 * n
    while bound < m:
        _halving_round(out)
        bound *= 2
    if out.m_active > k:
        act = np.nonzero(np.frombuffer(out.eactive, dtype=np.uint8))[0]
        out.delete_edges(act[k - out.m_active:].tolist())
    return out


def _halving_round(out: MultiGraph) -> None:
    """One edge-halving round of sparsify, in place: fix odd degrees by
    dropping BFS-parent edges bottom-up, then delete every other edge of a
    closed Euler tour per component. Deletions are batched; traversal runs
    over a flat adjacency snapshot in incidence order."""
    n_total = out.n_total
    va, deg = out.vactive, out.deg
    adj = flat_adjacency_np(out)
    one_label = np.zeros(n_total, dtype=np.int8)
    visited = np.zeros(n_total, dtype=bool)
    pos = np.empty(n_total, dtype=np.int64)
    drop: list[int] = []
    for s in range(n_total):
        if not va[s] or deg[s] == 0 or visited[s]:
            continue
        o, pv, pe, layers = bfs_forest(adj, [s], one_label, visited)
        # Bottom-up removal of the parent edge at every odd vertex drops
        # exactly the parent edges of odd degree-sum subtrees; the sums
        # are accumulated a layer at a time, deepest first.
        pos[o] = np.arange(len(o))
        up = pos[pv]
        sums = np.frombuffer(deg, dtype=np.int32)[o].astype(np.int64)
        for a, b in zip(layers[-2:0:-1], layers[:1:-1]):
            np.add.at(sums, up[a:b], sums[a:b])
        drop.extend(pe[1:][(sums[1:] & 1) == 1].tolist())
    out.delete_edges(drop)
    drop = []
    for tour in euler_tours(flat_adjacency_np(out)):
        drop.extend(tour[::2])   # its 1st, 3rd, ... edge
    out.delete_edges(drop)
