"""Standalone subroutines of the decomposition pipeline.

Each routine is a pure function of its inputs: callers pass graphs they
own; routines that need to delete work on internal scratch state or on a
tombstoned copy, never on the caller's graph.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (GraphError, MultiGraph, bfs_forest, euler_tours,
                    flat_adjacency_np, label_components, row_entries,
                    tree_paths)


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


def lengths(lists: list) -> np.ndarray:
    """The length of each of `lists`, as int64."""
    return np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))


def cut(flat: list, counts) -> list[list]:
    """`flat` cut into consecutive slices of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]


class VertexDisjointCycleSet:
    """Vertex-disjoint cycles as flat int64 arrays, `arrays()` = (verts,
    edges, sizes): every cycle's vertices and edges, cycle after cycle,
    and each one's length (a cycle has as many vertices as edges).

    The engine builds sets from arrays and joins them with `extend`,
    which only queues the other set's arrays; they are concatenated on
    first read. `cycles` (a list of Cycle) and `used_vertices` are views
    built on first read and rebuilt after a change, so no Cycle exists
    until `cycles` is read; callers must not write to them. `add` appends
    one Cycle's lists, for callers that build a set a cycle at a time.
    """

    __slots__ = ("_parts", "n_cycles", "_cycles", "_used")

    def __init__(self, verts=(), edges=(), sizes=()):
        self._parts: list[tuple] = []
        self.n_cycles = 0
        self._cycles = self._used = None
        if len(sizes):
            self._parts.append(tuple(np.asarray(a, dtype=np.int64)
                                     for a in (verts, edges, sizes)))
            self.n_cycles = len(sizes)

    def add(self, cycle: Cycle) -> None:
        if len(cycle.vertices) != len(cycle.edges):
            raise GraphError("cycle must have as many vertices as edges")
        self.extend(VertexDisjointCycleSet(cycle.vertices, cycle.edges,
                                           [len(cycle.edges)]))

    def extend(self, other: "VertexDisjointCycleSet") -> None:
        if other.n_cycles:
            self._parts.append(other.arrays())
            self.n_cycles += other.n_cycles
            self._cycles = self._used = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(verts, edges, sizes), one concatenation of every part."""
        if len(self._parts) != 1:
            if not self._parts:
                return _EMPTY, _EMPTY, _EMPTY
            self._parts = [tuple(map(np.concatenate, zip(*self._parts)))]
        return self._parts[0]

    def first_vertices(self) -> np.ndarray:
        """Every cycle's first vertex."""
        verts, _, sizes = self.arrays()
        return verts[np.cumsum(sizes) - sizes]

    def take(self, order) -> "VertexDisjointCycleSet":
        """The set of cycles order[0], order[1], ... of this one."""
        verts, edges, sizes = self.arrays()
        pos, cnt = row_entries(np.concatenate(([0], np.cumsum(sizes))),
                               np.asarray(order, dtype=np.int64))
        return VertexDisjointCycleSet(verts[pos], edges[pos], cnt)

    @property
    def cycles(self) -> list[Cycle]:
        if self._cycles is None:
            verts, edges, sizes = self.arrays()
            self._cycles = [Cycle(edges=es, vertices=vs) for es, vs in zip(
                cut(edges.tolist(), sizes), cut(verts.tolist(), sizes))]
        return self._cycles

    @property
    def used_vertices(self) -> set[int]:
        if self._used is None:
            self._used = set(self.arrays()[0].tolist())
        return self._used

    @property
    def total_vertices(self) -> int:
        return len(self.arrays()[0])

    @property
    def total_edges(self) -> int:
        return len(self.arrays()[1])


_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def int64_codes(values: list) -> tuple[np.ndarray, list[int]]:
    """`values`, a list of ints, as int64, and the ids behind its negative
    codes. Past the int64 range, every value outside [0, 2^62) takes the
    code -1 - i, for the i-th of those values ascending (the second item,
    empty when no code was needed): equal values keep equal codes, and no
    code is an edge or vertex id."""
    try:
        return np.array(values, dtype=np.int64), []
    except OverflowError:
        odd = sorted({x for x in values if not 0 <= x < 1 << 62})
        code = {x: -1 - i for i, x in enumerate(odd)}
        return np.array([code.get(x, x) for x in values], dtype=np.int64), odd


@dataclass
class ReductionMap:
    h: MultiGraph
    origin_vertex: np.ndarray   # H vertex -> source vertex
    origin_edge: np.ndarray     # H edge -> source edge (bijection)


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
                        origin_vertex=np.repeat(np.arange(g.n_total), copies),
                        origin_edge=ids)


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

def naive_short_cycle(g: MultiGraph, vertices=None,
                      edges=None) -> VertexDisjointCycleSet:
    """Vertex-disjoint cycles of length <= 2 log2 n with total vertex count
    at least (m - 2n) / max_degree.

    Repeatedly peels degree <= 2 vertices, then runs BFS from the lowest
    alive vertex until the first non-tree edge closes a cycle; the cycle's
    vertices are removed and the process repeats until nothing is left.
    Does not modify `g`; it runs on the subgraph of `edges` (active edge
    ids in any order, default all active edges) with both ends in
    `vertices` (any order, repeats allowed). Each of its components
    yields the cycles it would alone: no BFS leaves it, and the peel's
    fixpoint does not depend on the order of removals.

    So every component takes its next step in the same array pass. The
    peel runs to its fixpoint in rounds; one layer-synchronous BFS runs
    from each component's lowest live vertex to its first non-tree edge;
    one lockstep climb builds every tree path (`tree_paths`). The
    cycles are listed by (root, step), the order of a sweep that always
    steps from the lowest live vertex of all, since a root only rises.
    A step costs in proportion to its frontiers and the rows it kills,
    plus some tens of numpy calls, so one large component, which takes
    one step per cycle, pays more per cycle than many small ones.

    Returns the cycles as the flat arrays the steps built, gathered into
    that order: no Cycle is built until the result's `cycles` is read.
    """
    out = VertexDisjointCycleSet()
    if vertices is None:
        vs = np.flatnonzero(np.frombuffer(g.vactive, dtype=np.uint8))
    else:
        vs = np.zeros(g.n_total, dtype=bool)
        vs[np.asarray(vertices, dtype=np.int64)] = True
        vs = np.flatnonzero(vs)
    n = len(vs)
    if n == 0:
        return out
    # One CSR over the slots of vs, cut from g's rows: each row lists the
    # edges inside, ascending, a loop once, with the far end's slot.
    slot = np.full(g.n_total, -1, dtype=np.int64)
    slot[vs] = np.arange(n)
    starts, tails, eids = flat_adjacency_np(g)
    pos, cnt = row_entries(starts, vs)
    far = slot[tails[pos]]
    keep = far >= 0
    if edges is not None:
        inside = np.zeros(g.m_total, dtype=bool)
        inside[np.asarray(edges, dtype=np.int64)] = True
        keep &= inside[eids[pos]]
    head = np.repeat(np.arange(n), cnt)[keep]
    tails, eids = far[keep], eids[pos[keep]]
    row = np.bincount(head, minlength=n)
    starts = np.concatenate(([0], np.cumsum(row)))
    deg = row + np.bincount(head[tails == head], minlength=n)  # loops twice
    # Component c, numbered by lowest slot, has the slots members[
    # cstart[c]:cstart[c+1]], ascending; members[ptr[c]] is its root, its
    # lowest live slot, once advanced.
    half = head < tails      # each edge once; loops join nothing
    lab = label_components(n, head[half], tails[half])
    cid = (np.cumsum(lab == np.arange(n)) - 1)[lab]
    members = np.argsort(cid, kind="stable")
    cstart = np.concatenate(([0], np.cumsum(np.bincount(cid))))
    ptr = cstart[:-1].copy()
    root = np.empty(len(ptr), dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    # BFS scratch; each step resets the entries it touched.
    depth = np.full(n, -1, dtype=np.int64)
    parent = np.empty(n, dtype=np.int64)
    pedge = np.empty(n, dtype=np.int64)
    first = np.full(n, _NONE)            # per slot: first entry in a layer
    stamp = np.empty(n, dtype=np.int64)
    jstar = np.full(len(ptr), _NONE)     # per component: its closing entry
    found_in = np.zeros(len(ptr), dtype=bool)

    def kill(x):
        """Kill the distinct live slots x, lowering each live neighbour's
        degree once per row entry; returns those now at 2 or less, with
        repeats."""
        alive[x] = False
        w = tails[row_entries(starts, x)[0]]
        w = w[alive[w]]
        np.subtract.at(deg, w, 1)
        return w[deg[w] <= 2]

    def first_cycles(frontier, comps):
        """BFS a layer at a time from the roots `frontier` of the
        components `comps`, each up to its component's first non-tree
        entry. A layer reads the live entries of its frontier in
        (frontier order, row order), but for each vertex's parent-edge
        entry. Entry j closes a cycle if its far end was reached in an
        earlier layer (the vertex itself, for a loop) or first appears in
        this layer before j; only the discoveries before a component's
        first such entry count, and its search ends there. Returns the
        closing entries' (v, w, e, comp), the components whose search
        ran dry, and the slots reached. A root is its own parent."""
        depth[frontier] = 0
        parent[frontier] = frontier
        pedge[frontier] = -1
        reached, found, d = [frontier], [], 0
        while len(frontier):
            pos, cnt = row_entries(starts, frontier)
            src = frontier.repeat(cnt)
            w, e = tails[pos], eids[pos]
            ok = (alive[w] & (e != pedge[src])).nonzero()[0]
            src, w, e = src[ok], w[ok], e[ok]
            j = np.arange(len(w))
            np.minimum.at(first, w, j)
            closing = ((depth[w] >= 0) | (first[w] < j)).nonzero()[0]
            first[w] = _NONE
            d += 1
            if len(closing):
                c = cid[src]
                np.minimum.at(jstar, c[closing], closing)
                end = jstar[c]
                hit = closing[end[closing] == closing]
                jstar[c[hit]] = _NONE
                found.append((src[hit], w[hit], e[hit], c[hit]))
                # A component's entries before its closing one discover.
                new = (j < end).nonzero()[0]
                src, w, e, end = src[new], w[new], e[new], end[new]
                frontier = w[end == _NONE]
            else:
                frontier = w
            depth[w] = d
            parent[w] = src
            pedge[w] = e
            reached.append(w)
        v, w, e, comp = ([np.concatenate(x) for x in zip(*found)] if found
                         else [comps[:0]] * 4)
        lost = comps[:0]
        if len(comp) < len(comps):
            found_in[comp] = True
            lost = comps[~found_in[comps]]
            found_in[comp] = False
        return v, w, e, comp, lost, np.concatenate(reached)

    keys, cyc_v, cyc_e, cyc_len = [], [], [], []
    act = np.arange(len(ptr))
    cand = (deg <= 2).nonzero()[0]
    while True:
        while len(cand):   # peel rounds up to the fixpoint
            idx = np.arange(len(cand))
            stamp[cand] = idx
            cand = kill(cand[stamp[cand] == idx])   # each slot once
        act = _advance(members, cstart[1:], ptr, alive, act)
        if not len(act):
            break
        root[act] = r = members[ptr[act]]
        v, w, e, comp, lost, reached = first_cycles(r, act)
        verts, edges, length = tree_paths(parent, pedge, depth, v, w, e)
        depth[reached] = -1
        keys.append(root[comp])
        cyc_v.append(verts)
        cyc_e.append(edges)
        cyc_len.append(length)
        # A cycle dies whole, so its kill lowers only outside degrees; a
        # search that ran dry kills its root.
        cand = kill(np.concatenate((verts, root[lost])))
    if not keys:
        return out
    out = VertexDisjointCycleSet(vs[np.concatenate(cyc_v)],
                                 np.concatenate(cyc_e),
                                 np.concatenate(cyc_len))
    # A stable sort by root keeps each root's cycles in step order.
    return out.take(np.argsort(np.concatenate(keys), kind="stable"))


_NONE = np.iinfo(np.int64).max


def _advance(members, cend, ptr, alive, act) -> np.ndarray:
    """Move ptr[c] of every component c in `act` to the first live slot of
    members[ptr[c]:cend[c]], reading windows that double; returns the
    components that have one."""
    dead = act[~alive[members[ptr[act]]]]
    if not len(dead):
        return act
    width = 8
    while True:
        last = cend[dead] - 1
        keep = ptr[dead] < last         # the others have no live slot
        dead, last = dead[keep], last[keep]
        if not len(dead):
            break
        at = np.minimum(ptr[dead, None] + np.arange(1, width + 1),
                        last[:, None])
        ok = alive[members[at]]
        ok[:, -1] = True                # the window's end when none lives
        ptr[dead] = at[np.arange(len(dead)), ok.argmax(axis=1)]
        dead = dead[~alive[members[ptr[dead]]]]
        width *= 2
    return act[alive[members[ptr[act]]]]


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
                        and len(thr) != len(ldd.member_starts) - 1):
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
    covered.

    H's cycles are read as arrays, every H-edge is oriented in one pass,
    and one `tree_paths` call walks every part's path, entry to exit,
    followed by the H-edge's source edge. Returns the lifted cycles as
    arrays, in the order of H's: no Cycle is built."""
    hv, he, size = cycles_h.arrays()
    part = np.asarray(part)
    src = np.asarray(f)[he]
    # Walk j runs inside part hv[j], from where H-edge prev[j], the one
    # before j on its cycle, arrives (y[0]) to where j leaves (y[1]).
    ends = np.cumsum(size)
    starts = ends - size
    prev = np.arange(-1, len(hv) - 1)
    prev[starts] = ends - 1
    gu = np.frombuffer(g.eu, dtype=np.int32)[src]
    gv = np.frombuffer(g.ev, dtype=np.int32)[src]
    fwd = part[gu] == hv
    y = np.array((np.where(fwd, gv, gu)[prev], np.where(fwd, gu, gv)))
    ok = part[y] == hv
    if not ok.all():
        j = int(ok.all(axis=0).argmin())
        raise GraphError(f"edges {src[prev[j]]} and {src[j]} do not both "
                         f"reach part {hv[j]}")
    verts, edges, lens = tree_paths(parent, edge, depth, y[0], y[1], src)
    return VertexDisjointCycleSet(verts, edges, np.add.reduceat(lens, starts))


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
    closed Euler tour per component. One BFS runs from every component's
    lowest vertex that has an edge; deletions are batched; traversal runs
    over a flat adjacency snapshot in incidence order."""
    n_total = out.n_total
    act = np.frombuffer(out.eactive, dtype=bool)
    lab = label_components(n_total, np.frombuffer(out.eu, dtype=np.int32)[act],
                           np.frombuffer(out.ev, dtype=np.int32)[act])
    sums = np.frombuffer(out.deg, dtype=np.int32).astype(np.int64)
    roots = np.flatnonzero((lab == np.arange(n_total)) & (sums > 0))
    # No two roots share a component, so one label serves every tree.
    o, pv, pe, layers = bfs_forest(flat_adjacency_np(out), roots,
                                   np.zeros(n_total, dtype=np.int8))
    # Bottom-up removal of the parent edge at every odd vertex drops
    # exactly the parent edges of odd degree-sum subtrees; the sums are
    # accumulated a layer at a time, deepest first.
    for a, b in zip(layers[-2:0:-1], layers[:1:-1]):
        np.add.at(sums, pv[a:b], sums[o[a:b]])
    out.delete_edges(pe[layers[1]:][(sums[o[layers[1]:]] & 1) == 1])
    drop = []
    for tour in euler_tours(flat_adjacency_np(out)):
        drop.extend(tour[::2])   # its 1st, 3rd, ... edge
    out.delete_edges(drop)
