"""Standalone subroutines of the decomposition pipeline.

Each routine is a pure function of its inputs: callers pass graphs they
own; routines that need to delete work on internal scratch state or on a
tombstoned copy, never on the caller's graph.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .graph import (ContractionMap, GraphError, MultiGraph, SpanningTree,
                    bfs_tree_np, flat_adjacency_np, tree_path)


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
class LabeledTree:
    tree: SpanningTree
    labels: dict[int, int]
    label_cap: int    # X: labels lie in [0, X]
    max_deg: int      # D: max degree of the tree


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
    """Private adjacency mirror used by naive_short_cycle."""

    __slots__ = ("adj", "deg", "alive")

    def __init__(self, g: MultiGraph, vertices):
        self.adj: dict[int, list[tuple[int, int]]] = {}
        self.deg: dict[int, int] = {}
        self.alive: set[int] = set()
        member = set(vertices)
        for v in vertices:
            self.adj[v] = []
            self.deg[v] = 0
            self.alive.add(v)
        ea = g.eactive
        for v in vertices:
            for e in g.incident(v):
                u, w = g.eu[e], g.ev[e]
                if u == w:
                    if v == u:
                        self.adj[v].append((e, v))
                        self.deg[v] += 2
                else:
                    o = w if u == v else u
                    if o in member:
                        self.adj[v].append((e, o))
                        self.deg[v] += 1

    def remove_vertex(self, v: int) -> None:
        self.alive.discard(v)
        for e, w in self.adj[v]:
            if w != v and w in self.alive:
                self.adj[w] = [(e2, x) for (e2, x) in self.adj[w] if e2 != e]
                self.deg[w] -= 1
        self.adj[v] = []
        self.deg[v] = 0


def naive_short_cycle(g: MultiGraph, vertices=None) -> VertexDisjointCycleSet:
    """Vertex-disjoint cycles of length <= 2 log2 n with total vertex count
    at least (m - 2n) / max_degree.

    Repeatedly peels degree <= 2 vertices, then runs BFS from the lowest
    alive vertex until the first non-tree edge closes a cycle; the cycle's
    vertices are removed and the process repeats until nothing is left.
    Does not modify `g`; `vertices` restricts the routine to an induced
    subgraph.
    """
    if vertices is None:
        vertices = g.active_vertices()
    out = VertexDisjointCycleSet()
    if not vertices:
        return out
    s = _Scratch(g, vertices)
    peel = [v for v in vertices if s.deg[v] <= 2]
    while s.alive:
        while peel:
            v = peel.pop()
            if v not in s.alive:
                continue
            nbrs = [w for (_, w) in s.adj[v] if w != v and w in s.alive]
            s.remove_vertex(v)
            for w in nbrs:
                if w in s.alive and s.deg[w] <= 2:
                    peel.append(w)
        if not s.alive:
            break
        root = min(s.alive)
        cycle = _bfs_first_cycle(s, root)
        if cycle is None:  # cannot happen at min degree >= 3; guard anyway
            s.remove_vertex(root)
            continue
        out.add(cycle)
        touched = set()
        for v in cycle.vertices:
            for _, w in s.adj[v]:
                if w not in cycle.vertices:
                    touched.add(w)
        for v in cycle.vertices:
            s.remove_vertex(v)
        for w in touched:
            if w in s.alive and s.deg[w] <= 2:
                peel.append(w)
    return out


def _bfs_first_cycle(s: _Scratch, root: int) -> Cycle | None:
    parent: dict[int, tuple[int, int]] = {}
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            pe = parent[v][1] if v in parent else -1
            skipped_parent = False
            for e, w in s.adj[v]:
                if e == pe and not skipped_parent:
                    skipped_parent = True
                    continue
                if w in depth:
                    return _close_cycle(parent, depth, v, w, e)
                depth[w] = depth[v] + 1
                parent[w] = (v, e)
                nxt.append(w)
        frontier = nxt
    return None


def _close_cycle(parent, depth, v, w, e) -> Cycle:
    if v == w:  # self-loop
        return Cycle(edges=[e], vertices=[v])
    pv, ev_, pw, ew_ = [], [], [], []
    a, b = v, w
    da, db = depth[a], depth[b]
    while da > db:
        p, pe = parent[a]
        pv.append(a)
        ev_.append(pe)
        a, da = p, da - 1
    while db > da:
        p, pe = parent[b]
        pw.append(b)
        ew_.append(pe)
        b, db = p, db - 1
    while a != b:
        pa, ea_ = parent[a]
        pb, eb_ = parent[b]
        pv.append(a)
        ev_.append(ea_)
        pw.append(b)
        ew_.append(eb_)
        a, b = pa, pb
    # v .. lca .. w, closed by e back to v
    verts = pv + [a] + pw[::-1]
    edges = ev_ + ew_[::-1] + [e]
    return Cycle(edges=edges, vertices=verts)


# ---------------------------------------------------------------------------
# TreeSplit: partition a labeled tree into subtrees with bounded label sums.

def tree_split(t: LabeledTree, threshold: int) -> list[list[int]]:
    """Partition the tree into connected subtrees whose label sums lie in
    [threshold, D*threshold + X].

    Re-roots at a leaf, accumulates label sums bottom-up, and cuts the
    parent edge whenever the accumulated sum reaches the threshold; a
    leftover root component below threshold is merged into a component
    adjacent across a cut edge.
    """
    labels = t.labels
    total = sum(labels[v] for v in t.tree.covered)
    if threshold < 1:
        raise GraphError("threshold must be positive")
    if total < threshold:
        raise GraphError(f"label sum {total} below threshold {threshold}")
    verts = list(t.tree.order)
    if len(verts) == 1:
        return [verts]
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for v, (p, _) in t.tree.parent.items():
        adj[v].append(p)
        adj[p].append(v)
    root = next(v for v in verts if len(adj[v]) == 1)
    # Iterative post-order from the leaf root.
    par: dict[int, int] = {root: -1}
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if w not in par:
                par[w] = v
                stack.append(w)
    extra = dict(labels)
    cut: set[int] = set()   # vertices cut from their parent
    for v in reversed(order):
        p = par[v]
        if p == -1:
            continue
        if extra[v] >= threshold:
            cut.add(v)
        else:
            extra[p] += extra[v]
    # Components of the forest left after the cuts.
    comp = {v: -1 for v in verts}
    comps: list[list[int]] = []
    for v in order:
        if comp[v] != -1:
            continue
        cid = len(comps)
        comps.append([])
        stack = [v]
        comp[v] = cid
        while stack:
            x = stack.pop()
            comps[cid].append(x)
            for w in adj[x]:
                if comp[w] == -1 and not (w in cut and par[w] == x) \
                        and not (x in cut and par[x] == w):
                    comp[w] = cid
                    stack.append(w)
    root_cid = comp[root]
    root_sum = sum(labels[v] for v in comps[root_cid])
    if root_sum < threshold:
        # Merge the leftover root component across the shallowest cut edge.
        target = None
        for v in order:
            if v in cut and comp[par[v]] == root_cid:
                target = comp[v]
                break
        if target is None:
            raise GraphError("no cut adjacent to root component "
                             "(internal error)")
        comps[target].extend(comps[root_cid])
        comps.pop(root_cid)
    return comps


# ---------------------------------------------------------------------------
# PullUp: lift vertex-disjoint cycles of a contracted graph to the source.

def pull_up(cm: ContractionMap, trees: list[SpanningTree],
            cycles_h: VertexDisjointCycleSet) -> VertexDisjointCycleSet:
    """Lift cycles on the contracted graph H back to the source graph.

    Each H-edge of a cycle maps through the injection f to a source edge;
    consecutive images are joined by the unique path inside the part's
    spanning tree. Output cycles are vertex-disjoint and cover at least
    one source vertex per H-vertex covered.
    """
    g = cm.source
    part_of = cm.part_of
    out = VertexDisjointCycleSet()
    for hc in cycles_h.cycles:
        k = len(hc.edges)
        # exits[i]: source vertex where the cycle leaves part hc.vertices[i]
        # along the image of hc.edges[i]; entries[i]: where it arrived.
        exits = [0] * k
        entries = [0] * k
        for i in range(k):
            e = cm.f[hc.edges[i]]
            pu = hc.vertices[i]
            pv = hc.vertices[(i + 1) % k]
            gu, gv = g.endpoints(e)
            if part_of[gu] == pu and part_of[gv] == pv:
                a, b = gu, gv
            elif part_of[gv] == pu and part_of[gu] == pv:
                a, b = gv, gu
            else:
                raise GraphError(f"edge {e} endpoints not in parts "
                                 f"{pu}, {pv}")
            exits[i] = a
            entries[(i + 1) % k] = b
        verts: list[int] = []
        edges: list[int] = []
        for i in range(k):
            pv_, pe_ = tree_path(trees[hc.vertices[i]], entries[i], exits[i])
            verts.extend(pv_)
            edges.extend(pe_)
            edges.append(cm.f[hc.edges[i]])
        out.add(Cycle(edges=edges, vertices=verts))
    return out


# ---------------------------------------------------------------------------
# Sparsify: halve edges via parity fix + Euler-tour deletion, then trim.

def euler_tour(g: MultiGraph, component: list[int],
               _used: bytearray | None = None,
               _cursor=None) -> list[int]:
    """Closed Euler tour (edge ids) of a connected all-even-degree component,
    by Hierholzer's method over incidence cursors.

    `_used` and `_cursor` are optional shared scratch buffers (edge marks
    and an all-zero per-vertex cursor array); a caller touring many
    components of one graph may pass the same buffers to every call.
    `_cursor` is re-zeroed before returning.
    """
    start = None
    for v in component:
        if g.degree(v) > 0:
            start = v
            break
    if start is None:
        return []
    cursor = {v: 0 for v in component} if _cursor is None else _cursor
    used = bytearray(g.m_total) if _used is None else _used
    stack_v = [start]
    stack_e: list[int] = []
    tour: list[int] = []
    ea = g.eactive
    while stack_v:
        v = stack_v[-1]
        lst = g.inc[v]
        i = cursor[v]
        advanced = False
        while i < len(lst):
            e = lst[i]
            if ea[e] and not used[e]:
                used[e] = 1
                cursor[v] = i + 1
                stack_v.append(g.other_end(e, v))
                stack_e.append(e)
                advanced = True
                break
            i += 1
        if not advanced:
            cursor[v] = i
            stack_v.pop()
            if stack_e:
                tour.append(stack_e.pop())
    tour.reverse()
    if _cursor is not None:
        for v in component:
            _cursor[v] = 0
    return tour


def sparsify(g: MultiGraph, k: int) -> MultiGraph:
    """Subgraph with exactly k edges and max degree <= (2k + 4n) * D / m.

    Repeats rounds of: per-component spanning tree, bottom-up removal of
    the parent edge at every odd-degree vertex, then an Euler tour per
    component deleting every other edge starting from the first -- until
    fewer than 2k + 2n edges remain. Finally trims highest edge ids down
    to exactly k. Returns a tombstoned copy; edge ids are preserved.
    """
    m = g.m_active
    n = g.n_active
    if not (1 <= k <= m):
        raise GraphError(f"sparsify needs 1 <= k <= m, got k={k} m={m}")
    out = g.copy()
    while out.m_active >= 2 * k + 2 * n:
        _halving_round(out)
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
    starts, tails, eids = adj_np = flat_adjacency_np(out)
    visited = np.zeros(n_total, dtype=bool)
    pos = np.empty(n_total, dtype=np.int64)
    drop: list[int] = []
    for s in range(n_total):
        if not va[s] or deg[s] == 0 or visited[s]:
            continue
        o, pv, pe, layers = bfs_tree_np(adj_np, s, n_total, visited=visited)
        # Bottom-up removal of the parent edge at every odd vertex drops
        # exactly the parent edges of odd degree-sum subtrees; the sums
        # are accumulated a layer at a time, deepest first.
        pos[o] = np.arange(len(o))
        up = pos[pv]
        sums = np.frombuffer(deg, dtype=np.int32)[o].astype(np.int64)
        for a, b in zip(layers[-2:0:-1], layers[:1:-1]):
            np.add.at(sums, up[a - 1:b - 1], sums[a:b])
        drop.extend(pe[(sums[1:] & 1) == 1].tolist())
    out.delete_edges(drop)
    # The snapshot minus the dropped entries is out's own snapshot; flat
    # int arrays keep the tour's random row visits cache-friendly.
    keep = np.frombuffer(out.eactive, dtype=np.uint8)[eids] != 0
    rows = np.repeat(np.arange(n_total), np.diff(starts))[keep]
    starts = np.concatenate(([0], np.cumsum(
        np.bincount(rows, minlength=n_total)))).tolist()
    tails, eids = (array("i", a[keep].tobytes()) for a in (tails, eids))
    used = bytearray(out.m_total)
    # Each row is scanned once, in order, across every visit of its vertex.
    scan = [iter(range(starts[v], starts[v + 1])) for v in range(n_total)]
    drop = []
    for s in range(n_total):
        if not va[s] or deg[s] == 0:
            continue
        # Hierholzer from s; a no-op when s's component is already toured.
        # Walk unused edges from the top vertex until stuck, then pop one.
        stack_v = [s]
        stack_e: list[int] = []
        tour: list[int] = []
        while stack_v:
            v = stack_v[-1]
            while True:
                for i in scan[v]:
                    e = eids[i]
                    if not used[e]:
                        break
                else:
                    break
                used[e] = 1
                v = tails[i]
                stack_v.append(v)
                stack_e.append(e)
            stack_v.pop()
            if stack_e:
                tour.append(stack_e.pop())
        # The tour is the pop order reversed; drop its 1st, 3rd, ... edge.
        drop.extend(tour[-1::-2])
    out.delete_edges(drop)
