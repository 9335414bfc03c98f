"""Undirected multigraph with stable ids, BFS trees, and contraction."""
from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np


class GraphError(Exception):
    pass


class MultiGraph:
    """Undirected multigraph with dense integer vertex and edge ids.

    Parallel edges and self-loops are allowed; a self-loop contributes 2 to
    the degree of its endpoint. Deletion is by tombstone: ids stay valid
    forever, the entity is only marked inactive. Incidence lists are
    append-ordered and pruned lazily; `incident` yields only active edges.
    """

    __slots__ = ("eu", "ev", "eactive", "vactive", "inc", "deg",
                 "n_active", "m_active")

    def __init__(self, n: int = 0):
        self.eu = array("i")
        self.ev = array("i")
        self.eactive = bytearray()
        self.vactive = bytearray([1]) * n
        self.inc: list[array] = [array("i") for _ in range(n)]
        self.deg = array("i", bytes(4 * n))
        self.n_active = n
        self.m_active = 0

    # -- construction ------------------------------------------------------

    @property
    def n_total(self) -> int:
        return len(self.vactive)

    @property
    def m_total(self) -> int:
        return len(self.eu)

    def add_vertex(self) -> int:
        v = len(self.vactive)
        self.vactive.append(1)
        self.inc.append(array("i"))
        self.deg.append(0)
        self.n_active += 1
        return v

    def add_vertices(self, count: int) -> None:
        if count <= 0:
            return
        self.vactive.extend(b"\x01" * count)
        self.inc.extend(array("i") for _ in range(count))
        self.deg.frombytes(bytes(4 * count))
        self.n_active += count

    def add_edge(self, u: int, v: int) -> int:
        if not (self.vactive[u] and self.vactive[v]):
            raise GraphError(f"edge endpoint inactive: {u}-{v}")
        e = len(self.eu)
        self.eu.append(u)
        self.ev.append(v)
        self.eactive.append(1)
        self.inc[u].append(e)
        if u != v:
            self.inc[v].append(e)
        self.deg[u] += 2 if u == v else 1
        if u != v:
            self.deg[v] += 1
        self.m_active += 1
        return e

    @classmethod
    def from_edges(cls, n: int, eu, ev, vactive=None) -> "MultiGraph":
        """Graph on n vertex slots whose edge i joins eu[i] and ev[i] (int
        arrays), the same as add_edge in id order. `vactive` (one byte per
        slot, default all active) must mark every endpoint active."""
        eu = np.asarray(eu, dtype=np.int32)
        ev = np.asarray(ev, dtype=np.int32)
        m = len(eu)
        g = cls.__new__(cls)
        g.eu = array("i", eu.tobytes())
        g.ev = array("i", ev.tobytes())
        g.eactive = bytearray(b"\x01") * m
        g.vactive = (bytearray(b"\x01") * n if vactive is None
                     else bytearray(vactive))
        g.n_active = g.vactive.count(1)
        g.m_active = m
        deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
        g.deg = array("i", deg.astype(np.int32).tobytes())
        # Incidence lists: every edge under both endpoints (loops once),
        # ascending edge id within each vertex.
        ids = np.arange(m, dtype=np.int32)
        nonloop = eu != ev
        keys = np.concatenate([eu, ev[nonloop]])
        vals = np.concatenate([ids, ids[nonloop]])
        vals = vals[np.argsort(keys.astype(np.int64) * m + vals)]
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(keys, minlength=n)))).tolist()
        g.inc = [array("i", vals[bounds[v]:bounds[v + 1]].tobytes())
                 for v in range(n)]
        return g

    def copy(self) -> "MultiGraph":
        g = MultiGraph.__new__(MultiGraph)
        g.eu = array("i", self.eu)
        g.ev = array("i", self.ev)
        g.eactive = bytearray(self.eactive)
        g.vactive = bytearray(self.vactive)
        g.inc = [array("i", l) for l in self.inc]
        g.deg = array("i", self.deg)
        g.n_active = self.n_active
        g.m_active = self.m_active
        return g

    # -- deletion ----------------------------------------------------------

    def delete_edge(self, e: int) -> None:
        if not self.eactive[e]:
            raise GraphError(f"edge {e} already deleted")
        self.eactive[e] = 0
        u, v = self.eu[e], self.ev[e]
        self.deg[u] -= 2 if u == v else 1
        if u != v:
            self.deg[v] -= 1
        self.m_active -= 1

    def delete_edges(self, edge_ids) -> None:
        """Delete many distinct active edges; equivalent to delete_edge on
        each id, with vectorized bookkeeping."""
        ids = np.asarray(edge_ids, dtype=np.int64)
        ea = np.frombuffer(self.eactive, dtype=np.uint8)
        if not ea[ids].all():
            raise GraphError("edge in batch already deleted")
        ea[ids] = 0
        eu = np.frombuffer(self.eu, dtype=np.int32)
        ev = np.frombuffer(self.ev, dtype=np.int32)
        n = self.n_total
        dec = (np.bincount(eu[ids], minlength=n)
               + np.bincount(ev[ids], minlength=n))
        deg = np.frombuffer(self.deg, dtype=np.int32)
        deg -= dec.astype(np.int32)
        self.m_active -= len(ids)

    def delete_vertex(self, v: int) -> None:
        if not self.vactive[v]:
            raise GraphError(f"vertex {v} already deleted")
        ea = self.eactive
        for e in self.inc[v]:
            if ea[e]:
                self.delete_edge(e)
        self.inc[v] = array("i")
        self.vactive[v] = 0
        self.n_active -= 1

    # -- queries -----------------------------------------------------------

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.eu[e], self.ev[e]

    def other_end(self, e: int, v: int) -> int:
        u = self.eu[e]
        return self.ev[e] if u == v else u

    def is_loop(self, e: int) -> bool:
        return self.eu[e] == self.ev[e]

    def incident(self, v: int) -> list[int]:
        """Active edge ids touching v, in append order (loops listed once)."""
        lst = self.inc[v]
        ea = self.eactive
        out = [e for e in lst if ea[e]]
        if len(out) * 2 < len(lst):  # prune tombstones once they dominate
            self.inc[v] = array("i", out)
        return out

    def degree(self, v: int) -> int:
        return self.deg[v]

    def max_degree(self) -> int:
        va = self.vactive
        return max((d for v, d in enumerate(self.deg) if va[v]), default=0)

    def active_vertices(self) -> list[int]:
        va = self.vactive
        return [v for v in range(len(va)) if va[v]]

    def active_edges(self) -> list[int]:
        ea = self.eactive
        return [e for e in range(len(ea)) if ea[e]]

    def compact(self) -> tuple["MultiGraph", list[int], list[int]]:
        """Fresh graph without tombstones.

        Returns (graph, vertex_map, edge_map) where the maps send new ids
        back to ids in this graph.
        """
        vmap = self.active_vertices()
        vinv = {v: i for i, v in enumerate(vmap)}
        g = MultiGraph(len(vmap))
        emap = []
        for e in self.active_edges():
            g.add_edge(vinv[self.eu[e]], vinv[self.ev[e]])
            emap.append(e)
        return g, vmap, emap


@dataclass
class SpanningTree:
    """Rooted tree from a BFS; parent maps a vertex to (parent, edge id)."""
    root: int
    parent: dict[int, tuple[int, int]]
    depth: dict[int, int]
    order: list[int]  # BFS discovery order, root first

    @property
    def covered(self):
        return self.depth.keys()

    def max_depth(self) -> int:
        return max(self.depth.values())

    def tree_edges(self) -> list[int]:
        return [e for (_, e) in self.parent.values()]


def flat_adjacency_np(g: MultiGraph):
    """Adjacency over active edges as numpy arrays (starts, tails, eids).

    Vertex v's entries occupy [starts[v], starts[v+1]) with ascending edge
    ids, matching incidence-list order; loops appear once. A snapshot:
    deletions after the call are not reflected.
    """
    n = g.n_total
    if g.m_total == 0:
        return (np.zeros(n + 1, dtype=np.int64),
                np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32))
    # The incidence lists, concatenated, are already in (vertex, id) order;
    # only the deleted edges they still hold are dropped.
    eids = np.frombuffer(b"".join(map(bytes, g.inc)), dtype=np.int32)
    heads = np.repeat(np.arange(n, dtype=np.int32),
                      np.fromiter(map(len, g.inc), dtype=np.int64, count=n))
    keep = np.frombuffer(g.eactive, dtype=np.uint8)[eids] != 0
    eids, heads = eids[keep], heads[keep]
    eu = np.frombuffer(g.eu, dtype=np.int32)
    ev = np.frombuffer(g.ev, dtype=np.int32)
    tails = eu[eids] ^ ev[eids] ^ heads   # the other end; a loop's own
    starts = np.concatenate(
        ([0], np.cumsum(np.bincount(heads, minlength=n))))
    return starts, tails, eids


def _gather_rows(starts, tails, eids, frontier):
    """All adjacency entries of `frontier`, concatenated in (frontier
    order, row order): returns (sources, neighbor, edge) arrays."""
    cnt = starts[frontier + 1] - starts[frontier]
    total = int(cnt.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e, e
    base = np.repeat(starts[frontier], cnt)
    pos = base + np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return np.repeat(frontier, cnt), tails[pos], eids[pos]


def bfs_tree_np(adj_np, root: int, n_total: int, visited=None):
    """Layer-at-a-time BFS over a flat adjacency snapshot.

    Returns (order, par_v, par_e, layer_starts): discovery order with the
    root first, each non-root vertex's parent and parent edge aligned with
    order[1:], and the order offsets where each depth layer begins. The
    discovery order and parents match a scalar BFS that scans incidence
    rows in ascending edge-id order. A caller traversing many
    components of one graph may pass a shared boolean `visited` array; it
    is not reset.
    """
    if visited is None:
        visited = np.zeros(n_total, dtype=bool)
    visited[root] = True
    frontier = np.array([root], dtype=np.int64)
    starts, tails, eids = adj_np
    order = [frontier]
    par_v = []
    par_e = []
    layer_starts = [0, 1]
    while True:
        src, w, pe = _gather_rows(starts, tails, eids, frontier)
        if len(w):
            ok = ~visited[w]
            src, w, pe = src[ok], w[ok], pe[ok]
        if not len(w):
            break
        # Keep each vertex's first discovery, in discovery order.
        _, first = np.unique(w, return_index=True)
        first.sort()
        w = w[first]
        visited[w] = True
        order.append(w)
        par_v.append(src[first])
        par_e.append(pe[first])
        layer_starts.append(layer_starts[-1] + len(w))
        frontier = w
    order = np.concatenate(order)
    empty = np.empty(0, dtype=np.int64)
    par_v = np.concatenate(par_v) if par_v else empty
    par_e = np.concatenate(par_e) if par_e else empty
    return order, par_v, par_e, layer_starts


def connected_components(g: MultiGraph) -> list[list[int]]:
    """Maximal connected sets of active vertices, each in BFS order."""
    seen = bytearray(g.n_total)
    va = g.vactive
    ea = g.eactive
    eu, ev = g.eu, g.ev
    comps = []
    for s in range(g.n_total):
        if not va[s] or seen[s]:
            continue
        seen[s] = 1
        comp = [s]
        head = 0
        while head < len(comp):
            v = comp[head]
            head += 1
            for e in g.inc[v]:
                if not ea[e]:
                    continue
                w = ev[e] if eu[e] == v else eu[e]
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
        comps.append(comp)
    return comps


def bfs_spanning_tree(g: MultiGraph, component, root: int) -> SpanningTree:
    """BFS tree of `component` rooted at `root`, using only edges internal
    to the component. Ties broken by incidence order, so the tree is
    deterministic for a fixed graph. Pass component=None when the root's
    whole connected component is meant; the membership test is skipped.
    A bytearray component is read as a per-vertex membership mark.
    """
    if component is None:
        member = None
    elif isinstance(component, bytearray):
        member = component
        if not member[root]:
            raise GraphError(f"root {root} not in component")
    else:
        member = bytearray(g.n_total)
        found = False
        for v in component:
            member[v] = 1
            found = found or v == root
        if not found:
            raise GraphError(f"root {root} not in component")
    parent: dict[int, tuple[int, int]] = {}
    depth = {root: 0}
    order = [root]
    head = 0
    ea = g.eactive
    eu, ev = g.eu, g.ev
    while head < len(order):
        v = order[head]
        head += 1
        dv = depth[v]
        for e in g.inc[v]:
            if not ea[e]:
                continue
            w = ev[e] if eu[e] == v else eu[e]
            if w in depth or (member is not None and not member[w]):
                continue
            depth[w] = dv + 1
            parent[w] = (v, e)
            order.append(w)
    return SpanningTree(root=root, parent=parent, depth=depth, order=order)


def tree_path(t: SpanningTree, u: int, v: int) -> tuple[list[int], list[int]]:
    """Unique path u -> v along tree edges, meeting at the LCA.

    Returns (vertices, edges) with vertices[0] == u, vertices[-1] == v and
    len(vertices) == len(edges) + 1. Empty edge list when u == v.
    """
    if u not in t.depth or v not in t.depth:
        missing = u if u not in t.depth else v
        raise GraphError(f"vertex {missing} not covered by tree")
    up_v: list[int] = []      # vertices u ... lca (exclusive of lca)
    up_e: list[int] = []
    dn_v: list[int] = []      # vertices v ... lca (exclusive of lca)
    dn_e: list[int] = []
    du, dv = t.depth[u], t.depth[v]
    a, b = u, v
    while du > dv:
        p, e = t.parent[a]
        up_v.append(a)
        up_e.append(e)
        a, du = p, du - 1
    while dv > du:
        p, e = t.parent[b]
        dn_v.append(b)
        dn_e.append(e)
        b, dv = p, dv - 1
    while a != b:
        pa, ea_ = t.parent[a]
        pb, eb_ = t.parent[b]
        up_v.append(a)
        up_e.append(ea_)
        dn_v.append(b)
        dn_e.append(eb_)
        a, b = pa, pb
    verts = up_v + [a] + dn_v[::-1]
    edges = up_e + dn_e[::-1]
    return verts, edges


@dataclass
class ContractionMap:
    """Result of contracting disjoint vertex parts of a graph.

    `h` has one vertex per part; `f[h_edge]` is the originating edge id in
    the source graph. Edges of the source with an endpoint outside all
    parts are skipped and counted in `outside_edges`.
    """
    parts: list[list[int]]
    part_of: list[int]          # source vertex -> part index, -1 if none
    h: MultiGraph
    f: list[int]
    source: MultiGraph
    excluded: int
    outside_edges: int


def contract(g: MultiGraph, parts: list[list[int]], exclude,
             strict: bool = False, edges=None) -> ContractionMap:
    """Contract each part to a single vertex.

    Every active edge not in `exclude` whose endpoints both lie in parts
    becomes one edge of H (a self-loop when both endpoints share a part),
    and f maps it back to its source edge. With strict=True an endpoint
    outside all parts raises instead of being skipped. `edges` restricts
    the scan to a candidate edge list (each id considered once, ascending).
    """
    part_of = array("i", [-1]) * g.n_total
    for i, part in enumerate(parts):
        for v in part:
            if part_of[v] != -1:
                raise GraphError(f"vertex {v} appears in two parts")
            part_of[v] = i
    exmark = bytearray(g.m_total)
    for e in exclude:
        exmark[e] = 1
    h = MultiGraph(len(parts))
    f: list[int] = []
    ea = g.eactive
    eu, ev = g.eu, g.ev
    if edges is None:
        if len(ea) >= 4096:
            return _contract_bulk(g, parts, part_of, exmark, strict, None)
        candidates = range(len(ea))
    else:
        candidates = sorted(set(edges))
        if len(candidates) >= 4096:
            return _contract_bulk(g, parts, part_of, exmark, strict,
                                  np.asarray(candidates, dtype=np.int64))
    hu, hv, hact, hinc, hdeg = h.eu, h.ev, h.eactive, h.inc, h.deg
    excluded = 0
    outside = 0
    for e in candidates:
        if not ea[e]:
            continue
        if exmark[e]:
            excluded += 1
            continue
        pu = part_of[eu[e]]
        pv = part_of[ev[e]]
        if pu == -1 or pv == -1:
            if strict:
                raise GraphError(
                    f"edge {e} ({eu[e]}-{ev[e]}) has an endpoint outside all parts")
            outside += 1
            continue
        he = len(hu)
        hu.append(pu)
        hv.append(pv)
        hact.append(1)
        hinc[pu].append(he)
        if pu != pv:
            hinc[pv].append(he)
            hdeg[pu] += 1
            hdeg[pv] += 1
        else:
            hdeg[pu] += 2
        f.append(e)
    h.m_active = len(hu)
    return ContractionMap(parts=parts, part_of=part_of, h=h, f=f,
                          source=g, excluded=excluded, outside_edges=outside)


def _contract_bulk(g: MultiGraph, parts, part_of, exmark, strict, cand):
    """Vectorized contraction; output is identical to the scalar loop over
    the candidate edge ids in ascending order (all ids when cand is None)."""
    ea = np.frombuffer(g.eactive, dtype=np.uint8)
    ex = np.frombuffer(exmark, dtype=np.uint8)
    eu = np.frombuffer(g.eu, dtype=np.int32)
    ev = np.frombuffer(g.ev, dtype=np.int32)
    pmap = np.frombuffer(part_of, dtype=np.int32)
    if cand is not None:
        ea = ea[cand]
        ex = ex[cand]
    active = ea != 0
    valid = active & (ex == 0)
    excluded = int(np.count_nonzero(active & (ex != 0)))
    ids = np.nonzero(valid)[0]
    if cand is not None:
        ids = cand[ids]
    pu = pmap[eu[ids]]
    pv = pmap[ev[ids]]
    inside = (pu >= 0) & (pv >= 0)
    outside = int(len(ids) - np.count_nonzero(inside))
    if outside and strict:
        bad = int(ids[~inside][0])
        raise GraphError(f"edge {bad} ({g.eu[bad]}-{g.ev[bad]}) "
                         f"has an endpoint outside all parts")
    ids = ids[inside]
    h = MultiGraph.from_edges(len(parts), pu[inside], pv[inside])
    f = ids.tolist()
    return ContractionMap(parts=parts, part_of=part_of, h=h, f=f,
                          source=g, excluded=excluded, outside_edges=outside)
