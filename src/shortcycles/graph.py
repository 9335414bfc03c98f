"""Undirected multigraph with stable ids, BFS forests, Euler tours, tree
paths and contraction."""
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
    forever, the entity is only marked inactive. Incidence is one cached
    CSR over a superset of the active edges, built over every edge id on
    the first query that needs it; deletions only clear `eactive`, every
    query reads the CSR through that mask, and each snapshot
    (`flat_adjacency_np`) replaces the cache with its own, smaller CSR.
    Growing the graph drops the cache. Vertices are deleted in
    batches (`delete_vertices`), each with its edges. A vertex partition
    that no active edge crosses (`_partition`) is cached and dropped the
    same way.
    """

    __slots__ = ("eu", "ev", "eactive", "vactive", "deg",
                 "n_active", "m_active", "_csr", "_groups")

    def __init__(self, n: int = 0):
        self.eu = array("i")
        self.ev = array("i")
        self.eactive = bytearray()
        self.vactive = bytearray([1]) * n
        self.deg = array("i", bytes(4 * n))
        self.n_active = n
        self.m_active = 0
        self._csr = None
        self._groups = None

    # -- construction ------------------------------------------------------

    @property
    def n_total(self) -> int:
        return len(self.vactive)

    @property
    def m_total(self) -> int:
        return len(self.eu)

    def add_vertices(self, count: int) -> None:
        if count <= 0:
            return
        self.vactive.extend(b"\x01" * count)
        self.deg.frombytes(bytes(4 * count))
        self.n_active += count
        self._csr = None
        self._groups = None

    def add_edge(self, u: int, v: int) -> int:
        if not (self.vactive[u] and self.vactive[v]):
            raise GraphError(f"edge endpoint inactive: {u}-{v}")
        e = len(self.eu)
        self.eu.append(u)
        self.ev.append(v)
        self.eactive.append(1)
        self.deg[u] += 2 if u == v else 1
        if u != v:
            self.deg[v] += 1
        self.m_active += 1
        self._csr = None
        self._groups = None
        return e

    @classmethod
    def from_edges(cls, n: int, eu, ev, vactive=None) -> "MultiGraph":
        """Graph on n vertex slots whose edge i joins eu[i] and ev[i] (int
        arrays), the same as add_edge in id order. `vactive` (one byte per
        slot, default all active) must mark every endpoint active."""
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
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
        # n may far exceed the edge count, so the ends are counted straight
        # into the int32 degrees: no other array spans every slot.
        g.deg = array("i", [0]) * n
        deg = np.frombuffer(g.deg, dtype=np.int32)
        np.add.at(deg, eu, np.int32(1))
        np.add.at(deg, ev, np.int32(1))
        g._csr = None
        g._groups = None
        return g

    def copy(self) -> "MultiGraph":
        g = MultiGraph.__new__(MultiGraph)
        g.eu = array("i", self.eu)
        g.ev = array("i", self.ev)
        g.eactive = bytearray(self.eactive)
        g.vactive = bytearray(self.vactive)
        g.deg = array("i", self.deg)
        g.n_active = self.n_active
        g.m_active = self.m_active
        g._csr = self._csr   # only ever replaced, never written in place
        g._groups = self._groups   # likewise
        return g

    def _incidence(self):
        """The cached CSR incidence (starts, tails, eids) over a superset
        of the active edges: every edge id when built, the active ones of
        the last snapshot after one (deleted edges never return, and
        growth drops the cache). Vertex v's entries [starts[v],
        starts[v+1]) hold its edges in ascending id, a loop once, and each
        one's other end (a loop's own). Readers mask it through `eactive`
        and must not write to it."""
        if self._csr is None:
            eu = np.frombuffer(self.eu, dtype=np.int32)
            ev = np.frombuffer(self.ev, dtype=np.int32)
            ids = np.arange(len(eu), dtype=np.int64)
            nonloop = eu != ev
            heads = np.concatenate([eu, ev[nonloop]])
            # One sort of (head, id) pairs packed as head << 32 | id.
            keys = np.sort((heads.astype(np.int64) << 32)
                           | np.concatenate([ids, ids[nonloop]]))
            eids = keys.astype(np.int32)   # the low 32 bits
            tails = eu[eids] ^ ev[eids] ^ (keys >> 32).astype(np.int32)
            starts = np.concatenate(
                ([0], np.cumsum(np.bincount(heads, minlength=self.n_total))))
            self._csr = (starts, tails, eids)
        return self._csr

    def _partition(self) -> np.ndarray:
        """The cached vertex partition: per vertex slot, a group id in
        [0, n_total) such that no active edge joins two groups. Built on
        first use as the components of the active edges; deletions keep
        it valid, only coarser, and the owner of a clustering may store
        a finer valid one in `_groups`. Callers must not write to it."""
        if self._groups is None:
            act = np.frombuffer(self.eactive, dtype=bool)
            self._groups = label_components(
                self.n_total, np.frombuffer(self.eu, dtype=np.int32)[act],
                np.frombuffer(self.ev, dtype=np.int32)[act])
        return self._groups

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
        each id, with vectorized bookkeeping. An inactive or repeated id
        raises GraphError before anything changes."""
        ids = np.sort(np.asarray(edge_ids, dtype=np.int64))
        # Checked on a copy: a live view of a buffer held by a kept
        # exception's frame would block every later resize.
        if not np.frombuffer(self.eactive, dtype=np.uint8)[ids].all():
            raise GraphError("edge in batch already deleted")
        if (ids[1:] == ids[:-1]).any():
            raise GraphError("edge repeated in batch")
        self._clear_edges(ids)

    def _clear_edges(self, ids) -> None:
        """Clear the distinct active edges `ids` and their degrees."""
        np.frombuffer(self.eactive, dtype=np.uint8)[ids] = 0
        eu = np.frombuffer(self.eu, dtype=np.int32)
        ev = np.frombuffer(self.ev, dtype=np.int32)
        n = self.n_total
        dec = (np.bincount(eu[ids], minlength=n)
               + np.bincount(ev[ids], minlength=n))
        deg = np.frombuffer(self.deg, dtype=np.int32)
        deg -= dec.astype(np.int32)
        self.m_active -= len(ids)

    def delete_vertex(self, v: int) -> None:
        self.delete_vertices([v])

    def delete_vertices(self, vs) -> None:
        """Delete distinct active vertices and every active edge touching
        them, edges between two of them included. An inactive or repeated
        vertex raises GraphError before anything changes. The edges are
        marked in one mask over every edge id, so none is sorted."""
        vs = np.asarray(vs, dtype=np.int64)
        # Checked on copies, as in delete_edges.
        dead = np.frombuffer(self.vactive, dtype=np.uint8)[vs] == 0
        if dead.any():
            raise GraphError(f"vertex {vs[dead.argmax()]} already deleted")
        seen = np.zeros(self.n_total, dtype=bool)
        seen[vs] = True
        if np.count_nonzero(seen) < len(vs):
            raise GraphError("vertex repeated in batch")
        starts, _, eids = self._incidence()
        hit = np.zeros(self.m_total, dtype=bool)
        hit[eids[row_entries(starts, vs)[0]]] = True
        hit &= np.frombuffer(self.eactive, dtype=bool)
        self._clear_edges(np.flatnonzero(hit))
        np.frombuffer(self.vactive, dtype=np.uint8)[vs] = 0
        self.n_active -= len(vs)

    # -- queries -----------------------------------------------------------

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.eu[e], self.ev[e]

    def other_end(self, e: int, v: int) -> int:
        u = self.eu[e]
        return self.ev[e] if u == v else u

    def incident(self, v: int) -> list[int]:
        """Active edge ids touching v, ascending (loops listed once)."""
        starts, _, eids = self._incidence()
        ea = self.eactive
        return [e for e in eids[starts[v]:starts[v + 1]].tolist() if ea[e]]

    def degree(self, v: int) -> int:
        return self.deg[v]

    def max_degree(self) -> int:
        va = np.frombuffer(self.vactive, dtype=bool)
        return int(np.frombuffer(self.deg, dtype=np.int32)[va].max(initial=0))

    def active_vertices(self) -> list[int]:
        return np.flatnonzero(np.frombuffer(self.vactive, np.uint8)).tolist()

    def active_edges(self) -> list[int]:
        return np.flatnonzero(np.frombuffer(self.eactive, np.uint8)).tolist()


def flat_adjacency_np(g: MultiGraph):
    """Adjacency over active edges as numpy arrays (starts, tails, eids).

    Vertex v's entries occupy [starts[v], starts[v+1]) with ascending edge
    ids; loops appear once. A snapshot: the graph's cached incidence with
    the deleted edges masked out, so deletions after the call are not
    reflected. It becomes the graph's cached incidence, so the next
    snapshot reads only the entries this one kept. Callers must not
    write to it.
    """
    starts, tails, eids = g._incidence()
    kept = np.flatnonzero(np.frombuffer(g.eactive, dtype=bool)[eids])
    if len(kept) < len(eids):
        # A row's new start is the number of kept entries before its old
        # one.
        g._csr = np.searchsorted(kept, starts), tails[kept], eids[kept]
    return g._csr


def label_components(k: int, a, b) -> np.ndarray:
    """Per item 0 .. k-1 (k < 2**31), the lowest item of its component
    under the pairs (a[i], b[i]), as int32: min-label hooking with pointer
    jumping. Each round hooks every root joined to a lower root onto the
    lowest such root, then flattens the labels."""
    lab = np.arange(k, dtype=np.int32)
    a = np.asarray(a, dtype=np.int32)
    b = np.asarray(b, dtype=np.int32)
    la, lb = a, b   # every item starts as its own label
    while not (la == lb).all():
        np.minimum.at(lab, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = lab[lab]
            if (up == lab).all():
                break
            lab = up
        la, lb = lab[a], lab[b]
    return lab


def row_entries(starts, rows):
    """(pos, cnt): the snapshot positions of every entry of `rows`,
    concatenated in (rows order, row order), and each row's entry count,
    so np.repeat(rows, cnt)[j] is entry j's row."""
    first = starts[rows]
    cnt = starts[rows + 1] - first
    ends = cnt.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    return (first - ends + cnt).repeat(cnt) + np.arange(total), cnt


def bfs_forest(adj, roots, labels, visited=None, size=None):
    """BFS from every root at once over a flat adjacency snapshot, a layer
    at a time, each vertex reached only from a vertex of its own label.

    Returns (order, parent, edge, layers): the reached vertices in
    discovery order, roots first; each one's parent and parent edge (-1 at
    the roots); and the offsets in `order` where each depth layer begins.
    A vertex keeps its first discovery in (frontier order, row order), so
    a root whose label class holds no other root gets the tree a scalar
    BFS scanning rows in edge-id order builds inside that class. A caller
    traversing many components of one graph may pass a shared boolean
    `visited` array; it is not reset. A caller that knows how many
    vertices the forest spans passes that `size`, and the search stops
    once it has reached them all.
    """
    starts, tails, eids = adj
    n_total = len(starts) - 1
    if visited is None:
        visited = np.zeros(n_total, dtype=bool)
    frontier = np.asarray(roots, dtype=np.int64)
    visited[frontier] = True
    none = np.full(len(frontier), -1, dtype=np.int64)
    order, parent, edge = [frontier], [none], [none]
    layers = [0, len(frontier)]
    # Per vertex, its first entry in the layer that reaches it; a reached
    # vertex is visited, so no later layer reads its slot again.
    first = np.full(n_total, np.iinfo(np.int64).max)
    while layers[-1] != size:
        pos, cnt = row_entries(starts, frontier)
        w = tails[pos]
        at = np.flatnonzero(~visited[w])
        w = w[at]
        src = np.repeat(frontier, cnt)[at]
        ok = np.flatnonzero(labels[w] == labels[src])
        if not len(ok):
            break
        w, src, pos = w[ok], src[ok], pos[at[ok]]
        at = np.arange(len(w))
        np.minimum.at(first, w, at)
        new = first[w] == at
        frontier = w[new]
        visited[frontier] = True
        order.append(frontier)
        parent.append(src[new])
        edge.append(eids[pos[new]])
        layers.append(layers[-1] + len(frontier))
    return (np.concatenate(order), np.concatenate(parent),
            np.concatenate(edge), layers)


def euler_tours(adj) -> list[list[int]]:
    """Closed Euler tour (edge ids, in walk order) of every component of a
    flat adjacency snapshot that has an edge, by Hierholzer's method from
    the component's lowest vertex; every vertex must have even degree.

    Rows are scanned in order, each once across every visit of its
    vertex; flat int arrays keep the random row visits cache-friendly.
    """
    starts, tails, eids = adj
    n_total = len(starts) - 1
    used = bytearray(int(eids.max()) + 1 if len(eids) else 0)
    starts = starts.tolist()
    tails, eids = (array("i", np.asarray(a, dtype=np.int32).tobytes())
                   for a in (tails, eids))
    scan = [iter(range(starts[v], starts[v + 1])) for v in range(n_total)]
    tours = []
    for s in range(n_total):
        if starts[s] == starts[s + 1]:
            continue
        # A no-op when s's component is already toured. Walk unused edges
        # from the top vertex until stuck, then pop one onto the tour.
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
        if tour:
            tour.reverse()   # the pop order is the tour reversed
            tours.append(tour)
    return tours


def tree_paths(parent, edge, depth, v, w, e):
    """The walks v[i] .. lca .. w[i] along the tree paths of a forest,
    each followed by the edge e[i] (a cycle when e[i] joins w[i] and
    v[i]), from per-vertex `parent`, `edge` and `depth` arrays (depth -1
    off the forest; a root's parent is -1 or the root itself). Returns
    the walks' vertices and edges, walk after walk, and each one's length.
    GraphError if an end is off the forest or a pair's ends lie in
    different trees.

    All ends climb in one array: each pair's deeper end until the depths
    are equal, then both ends in lockstep until every pair has met.
    """
    k = len(v)
    y = np.concatenate((v, w))
    dy = depth[y]
    if dy.min(initial=0) < 0:
        raise GraphError("vertex not covered by the forest")
    top = np.maximum(dy[:k], dy[k:])
    wait = (top - dy.reshape(2, k)).ravel()
    rows = [y]
    for t in range(int(wait.max(initial=0))):
        y = np.where(wait > t, y, parent[y])
        rows.append(y)
    # By row top both ends are roots. Ends in different trees never meet
    # under roots that are their own parents; under the others they meet
    # at -1, which their walk then holds.
    for _ in range(int(top.max(initial=0)) + 1):
        if y[:k].tobytes() == y[k:].tobytes():
            break
        y = parent[y]
        rows.append(y)
    else:
        raise GraphError("path ends in different trees")
    r = len(rows)
    col = np.array(rows + [y])
    # Row r of an end's climb is on its path once the end climbs from it,
    # having waited for the deeper end, until the ends meet, at the lca.
    apart = col[:r, :k] != col[:r, k:]
    on = col[1:] != col[:-1]
    # Walk i reads v's climb upwards, one cell per step, then w's climb
    # downwards, each cell pairing the vertex one row up with the edge
    # below it, so the lca comes first; then w[i] and e[i].
    keep = np.ones((2 * r + 1, k), dtype=bool)
    np.logical_and(on[:, :k], apart, out=keep[:r])
    np.logical_and(on[::-1, k:], apart[::-1], out=keep[r:-1])
    ed = edge[col[:r]]
    verts = np.concatenate((col[:r, :k], col[::-1, k:])).T[keep.T]
    edges = np.concatenate((ed[:, :k], ed[::-1, k:], e[None])).T[keep.T]
    if verts.min(initial=0) < 0:
        raise GraphError("path ends in different trees")
    return verts, edges, keep.sum(axis=0)


@dataclass
class ContractionMap:
    """Result of contracting disjoint vertex parts of a graph.

    `h` has one vertex per part; `f[h_edge]` is the originating edge id in
    the source graph (an int array). Edges of the source with an endpoint
    outside all parts are skipped and counted in `outside_edges`.
    """
    part_of: array              # source vertex -> part index, -1 if none
    h: MultiGraph
    f: np.ndarray
    source: MultiGraph
    excluded: int
    outside_edges: int


def contracted_edges(g: MultiGraph, part: np.ndarray, exclude, ids):
    """The edges a contraction by `part` (an int array, one entry per
    vertex slot, -1 off the parts) keeps, out of the ascending distinct
    edge ids `ids`: the active ones not in `exclude` with both ends in
    parts, ascending. Returns (kept ids, their ends' parts pu and pv, the
    number of active ids excluded, the number with an end off the parts).
    """
    ids = ids[np.frombuffer(g.eactive, dtype=np.uint8)[ids] != 0]
    ex = np.zeros(g.m_total, dtype=bool)
    ex[exclude] = True
    hit = ex[ids]
    ids = ids[~hit]
    pu = part[np.frombuffer(g.eu, dtype=np.int32)[ids]]
    pv = part[np.frombuffer(g.ev, dtype=np.int32)[ids]]
    inside = (pu >= 0) & (pv >= 0)
    return (ids[inside], pu[inside], pv[inside], int(np.count_nonzero(hit)),
            len(ids) - int(np.count_nonzero(inside)))


def contract(g: MultiGraph, part, exclude, edges=None) -> ContractionMap:
    """Contract each part to a single vertex.

    `part` gives every vertex slot of g its part, 0 .. k-1 (-1: none), and
    H has k = max(part) + 1 vertices. Every active edge not in `exclude`
    (edge ids) whose endpoints both lie in parts becomes one edge of H (a
    self-loop when both endpoints share a part), in ascending source id,
    and f maps it back to its source edge; edges with an endpoint outside
    all parts are skipped. `edges` restricts the scan to a candidate edge
    list (each id considered once). GraphError if `part` is not one
    entry per vertex slot or `exclude` or `edges` holds an id outside
    [0, m_total).
    """
    pmap = np.asarray(part, dtype=np.int32)
    if pmap.shape != (g.n_total,):
        raise GraphError(f"part must have one entry per vertex slot "
                         f"({g.n_total}), got shape {pmap.shape}")
    exclude = np.asarray(exclude, dtype=np.int64)
    if ((exclude < 0) | (exclude >= g.m_total)).any():
        raise GraphError(f"exclude holds an id outside [0, {g.m_total})")
    if edges is None:
        ids = np.arange(g.m_total)
    else:
        # Sort plus neighbour compare: np.unique may hash instead of sort.
        ids = np.sort(np.asarray(edges, dtype=np.int64))
        if len(ids) and (ids[0] < 0 or ids[-1] >= g.m_total):
            raise GraphError(f"edges holds an id outside [0, {g.m_total})")
        first = np.ones(len(ids), dtype=bool)
        first[1:] = ids[1:] != ids[:-1]
        ids = ids[first]
    ids, pu, pv, excluded, outside = contracted_edges(g, pmap, exclude, ids)
    h = MultiGraph.from_edges(int(pmap.max(initial=-1)) + 1, pu, pv)
    return ContractionMap(part_of=array("i", pmap.tobytes()), h=h, f=ids,
                          source=g, excluded=excluded,
                          outside_edges=outside)
