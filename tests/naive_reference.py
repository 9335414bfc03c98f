"""Scalar references for the peel and for vertex deletion, kept for
cross-checks.

`naive_short_cycle` here is the peel as first written: its scratch reads
each vertex's `incident()` list and filters the far ends through a member
set, and removing a vertex rebuilds every live neighbour's row without
the shared edges, so rows only ever hold live entries. The library's peel
must give exactly its cycles, edges and vertices in order.

It shares no traversal code with the library: the tree path of a cycle
comes from its own walk up the two ancestor chains (`_tree_path`).

`delete_vertex` deletes one vertex by a loop of `delete_edge` over its
`incident()` list; `MultiGraph.delete_vertices` must leave the same state.
"""
from shortcycles import GraphError, MultiGraph
from shortcycles.primitives import Cycle, VertexDisjointCycleSet


def delete_vertex(g: MultiGraph, v: int) -> None:
    if not g.vactive[v]:
        raise GraphError(f"vertex {v} already deleted")
    for e in g.incident(v):
        g.delete_edge(e)
    g.vactive[v] = 0
    g.n_active -= 1


class _Scratch:
    def __init__(self, g: MultiGraph, vertices):
        self.adj: dict[int, list[tuple[int, int]]] = {}
        self.deg: dict[int, int] = {}
        self.alive: set[int] = set()
        member = set(vertices)
        for v in vertices:
            self.adj[v] = []
            self.deg[v] = 0
            self.alive.add(v)
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
        if cycle is None:
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
    parent: dict[int, int] = {}
    pedge: dict[int, int] = {}
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            pe = pedge.get(v, -1)
            skipped_parent = False
            for e, w in s.adj[v]:
                if e == pe and not skipped_parent:
                    skipped_parent = True
                    continue
                if w in depth:
                    verts, edges = _tree_path(parent, pedge, v, w)
                    edges.append(e)
                    return Cycle(edges=edges, vertices=verts)
                depth[w] = depth[v] + 1
                parent[w] = v
                pedge[w] = e
                nxt.append(w)
        frontier = nxt
    return None


def _tree_path(parent: dict, pedge: dict, u: int, v: int):
    """The tree path u .. lca .. v as (vertices, edges): u's whole chain
    of ancestors up to the root (the one vertex without a parent), then
    v's chain up to the first vertex on it, the lca."""
    up = [u]
    while up[-1] in parent:
        up.append(parent[up[-1]])
    at = {x: i for i, x in enumerate(up)}
    down = [v]
    while down[-1] not in at:
        down.append(parent[down[-1]])
    lca = down.pop()
    up = up[:at[lca]]
    down.reverse()
    return (up + [lca] + down,
            [pedge[x] for x in up] + [pedge[x] for x in down])
