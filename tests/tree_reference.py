"""Dict references for the forest TreeSplit and the batched contraction
round, kept for cross-checks.

`tree_split` is the per-tree dict TreeSplit the array pass replaced: a DFS
post-order from the first leaf, cuts where the accumulated label sum
reaches the threshold, and the components left after the cuts. Its light
root component merges into the shallowest adjacent cut (the first in a BFS
from the leaf scanning tree edges in id order), a tree below threshold
stays one part, and parts are ordered by the BFS position of their
shallowest vertex, as `shortcycles.tree_split` numbers them. `subtree`,
`tree_path` and `pull_up` are the dict part trees and the lifting along
them, and `reference_greedy` is the dict loop for the pair/loop greedy;
`dict_contract` is the contraction as a dict pass, and `one_round` is one
contraction round on one cluster built from them.
"""
import math
from dataclasses import dataclass

from shortcycles import GraphError, MultiGraph
from shortcycles.primitives import Cycle, VertexDisjointCycleSet


@dataclass
class DictTree:
    """Rooted tree; parent maps a vertex to (parent, edge id)."""
    root: int
    parent: dict
    depth: dict
    order: list    # BFS discovery order, root first


@dataclass
class Labeled:
    tree: DictTree
    labels: dict


def dict_tree(ldd, i: int) -> DictTree:
    """Cluster i's tree of an LddResult as dicts."""
    a, b = int(ldd.member_starts[i]), int(ldd.member_starts[i + 1])
    order = ldd.tree_order[a:b].tolist()
    parent = {v: (int(ldd.parent[v]), int(ldd.parent_edge[v]))
              for v in order[1:]}
    depth = {v: int(ldd.depth[v]) for v in order}
    return DictTree(root=order[0], parent=parent, depth=depth, order=order)


def tree_split(t, threshold: int) -> list[list[int]]:
    """Parts of one labeled tree (`t.tree.order`, `t.tree.parent`,
    `t.labels`), in the array pass's order."""
    labels = t.labels
    verts = list(t.tree.order)
    if threshold < 1:
        raise GraphError("threshold must be positive")
    if sum(labels[v] for v in verts) < threshold or len(verts) == 1:
        return [verts]
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in verts}
    for v, (p, e) in t.tree.parent.items():
        adj[v].append((e, p))
        adj[p].append((e, v))
    for row in adj.values():
        row.sort()
    root = next(v for v in verts if len(adj[v]) == 1)
    par: dict[int, int] = {root: -1}
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for _, w in adj[v]:
            if w not in par:
                par[w] = v
                stack.append(w)
    extra = dict(labels)
    cut: set[int] = set()
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
            for _, w in adj[x]:
                if comp[w] == -1 and not (w in cut and par[w] == x) \
                        and not (x in cut and par[x] == w):
                    comp[w] = cid
                    stack.append(w)
    root_cid = comp[root]
    # BFS from the leaf root, tree edges in id order.
    bfs = [root]
    seen = {root}
    for v in bfs:
        for _, w in adj[v]:
            if w not in seen:
                seen.add(w)
                bfs.append(w)
    place = {v: i for i, v in enumerate(bfs)}
    if sum(labels[v] for v in comps[root_cid]) < threshold:
        # Merge the leftover root component across the shallowest cut edge.
        target = next(comp[v] for v in bfs
                      if v in cut and comp[par[v]] == root_cid)
        comps[target].extend(comps[root_cid])
        comps.pop(root_cid)
    return sorted(comps, key=lambda c: min(place[v] for v in c))


def subtree(tree: DictTree, part: list[int]) -> DictTree:
    """The part's tree inside `tree`, rooted at its shallowest vertex."""
    depth = {v: tree.depth[v] for v in part}
    order = sorted(part, key=depth.__getitem__)
    parent = {v: tree.parent[v] for v in order[1:]}
    if any(p not in depth for p, _ in parent.values()):
        raise GraphError("part not connected within its tree")
    return DictTree(root=order[0], parent=parent, depth=depth, order=order)


def tree_path(t: DictTree, u: int, v: int):
    """Unique path u -> v in a dict tree: (vertices, edges)."""
    if u not in t.depth or v not in t.depth:
        raise GraphError("vertex not covered by tree")
    up_v, up_e, dn_v, dn_e = [], [], [], []
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
        pa, ea = t.parent[a]
        pb, eb = t.parent[b]
        up_v.append(a)
        up_e.append(ea)
        dn_v.append(b)
        dn_e.append(eb)
        a, b = pa, pb
    return up_v + [a] + dn_v[::-1], up_e + dn_e[::-1]


def pull_up(cm, trees: list[DictTree], cycles_h) -> VertexDisjointCycleSet:
    """Lift H's cycles along each part's own dict tree."""
    g, part_of = cm.source, cm.part_of
    out = VertexDisjointCycleSet()
    for hc in cycles_h.cycles:
        k = len(hc.edges)
        exits, entries = [0] * k, [0] * k
        for i in range(k):
            e = cm.f[hc.edges[i]]
            pu, pv = hc.vertices[i], hc.vertices[(i + 1) % k]
            gu, gv = g.endpoints(e)
            if part_of[gu] == pu and part_of[gv] == pv:
                a, b = gu, gv
            elif part_of[gv] == pu and part_of[gu] == pv:
                a, b = gv, gu
            else:
                raise GraphError(f"edge {e} endpoints not in parts")
            exits[i] = a
            entries[(i + 1) % k] = b
        verts, edges = [], []
        for i in range(k):
            pv_, pe_ = tree_path(trees[hc.vertices[i]], entries[i], exits[i])
            verts.extend(pv_)
            edges.extend(pe_)
            edges.append(cm.f[hc.edges[i]])
        out.add(Cycle(edges=edges, vertices=verts))
    return out


def reference_greedy(h):
    """The dict loop the array greedy replaced: 2-cycles of parallel pairs
    in edge order, then the lowest loop of every free vertex."""
    pair_first = {}
    loops = {}
    out = VertexDisjointCycleSet()
    used = set()
    for he in range(h.m_total):
        a, b = h.endpoints(he)
        if a == b:
            if a not in loops:
                loops[a] = he
            continue
        key = (a, b) if a < b else (b, a)
        if key in pair_first:
            first = pair_first[key]
            if first >= 0 and a not in used and b not in used:
                out.add(Cycle(edges=[first, he], vertices=[key[0], key[1]]))
                used.add(a)
                used.add(b)
                pair_first[key] = -1
        else:
            pair_first[key] = he
    for a in sorted(loops):
        if a not in used:
            out.add(Cycle(edges=[loops[a]], vertices=[a]))
            used.add(a)
    return out


@dataclass
class DictContraction:
    """g with each part contracted to a vertex: H's edge j is f[j] of g,
    and part_of maps each vertex of a part to the part's index."""
    source: object
    part_of: dict
    h: MultiGraph
    f: list


def dict_contract(g, parts: list[list[int]], exclude,
                  edges) -> DictContraction:
    """The contraction of g's parts over the candidate `edges`: every
    active candidate not in `exclude` with both ends in parts, in
    ascending id order, becomes an edge of H."""
    part_of = {v: j for j, p in enumerate(parts) for v in p}
    skip = set(exclude)
    h = MultiGraph(len(parts))
    f = []
    for e in sorted(set(edges)):
        u, v = g.endpoints(e)
        if g.eactive[e] and e not in skip and u in part_of and v in part_of:
            h.add_edge(part_of[u], part_of[v])
            f.append(e)
    return DictContraction(source=g, part_of=part_of, h=h, f=f)


def one_round(g, ldd, i: int) -> VertexDisjointCycleSet:
    """One contraction round on cluster i of an LddResult: split at
    4*ceil(sqrt(m_i)), part trees, contraction over the cluster's edges,
    the pair/loop greedy and the lift."""
    edges = ldd.edges[ldd.edge_label == i].tolist()
    if len(edges) == 0:
        return VertexDisjointCycleSet()
    tree = dict_tree(ldd, i)
    labels = {v: int(ldd.degrees[v]) for v in tree.order}
    threshold = 4 * math.isqrt(len(edges) - 1) + 4
    parts = tree_split(Labeled(tree=tree, labels=labels), threshold)
    trees = [subtree(tree, p) for p in parts]
    exclude = [e for st in trees for (_, e) in st.parent.values()]
    cm = dict_contract(g, parts, exclude, edges)
    return pull_up(cm, trees, reference_greedy(cm.h))
