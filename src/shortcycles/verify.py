"""Independent validity oracle and brute-force references.

Deliberately shares no traversal code with the engine, so it can serve as
a genuine second opinion on engine output: the decomposition check is
array passes (gathers, sorts and one bincount) straight over the graph's
edge arrays, and the diameter and packing references build their own
adjacency and search.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .graph import GraphError, MultiGraph
from .primitives import Cycle, VertexDisjointCycleSet, int64_codes


@dataclass
class Violation:
    kind: str
    detail: str
    cycle_index: int = -1
    edge: int = -1

    def __str__(self):
        where = f" (cycle {self.cycle_index})" if self.cycle_index >= 0 else ""
        return f"{self.kind}{where}: {self.detail}"


@dataclass
class DecompositionReport:
    valid: bool
    k_hat_observed: int
    max_cycle_length: int
    length_histogram: dict[int, int]
    coverage_fraction: float
    violations: list[Violation] = field(default_factory=list)

    def to_dict(self):
        return {
            "valid": self.valid,
            "k_hat_observed": self.k_hat_observed,
            "max_cycle_length": self.max_cycle_length,
            "length_histogram": {str(k): v for k, v in
                                 sorted(self.length_histogram.items())},
            "coverage_fraction": self.coverage_fraction,
            "violations": [str(v) for v in self.violations],
        }


def verify_decomposition(g: MultiGraph, decomposition, k_hat: int,
                         l_max: int) -> DecompositionReport:
    """Check a decomposition of g against the validity contract.

    (a) every cycle is a closed walk with consecutive incidence,
    (b) no edge id repeats across cycles and leftover,
    (c) every active edge is covered exactly once,
    (d) |leftover| <= k_hat,
    (e) every cycle length <= l_max.

    A cycle with no edges, or with a vertex count other than its edge
    count, is reported malformed and not read further. The cycles are
    read as the decomposition's flat arrays (`arrays()`): incidence is a
    gather from g's edge arrays, repeated vertices come from one sort by
    (cycle, vertex), repeated edges from one stable sort of the ids, and
    coverage from one bincount. Violations are listed as a scan would
    meet them: cycle by cycle and edge by edge, then leftover in its
    iteration order, then the edge ids ascending. A dangling id (out of
    range or inactive) raises GraphError, the first in that order.
    """
    # A copy: a view would pin g's edge flags while a raised GraphError
    # keeps this frame alive.
    alive = np.frombuffer(g.eactive, dtype=np.bool_).copy()
    edges, verts, lens, vlens = decomposition.arrays()
    value = decomposition.id_value
    ok = (lens > 0) & (lens == vlens)
    e, v = edges[np.repeat(ok, lens)], verts[np.repeat(ok, vlens)]
    length = lens[ok]
    cid = np.repeat(np.flatnonzero(ok), length)
    bad = np.flatnonzero(_dangling(e, alive))
    if len(bad):
        p = int(bad[0])
        raise GraphError(f"dangling edge id {value(int(e[p]))} "
                         f"in cycle {cid[p]}")
    left = list(decomposition.leftover)
    lo = int64_codes(left)[0]
    bad = np.flatnonzero(_dangling(lo, alive))
    if len(bad):
        raise GraphError(f"dangling edge id {left[bad[0]]} in leftover")

    found = []   # (scan position, Violation)
    for ci in np.flatnonzero(~ok).tolist():
        found.append(((ci, 0, 0), Violation(
            "malformed", f"{lens[ci]} edges but {vlens[ci]} vertices", ci)))
    for ci in np.flatnonzero(ok & (lens > l_max)).tolist():
        found.append(((ci, 1, 0), Violation(
            "length", f"cycle length {lens[ci]} exceeds {l_max}", ci)))
    order = np.lexsort((v, cid))
    same = ((v[order[1:]] == v[order[:-1]])
            & (cid[order[1:]] == cid[order[:-1]]))
    for ci in np.unique(cid[order[1:][same]]).tolist():
        found.append(((ci, 2, 0), Violation(
            "vertex-repeat", "cycle revisits a vertex", ci)))
    # Each slot's next vertex, the last slot of a cycle wrapping to its
    # first.
    ends = np.cumsum(length)
    nxt = np.arange(1, len(v) + 1)
    nxt[ends - 1] = ends - length
    a = np.frombuffer(g.eu, dtype=np.int32)[e]
    b = np.frombuffer(g.ev, dtype=np.int32)[e]
    w = v[nxt]
    for p in np.flatnonzero(~(((v == a) & (w == b))
                              | ((v == b) & (w == a)))).tolist():
        ed = int(e[p])
        found.append(((int(cid[p]), 3, 2 * p), Violation(
            "incidence", f"edge {ed}={a[p]}-{b[p]} does not join "
            f"{value(int(v[p]))},{value(int(v[nxt[p]]))}", int(cid[p]),
            ed)))
    order = np.argsort(e, kind="stable")
    later = order[1:][e[order[1:]] == e[order[:-1]]]
    for p in later.tolist():
        ed = int(e[p])
        found.append(((int(cid[p]), 3, 2 * p + 1), Violation(
            "duplicate", f"edge {ed} appears twice", int(cid[p]), ed)))
    found.sort(key=itemgetter(0))
    violations = [viol for _, viol in found]

    in_cycle = np.zeros(len(alive), dtype=np.bool_)
    in_cycle[e] = True
    for p in np.flatnonzero(in_cycle[lo]).tolist():
        violations.append(Violation(
            "duplicate", f"edge {left[p]} in both a cycle and leftover",
            edge=left[p]))
    cover = np.bincount(np.concatenate((e, lo)), minlength=len(alive))
    for ed in np.flatnonzero(alive & (cover == 0)).tolist():
        violations.append(Violation(
            "uncovered", f"active edge {ed} in no cycle and not leftover",
            edge=ed))
    if len(left) > k_hat:
        violations.append(Violation(
            "leftover", f"{len(left)} leftover edges exceed k_hat={k_hat}"))
    sizes = np.bincount(length)
    m_active = g.m_active
    return DecompositionReport(
        valid=not violations,
        k_hat_observed=len(left),
        max_cycle_length=max(len(sizes) - 1, 0),
        length_histogram=dict(zip(np.flatnonzero(sizes).tolist(),
                                  sizes[sizes > 0].tolist())),
        coverage_fraction=(len(e) / m_active) if m_active else 0.0,
        violations=violations,
    )


def _dangling(ids: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Per edge id: out of range or inactive."""
    out = (ids < 0) | (ids >= len(alive))
    out[~out] = ~alive[ids[~out]]
    return out


def measure_diameter(g: MultiGraph, component) -> int:
    """Exact strong diameter by BFS from every vertex of the component."""
    comp = list(component)
    nbrs: dict[int, list[int]] = {v: [] for v in comp}
    for u, w, alive in zip(g.eu, g.ev, g.eactive):
        if alive and u != w and u in nbrs and w in nbrs:
            nbrs[u].append(w)
            nbrs[w].append(u)
    diam = 0
    for s in comp:
        depth = {s: 0}
        frontier = [s]
        far = 0
        while frontier:
            nxt = []
            for v in frontier:
                dv = depth[v]
                for w in nbrs[v]:
                    if w not in depth:
                        depth[w] = dv + 1
                        far = dv + 1
                        nxt.append(w)
            frontier = nxt
        if len(depth) != len(nbrs):
            raise GraphError("measure_diameter: component disconnected")
        if far > diam:
            diam = far
    return diam


# ---------------------------------------------------------------------------
# Exhaustive reference for small instances.

_BRUTE_LIMIT = 12


def brute_force_short_cycles(g: MultiGraph, l_max: int) -> VertexDisjointCycleSet:
    """Maximum-total-vertex vertex-disjoint cycle packing, lengths <= l_max.

    Enumerates candidate cycles (self-loops, parallel pairs, and simple
    cycles found by DFS with a canonical start) and solves the packing by
    DP over vertex bitmasks. Refuses graphs with more than 12 active
    vertices.
    """
    verts = g.active_vertices()
    if len(verts) > _BRUTE_LIMIT:
        raise GraphError(
            f"brute force limited to {_BRUTE_LIMIT} vertices, got {len(verts)}")
    index = {v: i for i, v in enumerate(verts)}
    nloc = len(verts)
    # candidate cycles: (bitmask, vertex_count, Cycle)
    candidates: list[tuple[int, int, Cycle]] = []
    loops: dict[int, int] = {}
    pair_edges: dict[tuple[int, int], list[int]] = {}
    for e in g.active_edges():
        u, v = g.eu[e], g.ev[e]
        if u == v:
            loops.setdefault(u, e)
        else:
            key = (u, v) if u < v else (v, u)
            pair_edges.setdefault(key, []).append(e)
    if l_max >= 1:
        for u, e in sorted(loops.items()):
            candidates.append((1 << index[u], 1, Cycle([e], [u])))
    if l_max >= 2:
        for (u, v), es in sorted(pair_edges.items()):
            if len(es) >= 2:
                candidates.append((1 << index[u] | 1 << index[v], 2,
                                   Cycle(es[:2], [u, v])))
    if l_max >= 3:
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in verts}
        for key, es in pair_edges.items():
            u, v = key
            adj[u].append((es[0], v))
            adj[v].append((es[0], u))
        seen_sets: set[tuple[int, ...]] = set()
        for start in verts:
            stack = [(start, [start], [])]
            while stack:
                v, path, edges = stack.pop()
                if len(path) > l_max:
                    continue
                for e, w in adj[v]:
                    if w == start and len(path) >= 3:
                        signature = tuple(sorted(path))
                        if signature in seen_sets:
                            continue
                        seen_sets.add(signature)
                        mask = 0
                        for x in path:
                            mask |= 1 << index[x]
                        candidates.append(
                            (mask, len(path), Cycle(edges + [e], list(path))))
                    elif w > start and w not in path and len(path) < l_max:
                        stack.append((w, path + [w], edges + [e]))
    full = 1 << nloc
    best = [-1] * full
    choice: list[tuple[int, int] | None] = [None] * full
    best[0] = 0
    for mask in range(full):
        if best[mask] < 0:
            continue
        for idx, (cmask, count, _) in enumerate(candidates):
            if cmask & mask:
                continue
            nm = mask | cmask
            if best[mask] + count > best[nm]:
                best[nm] = best[mask] + count
                choice[nm] = (mask, idx)
    target = max(range(full), key=lambda msk: best[msk])
    out = VertexDisjointCycleSet()
    cur = target
    while cur and choice[cur] is not None:
        prev, idx = choice[cur]
        out.add(candidates[idx][2])
        cur = prev
    return out
