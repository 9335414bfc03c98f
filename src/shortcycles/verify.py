"""Independent validity oracle and brute-force references.

Deliberately shares no traversal code with the engine: everything here is
a direct scan over the graph arrays plus hash-set membership, so it can
serve as a genuine second opinion on engine output.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graph import GraphError, MultiGraph
from .primitives import Cycle, VertexDisjointCycleSet


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
    """
    violations: list[Violation] = []
    m_total = g.m_total
    seen: set[int] = set()
    histogram: dict[int, int] = {}
    max_len = 0
    cycle_edge_count = 0

    def structural(e: int, ci: int):
        if not (0 <= e < m_total) or not g.eactive[e]:
            raise GraphError(f"dangling edge id {e} in cycle {ci}")

    for ci, cyc in enumerate(decomposition.cycles):
        edges, verts = cyc.edges, cyc.vertices
        L = len(edges)
        if L == 0 or len(verts) != L:
            violations.append(Violation(
                "malformed", f"{L} edges but {len(verts)} vertices", ci))
            continue
        histogram[L] = histogram.get(L, 0) + 1
        if L > max_len:
            max_len = L
        if L > l_max:
            violations.append(Violation(
                "length", f"cycle length {L} exceeds {l_max}", ci))
        if len(set(verts)) != L:
            violations.append(Violation(
                "vertex-repeat", "cycle revisits a vertex", ci))
        for i in range(L):
            e = edges[i]
            structural(e, ci)
            u, v = verts[i], verts[(i + 1) % L]
            a, b = g.eu[e], g.ev[e]
            if {a, b} != {u, v} and not (u == v == a == b):
                violations.append(Violation(
                    "incidence", f"edge {e}={a}-{b} does not join {u},{v}",
                    ci, e))
            if e in seen:
                violations.append(Violation(
                    "duplicate", f"edge {e} appears twice", ci, e))
            seen.add(e)
            cycle_edge_count += 1
    leftover = decomposition.leftover
    for e in leftover:
        if not (0 <= e < m_total) or not g.eactive[e]:
            raise GraphError(f"dangling edge id {e} in leftover")
        if e in seen:
            violations.append(Violation(
                "duplicate", f"edge {e} in both a cycle and leftover",
                edge=e))
    for e in range(m_total):
        if g.eactive[e] and e not in seen and e not in leftover:
            violations.append(Violation(
                "uncovered", f"active edge {e} in no cycle and not leftover",
                edge=e))
    if len(leftover) > k_hat:
        violations.append(Violation(
            "leftover", f"{len(leftover)} leftover edges exceed k_hat={k_hat}"))
    m_active = g.m_active
    return DecompositionReport(
        valid=not violations,
        k_hat_observed=len(leftover),
        max_cycle_length=max_len,
        length_histogram=histogram,
        coverage_fraction=(cycle_edge_count / m_active) if m_active else 0.0,
        violations=violations,
    )


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
