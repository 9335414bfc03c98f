"""Scalar reference for `verify_decomposition`, kept for cross-checks.

`scalar_verify` scans the decomposition cycle by cycle and edge by edge
with a hash set of the edge ids seen, then the leftover in its iteration
order, then every edge id. The array-pass verifier must give the same
report, violations in the same order, and raise the same GraphError.
"""
from shortcycles.graph import GraphError
from shortcycles.verify import DecompositionReport, Violation


def scalar_verify(g, decomposition, k_hat: int,
                  l_max: int) -> DecompositionReport:
    violations = []
    m_total = g.m_total
    seen = set()
    histogram = {}
    max_len = 0
    cycle_edge_count = 0

    def structural(e, ci):
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
