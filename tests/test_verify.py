"""Oracle behavior: validity checks, diameter, brute-force packing."""
import ast
import math
import random
from pathlib import Path

import pytest

from shortcycles import (CycleDecomposition, EngineConfig, GraphError,
                         MultiGraph, brute_force_short_cycles, decompose,
                         measure_diameter, naive_short_cycle,
                         verify_decomposition)
from shortcycles.io import gnm
from shortcycles.primitives import Cycle

from conftest import (connected_components, cycle_graph,
                      multigraph_with_holes, path_graph, random_multigraph,
                      star_graph)
from verify_reference import scalar_verify


def _dec(cycles, leftover, g):
    return CycleDecomposition(cycles=cycles, leftover=set(leftover),
                              source_m=g.m_active, source_n=g.n_active)


def test_whole_cycle_valid():
    g = cycle_graph(5)
    d = _dec([Cycle(edges=[0, 1, 2, 3, 4], vertices=[0, 1, 2, 3, 4])], [], g)
    rep = verify_decomposition(g, d, 0, 5)
    assert rep.valid
    assert rep.max_cycle_length == 5
    assert rep.coverage_fraction == 1.0


def test_all_leftover_valid():
    g = path_graph(6)
    rep = verify_decomposition(g, _dec([], range(5), g), 5, 10)
    assert rep.valid
    assert rep.k_hat_observed == 5


def test_duplicate_edge_flagged():
    g = cycle_graph(5)
    d = _dec([Cycle(edges=[0, 1, 2, 3, 4], vertices=[0, 1, 2, 3, 4]),
              Cycle(edges=[0], vertices=[0])], [], g)
    rep = verify_decomposition(g, d, 0, 5)
    assert not rep.valid
    assert sum(v.kind == "duplicate" for v in rep.violations) == 1


def test_uncovered_edge_flagged():
    g = cycle_graph(3)
    rep = verify_decomposition(g, _dec([], [0, 1], g), 5, 5)
    assert not rep.valid
    assert any(v.kind == "uncovered" for v in rep.violations)


def test_length_violation_flagged():
    g = cycle_graph(5)
    d = _dec([Cycle(edges=[0, 1, 2, 3, 4], vertices=[0, 1, 2, 3, 4])], [], g)
    rep = verify_decomposition(g, d, 0, 4)
    assert not rep.valid
    assert any(v.kind == "length" for v in rep.violations)


def test_leftover_bound_flagged():
    g = path_graph(6)
    rep = verify_decomposition(g, _dec([], range(5), g), 3, 10)
    assert not rep.valid
    assert any(v.kind == "leftover" for v in rep.violations)


def test_incidence_violation_flagged():
    g = cycle_graph(4)
    d = _dec([Cycle(edges=[0, 2], vertices=[0, 1])], [1, 3], g)
    rep = verify_decomposition(g, d, 5, 5)
    assert not rep.valid
    assert any(v.kind == "incidence" for v in rep.violations)


def test_dangling_edge_raises():
    g = cycle_graph(3)
    d = _dec([Cycle(edges=[9], vertices=[0])], [0, 1, 2], g)
    with pytest.raises(GraphError):
        verify_decomposition(g, d, 5, 5)


def test_corruption_sensitivity():
    """Single-edit corruptions of real engine output all get caught."""
    g = gnm(64, 2000, seed=11)
    dec = decompose(g, EngineConfig(c=1, seed=11))
    assert dec.cycles
    base = verify_decomposition(g, dec, 20 * 64, 10 ** 9)
    assert base.valid

    a = _dec([Cycle(list(c.edges), list(c.vertices)) for c in dec.cycles],
             dec.leftover, g)
    a.cycles[0].edges.pop()  # shorten one cycle by an edge
    a.cycles[0].vertices.pop()
    assert not verify_decomposition(g, a, 20 * 64, 10 ** 9).valid

    b = _dec([Cycle(list(c.edges), list(c.vertices)) for c in dec.cycles],
             dec.leftover, g)
    b.leftover.add(b.cycles[0].edges[0])
    assert not verify_decomposition(g, b, 20 * 64, 10 ** 9).valid

    c = _dec([Cycle(list(c.edges), list(c.vertices)) for c in dec.cycles],
             set(dec.leftover), g)
    dropped = c.leftover.pop()
    assert not verify_decomposition(g, c, 20 * 64, 10 ** 9).valid


# -- array passes against the scalar reference ------------------------------

def _full_report(check, g, dec, k_hat, l_max):
    """Everything a report says, or the GraphError text."""
    try:
        rep = check(g, dec, k_hat, l_max)
    except GraphError as exc:
        return "GraphError: " + str(exc)
    return (rep.to_dict(), rep.length_histogram,
            [(v.kind, v.detail, v.cycle_index, v.edge)
             for v in rep.violations])


def _corruptions(g, dec, rng):
    """(name, decomposition, k_hat, l_max) edits of `dec`, each on its own
    copy; k_hat and l_max hold for the unedited decomposition."""
    k_hat, l_max = len(dec.leftover), 10 ** 9
    big = 2 ** 70
    inactive = [e for e in range(g.m_total) if not g.eactive[e]]

    def fresh():
        return _dec([Cycle(list(c.edges), list(c.vertices))
                     for c in dec.cycles], set(dec.leftover), g)

    def pick(d, least=1):
        return rng.choice([c for c in d.cycles if len(c.edges) >= least])

    out = [("unedited", fresh(), k_hat, l_max)]
    d = fresh()
    c = pick(d)
    c.edges.pop()
    c.vertices.pop()
    out.append(("dropped edge and vertex", d, k_hat, l_max))
    d = fresh()
    pick(d, 2).edges.pop()
    out.append(("dropped edge", d, k_hat, l_max))
    d = fresh()
    c, into = pick(d), pick(d)
    into.edges.append(c.edges[0])
    into.vertices.append(c.vertices[0])
    out.append(("duplicated edge", d, k_hat, l_max))
    d = fresh()
    d.cycles.insert(rng.randrange(len(d.cycles)), pick(d))
    out.append(("duplicated cycle", d, k_hat, l_max))
    d = fresh()
    a, b = pick(d), pick(d)
    a.edges[0], b.edges[-1] = b.edges[-1], a.edges[0]
    out.append(("swapped edges", d, k_hat, l_max))
    d = fresh()
    c = pick(d, 3)
    c.edges[0], c.edges[1] = c.edges[1], c.edges[0]
    out.append(("swapped within a cycle", d, k_hat, l_max))
    d = fresh()
    c = pick(d, 2)
    c.vertices[1] = c.vertices[0]
    out.append(("repeated vertex", d, k_hat, l_max))
    d = fresh()
    c = pick(d, 2)
    c.vertices[0] = c.vertices[1] = big
    out.append(("repeated vertex past int64", d, k_hat, l_max))
    d = fresh()
    c = pick(d, 2)
    c.vertices[0], c.vertices[1] = -big, big   # distinct: no repeat
    out.append(("vertices past int64", d, k_hat, l_max))
    d = fresh()
    d.cycles.insert(rng.randrange(len(d.cycles) + 1), Cycle([], []))
    d.cycles.append(Cycle([], []))
    out.append(("empty cycles", d, k_hat, l_max))
    d = fresh()
    pick(d).vertices.append(0)
    c = pick(d, 2)
    c.vertices.pop()
    c.vertices.pop()
    out.append(("unequal counts", d, k_hat, l_max))
    d = fresh()
    d.leftover.add(pick(d).edges[-1])
    out.append(("leftover edge in a cycle", d, k_hat + 1, l_max))
    d = fresh()
    dropped = sorted(d.leftover)[:3]
    d.leftover.difference_update(dropped)
    out.append(("uncovered edges", d, k_hat, l_max))
    for bad in [g.m_total, -1, big, -big] + inactive[:2]:
        d = fresh()
        pick(d).edges[-1] = bad
        out.append((f"cycle id {bad}", d, k_hat, l_max))
        d = fresh()
        d.cycles.append(Cycle([bad], [0, 1]))   # malformed: not read
        d.leftover.add(bad)
        out.append((f"leftover id {bad}", d, k_hat + 1, l_max))
        d = fresh()
        pick(d).edges[0] = bad
        d.leftover.add(-1)
        out.append((f"cycle and leftover id {bad}", d, k_hat + 1, l_max))
    d = fresh()
    out.append(("cycles over l_max", d, k_hat, 2))
    out.append(("leftover over k_hat", fresh(), k_hat - 1, l_max))
    d = fresh()
    for _ in range(6):   # several edits at once
        c = pick(d, 2)
        c.vertices[rng.randrange(len(c.vertices))] = rng.randrange(g.n_total)
        pick(d).edges[0] = rng.choice(d.cycles[0].edges)
        d.leftover.add(pick(d).edges[-1])
    out.append(("mixed edits", d, k_hat + 6, 3))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_matches_scalar_reference(seed):
    """The array-pass verifier gives the scalar scan's whole report, its
    violations in the same order, or the same GraphError, on engine output
    and on every corruption of it."""
    rng = random.Random(seed)
    graphs = [gnm(64, 2000, seed=seed),
              multigraph_with_holes(seed, 40, 1600)]
    for g in graphs:
        dec = decompose(g, EngineConfig(c=1, seed=seed))
        assert dec.cycles and dec.leftover
        for name, d, k_hat, l_max in _corruptions(g, dec, rng):
            want = _full_report(scalar_verify, g, d, k_hat, l_max)
            got = _full_report(verify_decomposition, g, d, k_hat, l_max)
            assert got == want, name
            # Every edit is caught, by a violation or by GraphError.
            assert (name == "unedited") == (want[0]["valid"] if isinstance(
                want, tuple) else False), name


def test_verify_empty_decomposition_matches_reference():
    for g in [MultiGraph(0), MultiGraph(3), cycle_graph(3)]:
        d = _dec([], [], g)
        assert (_full_report(verify_decomposition, g, d, 0, 5)
                == _full_report(scalar_verify, g, d, 0, 5))


# -- measure_diameter -------------------------------------------------------

def test_diameter_singleton():
    assert measure_diameter(MultiGraph(1), [0]) == 0


def test_diameter_c6():
    assert measure_diameter(cycle_graph(6), range(6)) == 3


def test_diameter_star():
    assert measure_diameter(star_graph(9), range(10)) == 2


def test_diameter_disconnected_raises():
    g = MultiGraph(3)
    g.add_edge(0, 1)
    with pytest.raises(GraphError):
        measure_diameter(g, [0, 1, 2])


def _floyd_warshall_diameter(g, comp):
    idx = {v: i for i, v in enumerate(comp)}
    k = len(comp)
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(k)] for i in range(k)]
    for e in g.active_edges():
        u, v = g.eu[e], g.ev[e]
        if u in idx and v in idx and u != v:
            dist[idx[u]][idx[v]] = dist[idx[v]][idx[u]] = 1
    for h in range(k):
        for i in range(k):
            dh = dist[i][h]
            if dh == inf:
                continue
            row = dist[h]
            for j in range(k):
                if dh + row[j] < dist[i][j]:
                    dist[i][j] = dh + row[j]
    return max(max(row) for row in dist)


def test_diameter_matches_floyd_warshall(rng):
    for _ in range(15):
        g = random_multigraph(rng, 20, 40)
        for comp in connected_components(g):
            assert measure_diameter(g, comp) == \
                _floyd_warshall_diameter(g, comp)


def test_verify_imports_no_engine_traversal():
    """The oracle keeps its own traversal: verify.py imports none of the
    engine's traversal helpers."""
    banned = {"bfs_forest", "flat_adjacency_np", "euler_tours",
              "row_entries", "tree_paths", "label_components"}
    path = (Path(__file__).resolve().parents[1]
            / "src" / "shortcycles" / "verify.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    assert not imported & banned


# Names the test references may take from the package: graph
# construction, data types, and (from shortcycles.rng) random draws.
_REFERENCE_IMPORTS = {"MultiGraph", "GraphError", "ParseError", "Cycle",
                      "VertexDisjointCycleSet", "DecompositionReport",
                      "Violation"}


def test_references_share_no_engine_code():
    """Every tests/*_reference.py imports from shortcycles only graph
    construction, data types and rng draws, so a fault in an engine
    primitive cannot hide in the reference it is checked against."""
    paths = sorted(Path(__file__).resolve().parent.glob("*_reference.py"))
    assert len(paths) >= 5
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "shortcycles"
                               for a in node.names), path.name
            elif (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "shortcycles"
                    and node.module != "shortcycles.rng"):
                names = {a.name for a in node.names}
                assert names <= _REFERENCE_IMPORTS, (path.name, names)


# -- brute_force_short_cycles -----------------------------------------------

def test_brute_k4():
    g = MultiGraph(4)
    for u in range(4):
        for v in range(u + 1, 4):
            g.add_edge(u, v)
    out = brute_force_short_cycles(g, 4)
    assert out.total_vertices == 4


def test_brute_triangle_short_limit():
    out = brute_force_short_cycles(cycle_graph(3), 2)
    assert out.total_vertices == 0


def test_brute_two_triangles():
    g = MultiGraph(6)
    for a, b in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
        g.add_edge(a, b)
    out = brute_force_short_cycles(g, 3)
    assert out.total_vertices == 6


def test_brute_refuses_large():
    with pytest.raises(GraphError):
        brute_force_short_cycles(MultiGraph(13), 3)


def test_brute_output_is_valid_packing(rng):
    for _ in range(20):
        g = random_multigraph(rng, 8, 14)
        l_max = max(2, int(2 * math.log2(8)))
        out = brute_force_short_cycles(g, l_max)
        seen = set()
        for c in out.cycles:
            assert len(c) <= l_max
            assert not (set(c.vertices) & seen)
            seen.update(c.vertices)
        assert naive_short_cycle(g).total_vertices <= out.total_vertices
