"""Engine layers: one round, the round loop, recursion, and the driver."""
import math
from fractions import Fraction

import pytest

from shortcycles import (EngineConfig, GraphError, MultiGraph, decompose,
                         improved_short_cycle, low_diam_decomp,
                         naive_short_cycle, one_round_short_cycle,
                         short_cycle_decomp, verify_decomposition)
from shortcycles.engine import (_introot, _isqrt_ceil, _one_rounds,
                                _pair_loop_greedy)
from shortcycles.primitives import Cycle, VertexDisjointCycleSet
from shortcycles.io import d_regular, gnm, parallel_gadgets, torus

from conftest import cycle_graph, path_graph


CFG = EngineConfig(c=1, seed=0)


def _vertex_disjoint(cs):
    seen = set()
    for c in cs.cycles:
        assert len(set(c.vertices)) == len(c.vertices)
        assert not (set(c.vertices) & seen)
        seen.update(c.vertices)
    return seen


def _cycles_valid(g, cs):
    for c in cs.cycles:
        assert len(c.edges) == len(c.vertices) >= 1
        assert len(set(c.edges)) == len(c.edges)
        for i, e in enumerate(c.edges):
            u = c.vertices[i]
            v = c.vertices[(i + 1) % len(c.vertices)]
            a, b = g.endpoints(e)
            assert {a, b} == {u, v} or u == v == a == b


def test_introot():
    assert _introot(8, 3) == 2
    assert _introot(26, 3) == 2
    assert _introot(27, 3) == 3
    assert _isqrt_ceil(10) == 4
    assert _isqrt_ceil(16) == 4


# -- one_round_short_cycle --------------------------------------------------

def test_one_round_parallel_dozen():
    g = MultiGraph(2)
    for _ in range(12):
        g.add_edge(0, 1)
    out = one_round_short_cycle(g, CFG)
    assert len(out.cycles) == 1
    assert len(out.cycles[0]) == 2
    _cycles_valid(g, out)


def test_one_round_tree_input():
    out = one_round_short_cycle(path_graph(6), CFG)
    assert out.cycles == []


def test_one_round_c4_vacuous():
    out = one_round_short_cycle(cycle_graph(4), CFG)
    assert len(out.cycles) <= 1
    _cycles_valid(cycle_graph(4), out)


def test_one_round_disconnected_rejected():
    g = MultiGraph(4)
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    with pytest.raises(GraphError):
        one_round_short_cycle(g, CFG)


def test_one_round_yield_bound():
    """Dense connected graphs: covered >= (m - 5n) / (10 D sqrt(m))."""
    for seed in range(15):
        g = gnm(30, 400, seed=seed)
        out = one_round_short_cycle(g, CFG)
        _cycles_valid(g, out)
        covered = len(_vertex_disjoint(out))
        n, m = g.n_active, g.m_active
        need = max(0.0, (m - 5 * n) / (10 * g.max_degree() * math.sqrt(m)))
        assert covered >= need


def test_one_round_loop_only_vertex():
    g = MultiGraph(1)
    g.add_edge(0, 0)
    out = one_round_short_cycle(g, CFG, component=[0])
    assert len(out.cycles) == 1 and len(out.cycles[0]) == 1


def test_one_round_without_clustering_matches_ldd_clustering():
    """Called without a clustering, one_round builds one for the component
    alone; every cluster of an LDD must give the cycles it gives with the
    LDD's own clustering."""
    yielding = split = 0
    for seed in range(3):
        for g in (gnm(300, 3000, seed=seed), d_regular(300, 20, seed=seed)):
            for beta in (Fraction(1, 12), Fraction(1, 2)):
                ldd = low_diam_decomp(g, beta, seed=seed)
                for cluster in ldd.clusters:
                    want = one_round_short_cycle(g, CFG, cluster, ldd)
                    got = one_round_short_cycle(g, CFG, cluster)
                    assert [(c.edges, c.vertices) for c in got.cycles] == \
                        [(c.edges, c.vertices) for c in want.cycles]
                    yielding += bool(want.cycles)
                    split += len(want.cycles) > 1
    assert yielding and split


def _reference_greedy(h):
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


def test_pair_loop_greedy_matches_dict_loop():
    import random
    rng = random.Random(7)
    pairs = loops = 0
    for trial in range(200):
        n = rng.randrange(1, 12)
        h = MultiGraph(n)
        for _ in range(rng.randrange(0, 4 * n)):
            h.add_edge(rng.randrange(n), rng.randrange(n))
        want = _reference_greedy(h)
        got = _pair_loop_greedy(h)
        assert [(c.edges, c.vertices) for c in got.cycles] == \
            [(c.edges, c.vertices) for c in want.cycles]
        assert got.used_vertices == want.used_vertices
        pairs += sum(len(c) == 2 for c in want.cycles)
        loops += sum(len(c) == 1 for c in want.cycles)
    assert pairs > 100 and loops > 100


def test_one_rounds_matches_one_round_per_cluster():
    """The deepest level's extractor gives what one_round gives on every
    cluster in order, singletons included."""
    singles = 0
    for seed in range(3):
        for g in (gnm(600, 700, seed=seed), d_regular(600, 3, seed=seed)):
            for _ in range(40):   # loop-only singletons
                v = g.add_vertex()
                for _ in range(1 + v % 2):
                    g.add_edge(v, v)
            ldd = low_diam_decomp(g, Fraction(1), seed=seed)
            want = VertexDisjointCycleSet()
            for cluster in ldd.clusters:
                want.extend(one_round_short_cycle(g, CFG, cluster))
            got = VertexDisjointCycleSet()
            _one_rounds(g, CFG, ldd, got)
            assert [(c.edges, c.vertices) for c in got.cycles] == \
                [(c.edges, c.vertices) for c in want.cycles]
            assert got.used_vertices == want.used_vertices
            singles += sum(len(c.vertices) == 1 and len(c.edges) == 1
                           for c in got.cycles)
    assert singles


# -- improved_short_cycle ---------------------------------------------------

def test_improved_requires_m_10n():
    with pytest.raises(GraphError):
        improved_short_cycle(gnm(50, 100, seed=0), CFG)


def test_improved_small_defers_to_naive():
    g = gnm(50, 500, seed=3)
    got = improved_short_cycle(g.copy(), CFG)
    want = naive_short_cycle(g)
    assert [(c.edges, c.vertices) for c in got.cycles] == \
        [(c.edges, c.vertices) for c in want.cycles]


def test_improved_yield_and_validity():
    for seed in range(4):
        g = d_regular(300, 20, seed=seed)
        cfg = EngineConfig(c=1, seed=seed)
        m, delta = g.m_active, g.max_degree()
        out = improved_short_cycle(g.copy(), cfg)
        _cycles_valid(g, out)
        covered = len(_vertex_disjoint(out))
        assert covered * 10 * delta >= m


def test_improved_single_round_on_gadgets():
    """Every pair yields a 2-cycle immediately, so one round suffices."""
    from shortcycles.engine import _Ctx
    g = parallel_gadgets(400, 20)
    cfg = EngineConfig(c=1, seed=0, greedy_rounds=False)
    ctx = _Ctx(cfg)
    out = improved_short_cycle(g, cfg, _ctx=ctx)
    assert ctx.levels[0].rounds == 1
    assert all(len(c) == 2 for c in out.cycles)
    assert 2 * len(out.cycles) * 10 * 20 >= 4000  # target met in one pass


def test_improved_consumes_graph():
    g = d_regular(200, 20, seed=1)
    improved_short_cycle(g, CFG)
    assert g.n_active < 200


# -- short_cycle_decomp -----------------------------------------------------

def test_scd_depth_range_checked():
    g = d_regular(200, 20, seed=0)
    with pytest.raises(GraphError):
        short_cycle_decomp(g, 1, EngineConfig(c=1, seed=0), 5)
    with pytest.raises(GraphError):
        short_cycle_decomp(g, -1, EngineConfig(c=1, seed=0), 5)


def test_scd_c1_equals_improved():
    cfg = EngineConfig(c=1, seed=5)
    g = d_regular(240, 20, seed=2)
    a = short_cycle_decomp(g.copy(), 0, cfg, 7)
    b = improved_short_cycle(g.copy(), cfg)
    assert [(c.edges, c.vertices) for c in a.cycles] == \
        [(c.edges, c.vertices) for c in b.cycles]


def test_scd_c2_yield_and_validity():
    for seed in range(3):
        g = d_regular(600, 20, seed=seed)
        cfg = EngineConfig(c=2, seed=seed)
        k = max(2, _introot(2 * 600, 3))
        m, delta = g.m_active, g.max_degree()
        out = short_cycle_decomp(g.copy(), 0, cfg, k)
        _cycles_valid(g, out)
        covered = len(_vertex_disjoint(out))
        assert covered * 10 * delta >= m


# -- decompose --------------------------------------------------------------

def test_decompose_below_threshold_all_leftover():
    g = path_graph(10)
    dec = decompose(g, CFG)
    assert dec.cycles == []
    assert dec.leftover == set(range(9))


def test_decompose_c5():
    dec = decompose(cycle_graph(5), CFG)
    assert dec.cycles == []
    assert len(dec.leftover) == 5


def test_decompose_empty_graph():
    dec = decompose(MultiGraph(0), CFG)
    assert dec.cycles == [] and dec.leftover == set()


def test_decompose_valid_on_models():
    cases = [
        (gnm(256, 7680, seed=5), 1),
        (gnm(256, 7680, seed=5), 2),
        (d_regular(200, 60, seed=1), 1),
        (parallel_gadgets(100, 120), 1),
        (torus(256), 1),
    ]
    for g, c in cases:
        cfg = EngineConfig(c=c, seed=1)
        dec = decompose(g, cfg)
        rep = verify_decomposition(g, dec, 20 * g.n_active, 10 ** 9)
        assert rep.valid, rep.violations
        total = sum(len(cc.edges) for cc in dec.cycles) + len(dec.leftover)
        assert total == g.m_active
        assert len(dec.leftover) <= 20 * g.n_active


def test_decompose_input_untouched():
    g = gnm(128, 4000, seed=2)
    before = bytes(g.eactive)
    decompose(g, CFG)
    assert bytes(g.eactive) == before


def test_decompose_deterministic():
    g = gnm(128, 4000, seed=8)
    a = decompose(g, EngineConfig(c=2, seed=3))
    b = decompose(g, EngineConfig(c=2, seed=3))
    assert [(c.edges, c.vertices) for c in a.cycles] == \
        [(c.edges, c.vertices) for c in b.cycles]
    assert a.leftover == b.leftover


def test_decompose_seed_changes_output():
    g = gnm(128, 4000, seed=8)
    a = decompose(g, EngineConfig(c=1, seed=0))
    b = decompose(g, EngineConfig(c=1, seed=1))
    assert [c.edges for c in a.cycles] != [c.edges for c in b.cycles]


def test_decompose_level_stats_recorded():
    g = gnm(256, 7680, seed=5)
    dec = decompose(g, EngineConfig(c=2, seed=1))
    assert dec.level_stats
    for ls in dec.level_stats:
        assert ls.rounds >= 0 and ls.edges_processed > 0


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(c=0)
    with pytest.raises(ValueError):
        EngineConfig(beta=0)
