"""Engine layers: one round, the round loop, recursion, and the driver."""
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from shortcycles import (EngineConfig, GraphError, LddResult, MultiGraph,
                         decompose, engine, improved_short_cycle,
                         low_diam_decomp, naive_short_cycle,
                         one_round_short_cycle, short_cycle_decomp,
                         verify_decomposition)
from shortcycles.engine import (_introot, _isqrt_ceil, _one_rounds,
                                _pair_loop_greedy)
from shortcycles.graph import contract, contracted_edges, label_components
from shortcycles.ldd import single_cluster
from shortcycles.primitives import tree_split
from shortcycles.primitives import Cycle, VertexDisjointCycleSet
from shortcycles.io import (d_regular, decomposition_from_dict,
                            decomposition_to_dict, decomposition_to_json, gnm,
                            parallel_gadgets, torus)

import naive_reference
import tree_reference
from conftest import cycle_graph, multigraph_with_holes, path_graph


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


def test_pair_loop_greedy_matches_dict_loop():
    import random
    rng = random.Random(7)
    pairs = loops = 0
    for trial in range(200):
        n = rng.randrange(1, 12)
        h = MultiGraph(n)
        for _ in range(rng.randrange(0, 4 * n)):
            h.add_edge(rng.randrange(n), rng.randrange(n))
        want = tree_reference.reference_greedy(h)
        got = _pair_loop_greedy(h.eu, h.ev, h.n_total)
        assert [(c.edges, c.vertices) for c in got.cycles] == \
            [(c.edges, c.vertices) for c in want.cycles]
        assert got.used_vertices == want.used_vertices
        pairs += sum(len(c) == 2 for c in want.cycles)
        loops += sum(len(c) == 1 for c in want.cycles)
    assert pairs > 100 and loops > 100


def _same_greedy(pu, pv, k):
    want = tree_reference.reference_greedy(MultiGraph.from_edges(k, pu, pv))
    got = _pair_loop_greedy(np.asarray(pu, dtype=np.int64),
                            np.asarray(pv, dtype=np.int64), k)
    assert [(c.edges, c.vertices) for c in got.cycles] == \
        [(c.edges, c.vertices) for c in want.cycles]
    assert got.used_vertices == want.used_vertices
    return got


def test_pair_loop_greedy_on_few_parts_many_edges():
    """The deepest round's shape: a few parts joined by thousands of
    parallel edges and loops, and the edge cases of no edges, loops only
    and pairs only."""
    rng = np.random.default_rng(3)
    for k in (2, 3, 5, 9):
        pu = rng.integers(0, k, 4000)
        pv = np.where(rng.random(4000) < 0.3, pu, rng.integers(0, k, 4000))
        got = _same_greedy(pu, pv, k)
        assert any(len(c) == 2 for c in got.cycles)
        assert any(len(c) == 1 for c in got.cycles) or k < 3
    assert not _same_greedy([], [], 0).cycles
    assert not _same_greedy([], [], 4).cycles
    loops = _same_greedy([3, 1, 3, 1, 0], [3, 1, 3, 1, 0], 5)
    assert [c.edges for c in loops.cycles] == [[4], [1], [0]]
    pairs = _same_greedy([0, 2, 1, 0, 2, 1, 0], [1, 0, 2, 1, 0, 0, 2], 3)
    assert [c.edges for c in pairs.cycles] == [[0, 3]]


def test_pair_loop_greedy_on_contracted_edges():
    """On a d_regular graph split into a few parts, the edges the deepest
    round keeps are contract's H edges, ascending and non-contiguous
    source ids, and the greedy on their part arrays is the reference's on
    H."""
    for seed in range(3):
        g = d_regular(400, 12, seed=seed)
        ldd = single_cluster(g, g.active_vertices())
        part = tree_split(ldd, ldd.degrees, 800)
        exclude = engine._part_tree_edges(ldd, part)
        ids, pu, pv, excluded, outside = contracted_edges(
            g, part, exclude, ldd.edges)
        cm = contract(g, part, exclude)
        assert ids.tolist() == cm.f.tolist()
        assert (excluded, outside) == (cm.excluded, cm.outside_edges)
        assert (np.diff(ids) > 1).any() and (np.diff(ids) > 0).all()
        k = cm.h.n_total
        assert 2 <= k <= 10 and len(ids) > 2000
        got = _same_greedy(pu, pv, k)
        assert got.cycles


def test_one_rounds_matches_one_round_per_cluster():
    """The deepest level's extractor gives what one_round gives on every
    cluster in order, singletons included."""
    singles = 0
    for seed in range(3):
        for g in (gnm(600, 700, seed=seed), d_regular(600, 3, seed=seed)):
            for _ in range(40):   # loop-only singletons
                v = g.n_total
                g.add_vertices(1)
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


@pytest.mark.parametrize("make", [
    lambda s: gnm(300, 3000, seed=s),
    lambda s: d_regular(300, 20, seed=s),
    lambda s: parallel_gadgets(128, 60, seed=s),
    lambda s: multigraph_with_holes(s, 400, 1600),
], ids=["gnm", "d_regular", "parallel_gadgets", "holes"])
def test_one_rounds_matches_reference_round(make):
    """The batched pass gives, cycle for cycle, one dict round per cluster
    (tree split, part trees, contraction, greedy, lift) in cluster order."""
    found = 0
    for seed in range(3):
        g = make(seed)
        for beta in (Fraction(1, 12), Fraction(1, 2), Fraction(1)):
            ldd = low_diam_decomp(g, beta, seed=seed)
            want = VertexDisjointCycleSet()
            for i in range(len(ldd.clusters)):
                want.extend(tree_reference.one_round(g, ldd, i))
            got = VertexDisjointCycleSet()
            _one_rounds(g, CFG, ldd, got)
            assert [(c.edges, c.vertices) for c in got.cycles] == \
                [(c.edges, c.vertices) for c in want.cycles]
            found += len(got.cycles)
    assert found


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


def test_scd_c2_yield_and_validity(monkeypatch):
    """Valid, vertex-disjoint cycles covering m/(10*max_degree) vertices,
    on a level that falls back (n=600 at the driver's k) and on levels
    that recurse: an explicit k >= 21 makes the big clusters contract and
    sparsify, at c=3 down to a level-2 round loop."""
    contracts = []

    def counted_contract(*args, **kwargs):
        contracts.append(1)
        return real_contract(*args, **kwargs)

    real_contract = engine.contract
    monkeypatch.setattr(engine, "contract", counted_contract)
    for n, c, k in [(600, 2, _introot(2 * 600, 3)), (2000, 2, 30),
                    (1000, 3, 24)]:
        for seed in range(3):
            g = d_regular(n, 20, seed=seed)
            cfg = EngineConfig(c=c, seed=seed)
            ctx = engine._Ctx(cfg)
            m, delta = g.m_active, g.max_degree()
            contracts.clear()
            out = short_cycle_decomp(g.copy(), 0, cfg, k, _ctx=ctx)
            _cycles_valid(g, out)
            covered = len(_vertex_disjoint(out))
            assert covered * 10 * delta >= m
            if k >= 21:
                assert contracts
                assert max(ctx.levels) == c - 1


def test_decompose_verifies_a_recursed_round(monkeypatch):
    """dreg-c2's graph at c=2 recurses: decompose calls contract for a
    level-0 round that sparsifies and runs level 1, and the result
    passes the independent verifier."""
    contracts = []

    def counted_contract(*args, **kwargs):
        contracts.append(1)
        return real_contract(*args, **kwargs)

    real_contract = engine.contract
    monkeypatch.setattr(engine, "contract", counted_contract)
    g = d_regular(4632, 41, seed=1)
    dec = decompose(g, EngineConfig(c=2, seed=1))
    assert contracts
    assert [ls.level for ls in dec.level_stats] == [0, 1]
    rep = verify_decomposition(g, dec, 20 * g.n_active, 10 ** 9)
    assert rep.valid, rep.violations[:3]


def test_scd_small_clusters_take_the_naive_peel(monkeypatch):
    """At c=2 on parallel gadgets the small clusters (at most k vertices)
    hold the edges, so a round peels all of them with one naive_short_cycle
    call, right after its LDD, on exactly their vertices. The call's
    cycles are valid, vertex-disjoint and inside those clusters, and once
    the round puts them in cluster order they are the reference peel of
    each small cluster alone, concatenated in cluster order."""
    real_naive, real_ldd = engine.naive_short_cycle, engine.low_diam_decomp
    events = []   # each round's LddResult, then "naive" for its peel
    checks = []   # (a peel's result, the cycles expected of it)
    g = parallel_gadgets(64, 60, seed=1)
    k = max(2, _introot(2 * g.n_active, 3))

    def logged_ldd(*args, **kwargs):
        events.append(real_ldd(*args, **kwargs))
        return events[-1]

    def counted(h, vertices=None, edges=None):
        out = real_naive(h, vertices, edges)
        if vertices is None:   # a level's closing sweep
            return out
        ldd = events[-1]
        assert isinstance(ldd, LddResult), "a second naive call in a round"
        events.append("naive")
        small = [c for c in ldd.clusters if len(c) <= k]
        assert sorted(vertices.tolist()) == sorted(v for c in small
                                                   for v in c)
        want = VertexDisjointCycleSet()
        for cluster in small:
            want.extend(naive_reference.naive_short_cycle(h, cluster))
        checks.append((out, want))
        _cycles_valid(h, out)
        assert all(h.eactive[e] for c in out.cycles for e in c.edges)
        assert _vertex_disjoint(out) <= set(vertices.tolist())
        return out

    monkeypatch.setattr(engine, "low_diam_decomp", logged_ldd)
    monkeypatch.setattr(engine, "naive_short_cycle", counted)
    dec = decompose(g, EngineConfig(c=2, seed=1))
    assert len(checks) == events.count("naive") > 1
    for out, want in checks:
        assert ([(c.edges, c.vertices) for c in out.cycles]
                == [(c.edges, c.vertices) for c in want.cycles])
    assert sum(len(want.cycles) for _, want in checks) > 100
    assert dec.cycles
    rep = verify_decomposition(g, dec, 20 * g.n_active, 10 ** 9)
    assert rep.valid, rep.violations


@pytest.mark.parametrize("make,c", [
    (lambda: gnm(256, 7680, seed=5), 1),
    (lambda: gnm(256, 7680, seed=5), 2),
    (lambda: parallel_gadgets(100, 120), 1),
    (lambda: parallel_gadgets(64, 60, seed=1), 2)],
    ids=["gnm-c1", "gnm-c2", "gadgets-c1", "gadgets-c2"])
def test_ldd_partition_stays_valid_in_decompose(monkeypatch, make, c):
    """Every LDD of a decompose finds no active edge joining two groups of
    the graph's cached partition, and leaves the partition equal, on the
    active vertices, to the components of the active edges."""
    real_ldd = engine.low_diam_decomp
    calls = []

    def checked_ldd(g, beta, seed):
        ea = np.frombuffer(g.eactive, dtype=bool)
        eu = np.frombuffer(g.eu, dtype=np.int32)[ea]
        ev = np.frombuffer(g.ev, dtype=np.int32)[ea]
        groups = g._partition()
        assert (groups[eu] == groups[ev]).all()
        res = real_ldd(g, beta, seed)
        groups = g._partition()
        assert (groups[eu] == groups[ev]).all()
        act = np.flatnonzero(np.frombuffer(g.vactive, dtype=bool))
        exact = label_components(g.n_total, eu, ev)[act]
        pairs = set(zip(groups[act].tolist(), exact.tolist()))
        assert len(pairs) == len(set(exact.tolist())) == len(
            set(groups[act].tolist()))
        calls.append(len(pairs))
        return res

    monkeypatch.setattr(engine, "low_diam_decomp", checked_ldd)
    decompose(make(), EngineConfig(c=c, seed=1))
    assert len(calls) >= 5 and max(calls) > 1


@pytest.mark.parametrize("c", [1, 2])
def test_round_loop_takes_passes_over_repaired_clusterings(monkeypatch, c):
    """On gnm(512, 15360) the deepest level's rounds, and at c=2 the
    level-0 rounds, which fall back to _one_rounds, are mostly passes
    over repaired clusterings: far fewer LDD draws than _one_rounds
    passes. LevelStats.rounds counts the draws, and the output
    verifies."""
    real_ldd, real_pass = engine.low_diam_decomp, engine._one_rounds
    draws, passes = [], []

    def counted_ldd(*args, **kwargs):
        draws.append(1)
        return real_ldd(*args, **kwargs)

    def counted_pass(*args, **kwargs):
        passes.append(1)
        return real_pass(*args, **kwargs)

    monkeypatch.setattr(engine, "low_diam_decomp", counted_ldd)
    monkeypatch.setattr(engine, "_one_rounds", counted_pass)
    g = gnm(512, 15360, seed=1)
    dec = decompose(g, EngineConfig(c=c, seed=1))
    assert 4 * len(draws) < len(passes)
    assert sum(ls.rounds for ls in dec.level_stats) == len(draws)
    rep = verify_decomposition(g, dec, 20 * g.n_active, 10 ** 9)
    assert rep.valid, rep.violations[:3]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_split_threshold_stays_off_the_redraw_cliff(seed):
    """gnm(512, 15360) at c=1 takes 10-12 LDD draws per decompose with the
    deepest level's split at ceil(sqrt(m_i)) or 4*ceil(sqrt(m_i)). At
    ceil(sqrt(m_i))/4 the parts are so small that passes yield too little
    and the loop keeps redrawing (48, 8,379 and 2,166 draws at seeds 1-3);
    at most 30 draws keeps the threshold off that cliff."""
    dec = decompose(gnm(512, 30 * 512, seed=seed),
                    EngineConfig(c=1, seed=seed))
    assert sum(ls.rounds for ls in dec.level_stats) <= 30


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


# sha256 of decomposition_to_json(decompose(g, EngineConfig(c, seed)), c,
# seed) for (model, c, seed); the graphs are _PINNED_GRAPHS[model](seed).
_PINNED_GRAPHS = {
    "gnm": lambda s: gnm(96, 30 * 96, seed=s),
    "d_regular": lambda s: d_regular(96, 42, seed=s),
    "parallel_gadgets": lambda s: parallel_gadgets(160, 60, seed=s),
    "torus": lambda s: torus(100, seed=s),
}
_PINNED = {
    ("gnm", 1, 1): "961383d9e8bfe136ff04391a3d9505bb"
                   "9f64e790a614f316db2cf527e68a24ba",
    ("gnm", 1, 2): "89ccd65ef0ff0dae9537539603f8bf7d"
                   "9d0f515b47e1746e20026db86f789387",
    ("gnm", 1, 3): "3f4372e2d71c8d14f1bf0616e2e462fa"
                   "0656e94f020766349bb1e6739f211b0e",
    ("gnm", 2, 1): "6ca5f2261f8a579dc7d031cf35850efe"
                   "904364aec6aa7ff63b408833967a81ed",
    ("gnm", 2, 2): "467b074836734269d6bcb6bf57e3ded3"
                   "d29268eb288db4fd2533fd114b13b9a7",
    ("gnm", 2, 3): "b2e80252fc999eefef12da15d1f72ec1"
                   "6a11dc28c371b1933ac6d9561d2f6d7b",
    ("d_regular", 1, 1): "274f04ae0d799df2b03b7b58de86783e"
                         "65263c61f0d00a3bc3d1f17622e297e7",
    ("d_regular", 1, 2): "1ca9cba0c31863c1f33bb7f1baa6e87c"
                         "2c7d03b3445bb36b2a8beee10262da71",
    ("d_regular", 1, 3): "fee25adbc914ef35421dcdf550bcba69"
                         "e6171682b1dd1323303b148398f80fd1",
    ("d_regular", 2, 1): "3dd367e337ca431b405311ac7e463e44"
                         "74e5b3b4769b867fc0c3f264c51e63cb",
    ("d_regular", 2, 2): "78c294fc632b328d879347f74fdcfdce"
                         "ed01781a36b44c5c5361026a2f990fd3",
    ("d_regular", 2, 3): "8563efc6e9ddde491ffd1f062423b155"
                         "a9f0717f4293b96f302786c697b7a569",
    ("parallel_gadgets", 1, 1): "50a05f2af7073291762b3618996fac8d"
                                "da6c4e6ef40ed6161f5a45ccb49586e6",
    ("parallel_gadgets", 1, 2): "e31a7be8d2596344138e29e4e3493b65"
                                "7f63ca05ee4f6e4e970b309e5b3c29cc",
    ("parallel_gadgets", 1, 3): "4e7fc091754b15d8085d91dda33d928f"
                                "2c7761fcb5847ee4a75ea4fd87c0cd2f",
    ("parallel_gadgets", 2, 1): "b8bbbad3111fec9cbe00315130073dd4"
                                "71838e2ac6e92286e903943d0702d51e",
    ("parallel_gadgets", 2, 2): "cc34f7689050ceedd4536c12a0d2cad5"
                                "90713a4a7118e04d6311f2f8516752d2",
    ("parallel_gadgets", 2, 3): "fafe270d9d6adc77163d6b9da408a1db"
                                "173f1ac7a96325ca3aeb54d871ed4a22",
    ("torus", 1, 1): "87ce2b93841d587ea65522479bb56b0f"
                     "d0642bb5935c6746caa9f5a1eb291c79",
    ("torus", 1, 2): "a6a6d4fbbe1c777b2bc2c9b5f07a00f5"
                     "15a008964f446f9d4ba13850bf85efc5",
    ("torus", 1, 3): "5dc41857aa1aef48782f72259398a88f"
                     "9842a20efda1ef967ed5daf9e6975d6c",
    ("torus", 2, 1): "9498a223c0c093951e8391ca09c2945d"
                     "a3f4d594b68a637cb85484c3258babc9",
    ("torus", 2, 2): "90cc4fdfc9dbae0fc9ca4ac1919ecc7f"
                     "ea3841df55b3e0838d6505b13c6a1bd7",
    ("torus", 2, 3): "94374921506b50f035cc6c5513c210c3"
                     "1f1a2b3bead076d99189a558c3db9da1",
}
# dreg-c2's graph, where a level-0 round recurses (sparsify, level 1).
_PINNED_RECURSING = ("b52f0014f68bf7b1e941b238b11e6bef"
                     "d605c605e54f83915ddec4b08332ede9")


def _output_digest(g, c, seed):
    text = decomposition_to_json(decompose(g, EngineConfig(c=c, seed=seed)),
                                 c, seed)
    return hashlib.sha256(text.encode()).hexdigest()


def test_decompose_output_pinned():
    """The decomposition bytes stay those recorded when the deepest
    level's tree split moved from 4*ceil(sqrt(m_i)) to ceil(sqrt(m_i)),
    which changes which cycles a round finds (the torus pins kept their
    bytes: at m = 2n decompose runs no round): a change that only makes
    the engine faster must not move a single byte."""
    got = {key: _output_digest(_PINNED_GRAPHS[key[0]](key[2]), *key[1:])
           for key in _PINNED}
    assert got == _PINNED
    assert _output_digest(d_regular(4632, 41, seed=1), 2, 1) \
        == _PINNED_RECURSING


def test_pipeline_builds_no_cycle_objects(monkeypatch):
    """decompose -> JSON -> decomposition_from_dict -> verify carries the
    cycles as arrays from end to end: no Cycle is constructed."""
    made = []
    real_init = Cycle.__init__

    def counted_init(self, *args, **kwargs):
        made.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Cycle, "__init__", counted_init)
    g = parallel_gadgets(160, 60)
    dec = decompose(g, EngineConfig(c=2, seed=1))
    text = decomposition_to_json(dec, 2, 1)
    back = decomposition_from_dict(json.loads(text))
    rep = verify_decomposition(g, back, 20 * g.n_active, 10 ** 9)
    assert rep.valid and rep.length_histogram
    assert made == []
    assert len(back.cycles) == sum(rep.length_histogram.values())
    assert made


@pytest.mark.parametrize("model", sorted(_PINNED_GRAPHS))
def test_json_round_trip_is_byte_identical(model):
    for c in (1, 2):
        text = decomposition_to_json(
            decompose(_PINNED_GRAPHS[model](1), EngineConfig(c=c, seed=1)),
            c, 1)
        back = decomposition_from_dict(json.loads(text))
        assert decomposition_to_json(back, c, 1) == text


def test_verify_reads_the_cycle_list_once_built():
    """Once `cycles` has been read, the list is the decomposition: a
    cycle inserted into it, repeating another's edges, is reported."""
    g = parallel_gadgets(160, 60)
    dec = decompose(g, EngineConfig(c=2, seed=1))
    assert verify_decomposition(g, dec, 20 * g.n_active, 10 ** 9).valid
    first = dec.cycles[0]
    dec.cycles.insert(3, Cycle(list(first.edges), list(first.vertices)))
    rep = verify_decomposition(g, dec, 20 * g.n_active, 10 ** 9)
    assert not rep.valid
    assert [str(v) for v in rep.violations] == [
        f"duplicate (cycle 3): edge {e} appears twice" for e in first.edges]
    assert decomposition_to_dict(dec, 2, 1)["cycles"][3] == first.edges


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
