"""Acceptance gate: one test per release criterion, one pass/fail line each.

Criteria 1-8 cover end-to-end validity, exact subroutine bounds, clustering
guarantees, per-call yield, cycle-length scaling, runtime scaling, agreement
with the exhaustive oracle at small scale, and byte-level determinism.
"""
import itertools
import math
import random
import statistics
import time
from fractions import Fraction

import numpy as np

from shortcycles import (EngineConfig, MultiGraph,
                         brute_force_short_cycles, contract, decompose,
                         graph_reduce, improved_short_cycle, low_diam_decomp,
                         measure_diameter, naive_short_cycle, pull_up,
                         short_cycle_decomp, sparsify, tree_split,
                         verify_decomposition)
from shortcycles.engine import _introot
from shortcycles.io import (d_regular, decomposition_to_json, gnm,
                            parallel_gadgets, torus)
from shortcycles.ldd import single_cluster
from shortcycles.primitives import Cycle, VertexDisjointCycleSet

from conftest import (connected_components, part_trees, parts_of,
                      random_multigraph, tree_degrees)


def _report(capsys, label, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}{tail}", flush=True)


def _covered(cs):
    seen = set()
    for c in cs.cycles:
        seen.update(c.vertices)
    return len(seen)


def _cycle_walk_ok(g, c):
    if len(c.edges) != len(c.vertices) or not c.edges:
        return False
    if len(set(c.edges)) != len(c.edges):
        return False
    if len(set(c.vertices)) != len(c.vertices):
        return False
    for i, e in enumerate(c.edges):
        u = c.vertices[i]
        v = c.vertices[(i + 1) % len(c.vertices)]
        a, b = g.endpoints(e)
        if not ({a, b} == {u, v} or u == v == a == b):
            return False
    return True


# -- criterion 1: decomposition validity ------------------------------------

def _corpus_1():
    cases = []
    # Dense cells, m > 20n: the engine must extract cycles.
    for model in ("gnm", "d_regular", "parallel_gadgets"):
        for c in (1, 2, 3):
            for s in (0, 1, 2):
                cases.append((model, 256, 30, c, s))
            for s in (0, 1):
                cases.append((model, 256, 60, c, s))
            cases.append((model, 1024, 30, c, 0))
    cases.append(("gnm", 1024, 60, 1, 0))
    cases.append(("gnm", 4096, 30, 1, 0))
    # Sparse and torus cells, m <= 20n: leftover-only is the valid answer.
    for model in ("gnm", "d_regular", "parallel_gadgets"):
        for c in (1, 2, 3):
            for s in range(8):
                cases.append((model, 256, 5, c, s))
            for s in range(5):
                cases.append((model, 1024, 5, c, s))
    for n, seeds in ((256, 6), (1024, 3), (4096, 1)):
        for c in (1, 2, 3):
            for s in range(seeds):
                cases.append(("torus", n, 2, c, s))
    cases.append(("gnm", 4096, 5, 2, 0))
    cases.append(("d_regular", 4096, 5, 3, 0))
    cases.append(("parallel_gadgets", 4096, 5, 1, 0))
    return cases


def _build(model, n, dens, seed):
    if model == "gnm":
        return gnm(n, dens * n, seed=seed)
    if model == "d_regular":
        return d_regular(n, 2 * dens, seed=seed)
    if model == "parallel_gadgets":
        return parallel_gadgets(n, 2 * dens)
    return torus(n)


def test_criterion_1_decomposition_validity(capsys):
    start = time.perf_counter()
    cases = _corpus_1()
    assert len(cases) >= 200
    bad = []
    for model, n, dens, c, s in cases:
        g = _build(model, n, dens, s)
        dec = decompose(g, EngineConfig(c=c, seed=s))
        rep = verify_decomposition(g, dec, 20 * g.n_active, 10 ** 9)
        total = sum(len(cc) for cc in dec.cycles) + len(dec.leftover)
        if not rep.valid or total != g.m_active:
            bad.append((model, n, dens, c, s, rep.violations[:3]))
    ok = not bad
    elapsed = time.perf_counter() - start
    _report(capsys, "criterion 1: 200+ seeded decompositions valid, edges conserved",
            ok, f"{len(cases)} runs, {elapsed:.1f}s")
    assert ok, bad[:5]


# -- criterion 2: exact subroutine bounds -----------------------------------

def test_criterion_2_graph_reduce_bounds(capsys):
    rng = random.Random(2001)
    bad = []
    for trial in range(200):
        n = rng.randrange(2, 40)
        m = rng.randrange(n, 6 * n)
        g = random_multigraph(rng, n, m)
        rm = graph_reduce(g)
        cap = -(-2 * m // n)
        if not (rm.h.n_total <= 2 * n and rm.h.m_active == m
                and max(rm.h.deg) <= cap):
            bad.append(trial)
    ok = not bad
    _report(capsys, "criterion 2a: graph_reduce |V|<=2n, |E|=m, max deg <= ceil(2m/n)",
            ok, "200 instances")
    assert ok, bad


def _random_tree_with_labels(rng, n):
    """A random tree's forest, labels, D (its maximum degree, from the
    forest) and X (the label cap)."""
    g = MultiGraph(n)
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v)
    ldd = single_cluster(g, list(range(n)))
    cap = rng.randrange(1, 16)
    labels = np.array([rng.randrange(0, cap + 1) for v in range(n)])
    return ldd, labels, int(tree_degrees(ldd.parent).max()), cap


def test_criterion_2_tree_split_window(capsys):
    rng = random.Random(2002)
    bad = []
    trials = 0
    while trials < 200:
        n = rng.randrange(2, 50)
        ldd, labels, max_deg, label_cap = _random_tree_with_labels(rng, n)
        total = int(labels.sum())
        if total < 1:
            continue
        trials += 1
        t = rng.randrange(1, total + 1)
        parts = parts_of(tree_split(ldd, labels, t))
        hi = max_deg * t + label_cap
        if sorted(v for p in parts for v in p) != list(range(n)):
            bad.append(trials)
            continue
        for p in parts:
            s = int(labels[p].sum())
            if not (t <= s <= hi):
                bad.append(trials)
    ok = not bad
    _report(capsys, "criterion 2b: tree_split part sums within [t, D*t + X]",
            ok, "200 instances")
    assert ok, bad


def test_criterion_2_sparsify_bounds(capsys):
    rng = random.Random(2003)
    bad = []
    for trial in range(200):
        n = rng.randrange(2, 40)
        m = rng.randrange(max(1, n // 2), 10 * n)
        g = random_multigraph(rng, n, m)
        k = rng.randrange(1, m + 1)
        out = sparsify(g, k)
        delta = g.max_degree()
        if not (out.m_active == k
                and max(out.deg) * m <= (2 * k + 4 * n) * delta):
            bad.append(trial)
    ok = not bad
    _report(capsys, "criterion 2c: sparsify exactly k edges, "
            "max deg <= (2k+4n)*maxdeg/m", ok, "200 instances")
    assert ok, bad


def test_criterion_2_naive_short_cycle_bounds(capsys):
    bad = []
    rng = random.Random(2004)
    for trial in range(200):
        n = rng.randrange(6, 50)
        d = rng.choice([3, 4, 5, 6, 7, 8])
        if n * d % 2:
            n += 1
        g = d_regular(n, d, seed=trial)
        out = naive_short_cycle(g)
        bound = 2 * math.log2(g.n_active)
        seen = set()
        good = True
        for c in out.cycles:
            if len(c) > bound or (set(c.vertices) & seen):
                good = False
            seen.update(c.vertices)
        if out.total_vertices * g.max_degree() < g.m_active - 2 * g.n_active:
            good = False
        if not good:
            bad.append(trial)
    ok = not bad
    _report(capsys, "criterion 2d: naive cycles <= 2*log2(n) long, "
            "yield >= (m-2n)/maxdeg", ok, "200 instances")
    assert ok, bad


def _one_contraction_round(rng, seed):
    g = gnm(18, 80, seed=seed)
    comp = max(connected_components(g), key=len)
    if len(comp) < 6:
        return None
    ldd = single_cluster(g, comp)
    part = tree_split(ldd, np.array(g.deg), rng.choice([6, 8, 10]))
    trees = part_trees(g, parts_of(part))
    exclude = trees[1][trees[1] >= 0]
    cm = contract(g, part, exclude)
    cyc = VertexDisjointCycleSet()
    used = set()
    first = {}
    for he in range(cm.h.m_total):
        a, b = cm.h.endpoints(he)
        if a == b:
            if a not in used:
                cyc.add(Cycle(edges=[he], vertices=[a]))
                used.add(a)
            continue
        key = (min(a, b), max(a, b))
        if first.get(key, -1) >= 0 and not ({a, b} & used):
            cyc.add(Cycle(edges=[first[key], he], vertices=[key[0], key[1]]))
            used.update(key)
            first[key] = -1
        elif key not in first:
            first[key] = he
    return g, cm, trees, cyc


def test_criterion_2_pull_up_disjoint_and_covering(capsys):
    rng = random.Random(2005)
    bad = []
    trials = 0
    seed = 0
    while trials < 200:
        built = _one_contraction_round(rng, seed)
        seed += 1
        if built is None or not built[3].cycles:
            continue
        trials += 1
        g, cm, trees, cyc = built
        out = pull_up(g, cm.part_of, cm.f, *trees, cyc)
        seen = set()
        good = len(out.cycles) == len(cyc.cycles)
        for c in out.cycles:
            if not _cycle_walk_ok(g, c) or (set(c.vertices) & seen):
                good = False
            seen.update(c.vertices)
        if len(seen) < cyc.total_vertices:
            good = False
        if not good:
            bad.append(seed - 1)
    ok = not bad
    _report(capsys, "criterion 2e: pull_up output vertex-disjoint, covers >= input",
            ok, "200 instances")
    assert ok, bad


# -- criterion 3: low-diameter decomposition guarantees ---------------------

def test_criterion_3_ldd_guarantees(capsys):
    beta = Fraction(1, 12)
    cap = math.ceil(48 * math.log(501))
    bad = []
    for seed in range(100):
        g = gnm(500, 5000, seed=seed)
        res = low_diam_decomp(g, beta, seed=seed)
        good = 12 * len(res.removed) <= g.m_active and res.retries <= 20
        cut = g.copy()
        for e in res.removed:
            cut.delete_edge(e)
        for cluster in res.clusters:
            if measure_diameter(cut, cluster) > cap:
                good = False
        if not good:
            bad.append(seed)
    ok = not bad
    _report(capsys, "criterion 3: 100 clusterings, cut <= m/12, measured diameter "
            "<= ceil(48 ln 501), retries <= 20", ok)
    assert ok, bad


# -- criterion 4: per-call yield bound --------------------------------------

def test_criterion_4_yield_bound(capsys):
    bad = []
    for seed in range(6):
        g = d_regular(300 + 60 * seed, 20, seed=seed)
        m, delta = g.m_active, g.max_degree()
        out = improved_short_cycle(g, EngineConfig(c=1, seed=seed))
        if _covered(out) * 10 * delta < m:
            bad.append(("improved", seed))
    for seed in range(4):
        n = 600 + 100 * seed
        g = gnm(n, 10 * n, seed=seed)
        m, delta = g.m_active, g.max_degree()
        cfg = EngineConfig(c=2, seed=seed)
        out = short_cycle_decomp(g, 0, cfg, max(2, _introot(2 * n, 3)))
        if _covered(out) * 10 * delta < m:
            bad.append(("scd", seed))
    ok = not bad
    _report(capsys, "criterion 4: every call covers >= m/(10*maxdeg) vertices", ok)
    assert ok, bad


# -- criterion 5: cycle-length scaling --------------------------------------

def _engine_max_len(n, c, seed):
    g = d_regular(n, 20, seed=seed)
    cfg = EngineConfig(c=c, seed=seed, greedy_rounds=False)
    if c == 1:
        out = improved_short_cycle(g, cfg)
    else:
        out = short_cycle_decomp(g, 0, cfg, max(2, _introot(2 * n, 3)))
    return max(len(cc) for cc in out.cycles)


def test_criterion_5_length_scaling(capsys):
    sizes = (2 ** 10, 2 ** 12, 2 ** 14)
    c_len = 0.0
    for n in sizes:
        for seed in (0, 1):
            c_len = max(c_len, _engine_max_len(n, 1, seed) / math.log2(n))
    bad = []
    for n in sizes:
        for seed in (0, 1):
            got = _engine_max_len(n, 2, seed)
            limit = (c_len * math.log2(n)) ** 2
            if got > limit:
                bad.append((n, seed, got, limit))
    ok = not bad and c_len > 0
    _report(capsys, "criterion 5: c=2 max cycle length <= (C_len*log2 n)^2",
            ok, f"C_len={c_len:.2f}")
    assert ok, bad


# -- criterion 6: runtime scaling -------------------------------------------

def _wall(n, c, seed):
    g = d_regular(n, 20, seed=100 + seed)
    cfg = EngineConfig(c=c, seed=seed, greedy_rounds=False)
    start = time.perf_counter()
    if c == 1:
        improved_short_cycle(g, cfg)
    else:
        short_cycle_decomp(g, 0, cfg, max(2, _introot(2 * n, 3)))
    return time.perf_counter() - start


def _median_walls(sizes, c):
    """Median wall time of each size over 5 seeds. The sizes' runs are
    interleaved seed by seed, so a change in host speed during the test
    weighs on every size alike instead of on one size's median."""
    times = {n: [] for n in sizes}
    for seed in range(5):
        for n in sizes:
            times[n].append(_wall(n, c, seed))
    return [statistics.median(times[n]) for n in sizes]


def test_criterion_6_runtime_scaling(capsys):
    results = []
    ok = True
    for c, bound in ((2, 2.6), (1, 3.2)):
        t13, t16 = _median_walls((2 ** 13, 2 ** 16), c)
        per_doubling = (t16 / t13) ** (1 / 3)
        results.append(f"c={c}: {per_doubling:.2f}/doubling "
                       f"(limit {bound}), {t16:.1f}s at 2^16")
        if per_doubling > bound:
            ok = False
    _report(capsys, "criterion 6: wall time per doubling, 2^13 -> 2^16, m=10n",
            ok, "; ".join(results))
    assert ok, results


# -- criterion 7: small-scale oracle agreement ------------------------------

def _exhaustive_connected(n, m_max):
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    for m in range(1, m_max + 1):
        for combo in itertools.combinations_with_replacement(pairs, m):
            g = MultiGraph(n)
            for u, v in combo:
                g.add_edge(u, v)
            comps = connected_components(g)
            if len(comps) == 1 and len(comps[0]) == n:
                yield g


def _check_against_brute(g, bad, tag):
    n = g.n_active
    l_max = int(2 * math.log2(n))
    out = naive_short_cycle(g)
    best = brute_force_short_cycles(g, l_max)
    seen = set()
    good = out.total_vertices <= best.total_vertices
    for c in out.cycles:
        if not _cycle_walk_ok(g, c) or len(c) > l_max \
                or (set(c.vertices) & seen):
            good = False
        seen.update(c.vertices)
    if not good:
        bad.append(tag)


def test_criterion_7_oracle_equivalence_small(capsys):
    bad = []
    count = 0
    for n in (2, 3, 4):
        for g in _exhaustive_connected(n, 6):
            count += 1
            _check_against_brute(g, bad, ("exh", n, count))
    rng = random.Random(7001)
    for trial in range(1000):
        n = rng.randrange(5, 13)
        m = rng.randrange(2, 15)
        g = random_multigraph(rng, n, m)
        if g.m_active == 0:
            continue
        _check_against_brute(g, bad, ("rand", trial))
    ok = not bad
    _report(capsys, "criterion 7: peel never beats the exhaustive optimum, "
            "all outputs valid", ok, f"{count} exhaustive + 1000 random")
    assert ok, bad[:5]


# -- criterion 8: determinism -----------------------------------------------

def test_criterion_8_determinism(capsys):
    corpora = [
        (gnm(64, 2000, seed=0), 1, 0),
        (gnm(100, 3000, seed=1), 2, 1),
        (d_regular(64, 50, seed=2), 1, 2),
        (parallel_gadgets(100, 120), 2, 3),
        (torus(256), 1, 4),
    ]
    bad = []
    for ix, (g, c, seed) in enumerate(corpora):
        blobs = set()
        for _ in range(20):
            dec = decompose(g, EngineConfig(c=c, seed=seed))
            blobs.add(decomposition_to_json(dec, c, seed).encode())
        if len(blobs) != 1:
            bad.append(ix)
    ok = not bad
    _report(capsys, "criterion 8: 20 repetitions x 5 corpora, byte-identical JSON",
            ok)
    assert ok, bad
