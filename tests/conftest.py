"""Shared builders for the test suite."""
import random

import numpy as np
import pytest

from shortcycles import MultiGraph, SpanningTree
from shortcycles.graph import bfs_forest, flat_adjacency_np


def random_multigraph(rng: random.Random, n: int, m: int,
                      loops: bool = True) -> MultiGraph:
    """Uniform random endpoint pairs; parallel edges always possible."""
    g = MultiGraph(n)
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if not loops:
            while v == u:
                v = rng.randrange(n)
        g.add_edge(u, v)
    return g


def path_graph(n: int) -> MultiGraph:
    g = MultiGraph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle_graph(n: int) -> MultiGraph:
    g = MultiGraph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def star_graph(leaves: int) -> MultiGraph:
    """Vertex 0 is the center."""
    g = MultiGraph(leaves + 1)
    for i in range(1, leaves + 1):
        g.add_edge(0, i)
    return g


def recomputed_degrees(g: MultiGraph) -> list[int]:
    """Degree of every vertex slot from the raw edge arrays only."""
    deg = [0] * g.n_total
    for e in range(g.m_total):
        if not g.eactive[e]:
            continue
        u, v = g.eu[e], g.ev[e]
        if u == v:
            deg[u] += 2
        else:
            deg[u] += 1
            deg[v] += 1
    return deg


def connected_components(g: MultiGraph) -> list[list[int]]:
    """Maximal connected sets of active vertices, each in BFS order from
    its lowest vertex, one `bfs_forest` call per component over a shared
    visited array (the pattern sparsify's halving round uses)."""
    adj = flat_adjacency_np(g)
    one_label = np.zeros(g.n_total, dtype=np.int8)
    visited = np.zeros(g.n_total, dtype=bool)
    comps = []
    for s in g.active_vertices():
        if not visited[s]:
            order = bfs_forest(adj, [s], one_label, visited)[0]
            comps.append(order.tolist())
    return comps


def bfs_tree(g: MultiGraph, vertices) -> SpanningTree:
    """BFS tree of `vertices` from vertices[0] over edges inside the set,
    by the engine's forest builder; when vertices[0] is the lowest vertex
    it is single_cluster(g, vertices).tree(0)."""
    root = vertices[0]
    labels = np.zeros(g.n_total, dtype=np.int8)
    labels[vertices] = 1
    order, parent, edge, layers = bfs_forest(flat_adjacency_np(g), [root],
                                             labels)
    order = order.tolist()
    depth = np.repeat(np.arange(len(layers) - 1), np.diff(layers))
    return SpanningTree(
        root=root, order=order, depth=dict(zip(order, depth.tolist())),
        parent=dict(zip(order[1:], zip(parent[1:].tolist(),
                                       edge[1:].tolist()))))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
