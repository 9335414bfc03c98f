"""Shared builders for the test suite."""
import random

import numpy as np
import pytest

from shortcycles import MultiGraph
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


def multigraph_with_holes(seed: int, n: int, m: int) -> MultiGraph:
    """A random multigraph with loops, m/8 edges and n/10 vertices
    deleted."""
    rng = random.Random(seed)
    g = random_multigraph(rng, n, m)
    for e in rng.sample(range(m), m // 8):
        g.delete_edge(e)
    g.delete_vertices(rng.sample(range(n), n // 10))
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


def part_trees(g: MultiGraph, parts):
    """Every part's own BFS tree from its first vertex over edges inside
    the part, by the engine's forest builder, as one forest of per-vertex
    (parent, edge, depth) arrays, -1 off the forest (parent and edge also
    at the roots). A part whose first vertex is its lowest gets the tree
    single_cluster(g, part) has."""
    labels = np.full(g.n_total, -1, dtype=np.int64)
    for j, p in enumerate(parts):
        labels[p] = j
    order, parent, edge, layers = bfs_forest(
        flat_adjacency_np(g), [p[0] for p in parts], labels)
    out = np.full((3, g.n_total), -1, dtype=np.int64)
    out[0, order] = parent
    out[1, order] = edge
    out[2, order] = np.repeat(np.arange(len(layers) - 1), np.diff(layers))
    return out


def part_array(n_total: int, parts) -> np.ndarray:
    """Per-vertex part index of a list of vertex lists (-1: none)."""
    part = np.full(n_total, -1, dtype=np.int64)
    for j, p in enumerate(parts):
        part[p] = j
    return part


def parts_of(part) -> list[list[int]]:
    """The parts of a per-vertex part array, each ascending, by index."""
    part = np.asarray(part)
    return [np.flatnonzero(part == j).tolist()
            for j in range(int(part.max(initial=-1)) + 1)]


def tree_degrees(forest_parent) -> np.ndarray:
    """Per-vertex degree in a forest given by per-vertex parents."""
    parent = np.asarray(forest_parent)
    has = parent >= 0
    return np.bincount(parent[has], minlength=len(parent)) + has


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
