"""Short cycle decomposition toolkit.

Decomposes any undirected multigraph into edge-disjoint cycles of bounded
length plus at most 20n leftover edges, with verifiable per-stage
guarantees.
"""
from .engine import (CycleDecomposition, EngineConfig, EngineFailure,
                     decompose, improved_short_cycle, one_round_short_cycle,
                     short_cycle_decomp)
from .graph import ContractionMap, GraphError, MultiGraph, contract, tree_path
from .ldd import LddError, LddResult, low_diam_decomp
from .primitives import (Cycle, ReductionMap, VertexDisjointCycleSet,
                         graph_reduce, naive_short_cycle, pull_up, sparsify,
                         split_circuit, tree_split)
from .verify import (DecompositionReport, brute_force_short_cycles,
                     measure_diameter, verify_decomposition)

__all__ = [
    "ContractionMap", "Cycle", "CycleDecomposition", "DecompositionReport",
    "EngineConfig", "EngineFailure", "GraphError", "LddError", "LddResult",
    "MultiGraph", "ReductionMap", "VertexDisjointCycleSet", "brute_force_short_cycles", "contract",
    "decompose", "graph_reduce", "improved_short_cycle", "low_diam_decomp",
    "measure_diameter", "naive_short_cycle", "one_round_short_cycle",
    "pull_up", "short_cycle_decomp", "sparsify", "split_circuit",
    "tree_path", "tree_split", "verify_decomposition",
]

__version__ = "0.1.0"
