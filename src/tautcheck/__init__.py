"""Tautness analysis of normal surface singularities from their
resolution dual graphs.

Builds the plumbing-scheme restriction matrix for a dual graph, computes
its exact rank over Q and over prime fields, and reports the deformation
obstruction dimension h1 per characteristic together with the bad primes.
"""

__version__ = "0.1.0"

from .graph import (DualGraph, GraphError, intersection_matrix, is_connected,
                    is_negative_definite, parse_graph, preset_graph)
from .cycles import (CyclesError, MultiplicityPlan, anti_ample_cycle,
                     choose_j, fundamental_cycle, greedy_tau, is_anti_ample,
                     make_coprime_to_all, significant_multiplicity_to_all,
                     vanishing_floor)
from .sparse import SparseIntMatrix, SparseMatrixError, write_matrix_text
from .plumbing import (PlumbingError, PlumbingModel, assemble_matrix,
                       build_model, estimate_assembly)
from .linalg import (LinalgError, is_probable_prime, next_prime,
                     prove_rank_over_Q, rank_mod_p)

__all__ = [
    "DualGraph", "GraphError", "intersection_matrix",
    "is_connected", "is_negative_definite", "parse_graph", "preset_graph",
    "CyclesError", "MultiplicityPlan", "anti_ample_cycle", "choose_j",
    "fundamental_cycle", "greedy_tau", "is_anti_ample",
    "make_coprime_to_all", "significant_multiplicity_to_all",
    "vanishing_floor",
    "SparseIntMatrix", "SparseMatrixError", "write_matrix_text",
    "PlumbingError", "PlumbingModel", "assemble_matrix", "build_model",
    "estimate_assembly",
    "LinalgError", "is_probable_prime", "next_prime", "prove_rank_over_Q",
    "rank_mod_p",
]
