"""Tautness analysis of normal surface singularities from their
resolution dual graphs.

Builds the plumbing-scheme restriction matrix for a dual graph, computes
its exact rank over Q and over prime fields, and reports the deformation
obstruction dimension h1 per characteristic together with the bad primes.
"""

__version__ = "0.1.0"

from .graph import (DualGraph, GraphError, VertexData, intersection_matrix,
                    is_connected, is_negative_definite, parse_graph,
                    preset_graph, serialize_graph)
from .cycles import (CyclesError, MultiplicityPlan, anti_ample_cycle,
                     choose_j, exhaustive_tau_min, fundamental_cycle,
                     greedy_tau, is_anti_ample, make_coprime_to_all,
                     significant_multiplicity_to_all, step_vanishing_check,
                     vanishing_floor)
from .sparse import (SparseIntMatrix, SparseMatrixError, matrix_from_text,
                     matrix_to_text, read_matrix_text, write_matrix_text)
from .plumbing import (GeneratorColumn, PlumbingError, PlumbingModel,
                       assemble_matrix, build_model, enumerate_generators,
                       estimate_assembly, expand_at_point)
from .linalg import (LinalgError, is_probable_prime, next_prime,
                     prove_rank_over_Q, rank_mod_p)

__all__ = [
    "DualGraph", "GraphError", "VertexData", "intersection_matrix",
    "is_connected", "is_negative_definite", "parse_graph", "preset_graph",
    "serialize_graph",
    "CyclesError", "MultiplicityPlan", "anti_ample_cycle", "choose_j",
    "exhaustive_tau_min", "fundamental_cycle", "greedy_tau", "is_anti_ample",
    "make_coprime_to_all", "significant_multiplicity_to_all",
    "step_vanishing_check", "vanishing_floor",
    "SparseIntMatrix", "SparseMatrixError", "matrix_from_text",
    "matrix_to_text", "read_matrix_text", "write_matrix_text",
    "GeneratorColumn", "PlumbingError", "PlumbingModel",
    "assemble_matrix", "build_model", "enumerate_generators",
    "estimate_assembly", "expand_at_point",
    "LinalgError", "is_probable_prime", "next_prime", "prove_rank_over_Q",
    "rank_mod_p",
]
