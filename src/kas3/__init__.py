"""Exact toolkit: triangular-configuration matchings, 3-matrix permanents and
determinants, Kasteleyn-style signings, binary-code enumerators and dimer counts."""

from .algebra import BinaryCode, Polynomial, fold_enumerator, weight_enumerator
from .core import (
    TriangularConfiguration,
    cycle_space_weight_enumerator,
    defect,
    enumerate_matchings_with_defect_within,
    enumerate_perfect_strong_matchings,
    find_edge_tripartition,
    find_vertex_tripartition,
    perfect_matching_polynomial,
    perfect_matchings,
    validate,
)
from .gadgets import (
    Gadget,
    ReductionResult,
    link_by_mtt,
    make_matching_triangular_triangle,
    make_s5,
    make_tunnel,
    tripartite_reduction,
)
from .kasteleyn_construct import (
    TConstruction,
    build_T,
    certify_trivial_signing,
    strong_matching_bijection_check,
)
from .lattice import CubicLattice, cubic_lattice, dimer_polynomial, embed_T
from .tensor3 import (
    BipartiteGraph,
    RectMatrixTriple,
    Tensor3,
    apply_signing,
    binet_cauchy_C,
    binet_cauchy_rhs,
    determinant2,
    determinant3,
    find_pfaffian_signing,
    kasteleyn_sign_via_k1,
    permanent2,
    permanent3,
    projection_graphs,
    triadjacency,
    vertex_adjacency,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
