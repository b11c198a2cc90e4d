"""Exact f/h/e-vector and exponential Hilbert series toolkit for abstract
simplicial complexes, with Dehn-Sommerville and related structural checks."""

from .complexes import (
    SimplicialComplex,
    bit_indices,
    boundary_simplex,
    cross_polytope,
    cycle,
    enumerate_all_complexes,
    from_facets,
    full_simplex,
    make,
    parse_facet_text,
    random_complex,
    whiskered_cycle,
)
from .errors import (
    DimensionMismatch,
    DuplicateVertexInFacet,
    FaceNotInComplex,
    FacetFormatError,
    HypothesisNotMet,
    InternalInconsistency,
    InvalidLabel,
    InvalidParameter,
    NotAnEVector,
    NotAnHVector,
    ScxError,
    TooLarge,
    VoidComplex,
)
from .hilbert import (
    FineEPolynomial,
    coarse_from_fine,
    evaluate_coarse,
    evaluate_e_poly_exact,
    fine_e_polynomial,
    free_module_series_eval,
    graded_dimension,
    minimal_nonfaces,
    taylor_coefficient,
)
from .properties import (
    LinkIdentityResult,
    PropertyReport,
    Verdict,
    check_classical_ds,
    check_general_ds,
    check_join_property_e,
    check_link_identity,
    check_property_e,
    check_weak_property_e,
    classify,
    is_connected,
    is_eulerian,
    is_eulerian_sphere,
)
from .vectors import (
    EVector,
    FVector,
    HVector,
    IntPolynomial,
    e_polynomial,
    e_to_f,
    f_polynomial,
    f_to_e,
    f_to_h,
    h_polynomial,
    h_poly_from_f_poly,
    h_to_e,
    h_to_f,
    pascal_matrices,
    shift_poly,
    vector_json,
)

__version__ = "0.1.0"
