"""The public API as literal name lists, so that any addition or removal
shows as a diff of this file."""

import types

import scx
from scx import cycle, fine_e_polynomial

PACKAGE = [
    "DimensionMismatch", "DuplicateVertexInFacet", "EVector", "FVector", "FaceNotInComplex",
    "FacetFormatError", "FineEPolynomial", "HVector", "HypothesisNotMet", "IntPolynomial",
    "InternalInconsistency", "InvalidLabel", "InvalidParameter", "LinkIdentityResult",
    "NotAnEVector", "NotAnHVector", "PropertyReport", "ScxError", "SimplicialComplex", "TooLarge",
    "Verdict", "VoidComplex", "bit_indices", "boundary_simplex", "check_classical_ds",
    "check_general_ds", "check_join_property_e", "check_link_identity", "check_property_e",
    "check_weak_property_e", "classify", "coarse_from_fine", "cross_polytope", "cycle",
    "e_polynomial", "e_to_f", "enumerate_all_complexes", "evaluate_coarse", "evaluate_e_poly_exact",
    "f_polynomial", "f_to_e", "f_to_h", "fine_e_polynomial", "free_module_series_eval",
    "from_facets", "full_simplex", "graded_dimension", "h_poly_from_f_poly", "h_polynomial",
    "h_to_e", "h_to_f", "is_connected", "is_eulerian", "is_eulerian_sphere", "make",
    "minimal_nonfaces", "parse_facet_text", "pascal_matrices", "random_complex", "shift_poly",
    "taylor_coefficient", "vector_json", "whiskered_cycle",
]

SIMPLICIAL_COMPLEX = [
    "dimension", "euler_characteristics", "f_vector", "faces", "facet_masks", "facets",
    "has_face", "is_pure", "is_void", "join", "kind", "labels", "link", "n", "suspension",
    "to_facet_text",
]

FINE_E_POLYNOMIAL = ["coefficient", "d", "labels", "n", "sorted_terms", "superset_sum"]


def _public(names):
    return sorted(n for n in names if not n.startswith("_"))


def test_package_names():
    # submodules are left out: scx.cli is an attribute only once something imports it
    assert _public(n for n, obj in vars(scx).items()
                   if not isinstance(obj, types.ModuleType)) == PACKAGE


def test_complex_and_fine_polynomial_attributes():
    # instances, so that the attributes set by the constructors count too
    c = cycle(4)
    assert _public(dir(c)) == SIMPLICIAL_COMPLEX
    assert _public(dir(fine_e_polynomial(c))) == FINE_E_POLYNOMIAL
