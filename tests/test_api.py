"""The public API as literal name lists, so that any addition or removal
shows as a diff of this file."""

import ast
import re
import subprocess
import sys
import types
from itertools import product
from pathlib import Path

import pytest

import scx
from scx import complexes, errors, hilbert, properties, vectors
from scx import (EVector, FVector, HVector, IntPolynomial, LinkIdentityResult, PropertyReport, Verdict,
                 check_link_identity, classify, cycle, enumerate_all_complexes, f_to_e, f_to_h,
                 fine_e_polynomial, graded_dimension, minimal_nonfaces, taylor_coefficient)

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
    "minimal_nonfaces", "parse_facet_text", "random_complex", "shift_poly",
    "taylor_coefficient", "vector_json", "whiskered_cycle",
]

SIMPLICIAL_COMPLEX = [
    "dimension", "euler_characteristics", "f_vector", "faces", "facet_masks", "facets",
    "has_face", "is_pure", "is_void", "join", "labels", "link", "n", "suspension",
    "to_facet_text",
]

FINE_E_POLYNOMIAL = ["coefficient", "d", "labels", "n", "sorted_terms", "superset_sum"]

# the value types are tuples, so count and index come with them
INT_VECTOR = ["count", "d", "index"]

INT_POLYNOMIAL = ["coeffs", "compose_linear", "count", "degree", "derivative", "index"]

VERDICT = ["count", "index", "ok", "witness"]

LINK_IDENTITY_RESULT = ["count", "hypothesis_met", "index", "note", "ok"]

PROPERTY_REPORT = [
    "classical_ds", "count", "eulerian", "eulerian_sphere", "general_ds", "index", "property_e",
    "pure", "to_dict", "weak_property_e", "witness",
]


def _public(names):
    return sorted(n for n in names if not n.startswith("_"))


def _package_names():
    # submodules are left out: scx.cli is an attribute only once something imports it
    return _public(n for n, obj in vars(scx).items() if not isinstance(obj, types.ModuleType))


def test_package_names():
    assert _package_names() == PACKAGE


def test_each_module_all_is_what_the_package_exports():
    # every name in a module's __all__ is the package's own object, and those
    # lists with the error classes are all the package exports
    exported = set()
    for module in (complexes, hilbert, properties, vectors):
        for name in module.__all__:
            assert getattr(scx, name, None) is getattr(module, name), f"{module.__name__}.{name}"
        exported.update(module.__all__)
    error_classes = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, errors.ScxError)}
    for name in error_classes:
        assert getattr(scx, name) is getattr(errors, name)
    assert sorted(exported | error_classes) == _package_names()


def test_complex_and_fine_polynomial_attributes():
    # instances, so that the attributes set by the constructors count too
    c = cycle(4)
    assert _public(dir(c)) == SIMPLICIAL_COMPLEX
    assert _public(dir(fine_e_polynomial(c))) == FINE_E_POLYNOMIAL


C4 = cycle(4)
VALUES = [(C4.f_vector(), INT_VECTOR), (f_to_e(C4.f_vector()), INT_VECTOR),
          (f_to_h(C4.f_vector()), INT_VECTOR), (IntPolynomial((1, 2)), INT_POLYNOMIAL),
          (Verdict(False, "w"), VERDICT), (check_link_identity(C4), LINK_IDENTITY_RESULT),
          (classify(C4), PROPERTY_REPORT)]


@pytest.mark.parametrize("value, names", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_type_attributes(value, names):
    assert _public(dir(value)) == names
    for name in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)


def test_int_tuples_equal_only_their_own_class():
    for cls in (FVector, HVector, IntPolynomial):
        a, b = cls((1, 2, 1)), cls([1, 2, 1])
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != (1, 2, 1) and (1, 2, 1) != a and not a == (1, 2, 1)
    assert FVector((1,)) != EVector((1,)) and not FVector((1,)) == EVector((1,))
    assert IntPolynomial((1,)) != FVector((1,))
    assert {FVector((1, 3)), FVector((1, 3)), HVector((1, 3))} == {FVector((1, 3)), HVector((1, 3))}


def test_records_compare_and_hash_by_their_fields():
    for a, b in ((Verdict(True), Verdict(True, None)),
                 (LinkIdentityResult(True, False, "n"), LinkIdentityResult(True, False, "n")),
                 (classify(C4), classify(cycle(4)))):
        assert a == b and hash(a) == hash(b)
    assert Verdict(False, "w") != Verdict(False, "v")
    assert not Verdict(False, "w") and Verdict(True) and not LinkIdentityResult(False, True)


def test_property_report_dict_keeps_the_field_order():
    assert list(classify(C4).to_dict()) == [
        "property_e", "weak_property_e", "classical_ds", "general_ds", "eulerian",
        "eulerian_sphere", "pure", "witness"]


def test_reprs_name_the_class_and_the_values():
    assert repr(FVector((1, 4, 4))) == "FVector((1, 4, 4))"
    assert repr(EVector((1,))) == "EVector((1,))"
    assert repr(IntPolynomial((1, 2, 0))) == "IntPolynomial((1, 2))"
    assert repr(IntPolynomial()) == "IntPolynomial(())"
    assert repr(Verdict(False, "w")) == "Verdict(ok=False, witness='w')"
    assert repr(LinkIdentityResult(True, True)) == "LinkIdentityResult(ok=True, hypothesis_met=True, note=None)"
    report = classify(C4)
    assert repr(report) == "PropertyReport(" + ", ".join(f"{k}={v!r}" for k, v in report.to_dict().items()) + ")"
    for value in (FVector((1, 4, 4)), HVector((1, 2, 1)), IntPolynomial((0, -3))):
        assert eval(repr(value)) == value


def test_importing_the_cli_loads_neither_dataclasses_nor_fractions():
    # -S: no site hooks, so only scx's own imports count
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import scx.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules))); "
            "print(type(scx.evaluate_e_poly_exact((1, -3, 2, 1), 3)).__name__)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "Fraction"]


def _module_container_sizes():
    return {(name, attr): len(obj) for name, mod in sys.modules.items()
            if name == "scx" or name.startswith("scx.")
            for attr, obj in vars(mod).items()
            if not attr.startswith("__") and isinstance(obj, (dict, list, set))}


def test_nothing_is_cached_at_module_level():
    # fresh complexes, so that every per-complex table is built during the test
    before = _module_container_sizes()
    for c in enumerate_all_complexes(4):
        classify(c)
        minimal_nonfaces(c)
        p = fine_e_polynomial(c)
        for a in product(range(2), repeat=c.n):
            assert graded_dimension(c, a) == taylor_coefficient(p, a)
    assert before and _module_container_sizes() == before


def _cross_call_state(node, scope=""):
    """Each global statement and functools cache under node, named with the
    functions and classes that hold it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _cross_call_state(child, f"{scope}{child.name}.")
        elif isinstance(child, ast.Global):
            yield f"{scope}global {', '.join(child.names)}"
        elif isinstance(child, ast.ImportFrom) and child.module == "functools":
            yield from (f"{scope}functools.{a.name}" for a in child.names if a.name in ("cache", "lru_cache"))
        elif (isinstance(child, ast.Attribute) and child.attr in ("cache", "lru_cache")
              and isinstance(child.value, ast.Name) and child.value.id == "functools"):
            yield f"{scope}functools.{child.attr}"
        else:
            yield from _cross_call_state(child, scope)


def test_the_only_cross_call_state_is_the_packing_slot():
    # state that outlives a call is listed here on purpose: the benchmark's
    # cold-state check sees only lru_caches, and a module-level variable is
    # shared by every caller in the process
    found = {(path.name, state) for path in Path(scx.__file__).parent.glob("*.py")
             for state in _cross_call_state(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("hilbert.py", "_support_mask.global _last")}


def test_only_complexes_reads_the_shared_faces():
    # the shared faces, their counting formula, the vertex bitsets and the
    # unchecked builder are one module's format: no other module names them,
    # as whole identifiers
    private = [re.compile(rf"\b{name}\b") for name in ("_shared", "_face_counts", "_holders", "_of_antichain")]
    sources = {p.name: p.read_text(encoding="utf-8") for p in Path(scx.__file__).parent.glob("*.py")}
    assert all(name.search(sources["complexes.py"]) for name in private)
    readers = {(file, name.pattern) for file, text in sources.items() if file != "complexes.py"
               for name in private if name.search(text)}
    assert not readers
    # the face set and the minimal non-faces: built here, read by the graded queries
    faces = re.compile(r"\b_faces\b")
    assert {file for file, text in sources.items() if faces.search(text)} == {"complexes.py", "hilbert.py"}
