"""Command line behavior: verbs, formats, piping, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scx import boundary_simplex, evaluate_coarse, parse_facet_text
from scx.cli import run

EX3_TEXT = "facet 1 2 3\nfacet 2 4\nfacet 3 4\n"


def cli(args, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(args, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def ex3_file(tmp_path):
    path = tmp_path / "ex3.scx"
    path.write_text(EX3_TEXT)
    return str(path)


# -- vectors ------------------------------------------------------------------

def test_vectors_json(ex3_file):
    code, out, err = cli(["vectors", ex3_file])
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "d": 3,
        "f": ["1", "4", "5", "1"],
        "h": ["1", "1", "0", "-1"],
        "e": ["1", "-3", "2", "1"],
    }


def test_vectors_pretty(ex3_file):
    code, out, _ = cli(["vectors", ex3_file, "--pretty"])
    assert code == 0
    assert "f = (1, 4, 5, 1)" in out
    assert "e = (1, -3, 2, 1)" in out


def test_vectors_stdin_matches_file(ex3_file):
    from_file = cli(["vectors", ex3_file])
    from_stdin = cli(["vectors", "-"], stdin_text=EX3_TEXT)
    assert from_file == from_stdin


# -- make and piping ---------------------------------------------------------------

def test_make_boundary_simplex_pipes_into_check():
    code, text, _ = cli(["make", "boundary-simplex", "3"])
    assert code == 0
    assert text == boundary_simplex(3).to_facet_text()
    code, out, _ = cli(["check", "-"], stdin_text=text)
    assert code == 0
    payload = json.loads(out)
    assert payload["property_e"] is True
    assert payload["eulerian"] is True
    assert payload["eulerian_sphere"] is True
    assert payload["witness"] is None


def test_make_pipe_equals_file_roundtrip(tmp_path):
    code, text, _ = cli(["make", "cycle", "5"])
    assert code == 0
    path = tmp_path / "c5.scx"
    path.write_text(text)
    assert cli(["vectors", str(path)]) == cli(["vectors", "-"], stdin_text=text)
    # serialization is canonical: parse and re-emit is the identity
    assert parse_facet_text(text).to_facet_text() == text


def test_make_random_deterministic():
    first = cli(["make", "random", "6", "4", "3", "--seed", "7"])
    second = cli(["make", "random", "6", "4", "3", "--seed", "7"])
    assert first == second and first[0] == 0
    different = cli(["make", "random", "6", "4", "3", "--seed", "8"])
    assert different[1] != first[1]


# -- series ---------------------------------------------------------------------------

def test_series_fine_and_eval(ex3_file):
    code, out, _ = cli(["series", ex3_file, "--fine", "--eval", "0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == ["1", "-3", "2", "1"]
    terms = {tuple(term["subset"]): term["coeff"] for term in payload["fine"]}
    assert terms[()] == "1"
    assert terms[("1", "2", "3")] == "1"
    assert ("1",) not in terms           # zero coefficients stay sparse
    expected = evaluate_coarse((1, -3, 2, 1), 0.5)
    assert payload["eval"]["t"] == 0.5
    assert payload["eval"]["value"] == pytest.approx(expected, rel=1e-15)


def test_series_fine_pretty_lists_the_terms(ex3_file):
    code, out, err = cli(["series", ex3_file, "--fine", "--pretty"])
    assert (code, err) == (0, "")
    assert out == ("e = (1, -3, 2, 1)\n"
                   "c{} = 1\nc{2} = -1\nc{3} = -1\nc{4} = -1\n"
                   "c{2 4} = 1\nc{3 4} = 1\nc{1 2 3} = 1\n")


def test_series_defaults_omit_optional_keys(ex3_file):
    payload = json.loads(cli(["series", ex3_file])[1])
    assert set(payload) == {"e"}


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which RFC 8259 does not allow."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


PATH_TEXT = "facet a b\nfacet b c\n"


@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "1e999"])
def test_series_eval_rejects_non_finite_t(t):
    code, out, err = cli(["series", "-", f"--eval={t}"], stdin_text=PATH_TEXT)
    assert (code, out) == (2, "") and err.startswith("scx: usage error: ")


@pytest.mark.parametrize("argv, value", [
    (["--eval", "1000"], "inf"),
    (["--eval", "1000", "--fine"], "inf"),
    (["--eval", "-1000"], 0.0),
])
def test_series_eval_overflow_is_the_string_inf(argv, value):
    code, out, err = cli(["series", "-"] + argv, stdin_text=PATH_TEXT)
    assert code == 0 and err == ""
    assert strict_json(out)["eval"] == {"t": float(argv[1]), "value": value}


def test_series_eval_overflow_pretty():
    code, out, _ = cli(["series", "-", "--eval", "1000", "--pretty"], stdin_text=PATH_TEXT)
    assert code == 0 and out.endswith("value at t=1000.0: inf\n")


def test_series_eval_json_in_a_subprocess():
    for t, code in (("1000", 0), ("0.5", 0), ("nan", 2), ("inf", 2)):
        proc = scx_subprocess(["series", "-", f"--eval={t}"], PATH_TEXT.encode())
        assert proc.returncode == code, proc.stderr
        assert b"Traceback" not in proc.stderr
        if code == 0:
            assert strict_json(proc.stdout)["eval"]["t"] == float(t)
        else:
            assert proc.stdout == b"" and proc.stderr.startswith(b"scx: usage error: ")


# -- check ---------------------------------------------------------------------------------

def test_check_reports_witness(tmp_path):
    text = cli(["make", "whiskered-cycle", "3", "1"])[1]
    payload = json.loads(cli(["check", "-"], stdin_text=text)[1])
    assert payload["property_e"] is True
    assert payload["classical_ds"] is True
    assert payload["eulerian"] is False
    assert isinstance(payload["witness"], str) and "face" in payload["witness"]
    assert payload["f"] == ["1", "4", "4"]


def test_check_pretty(ex3_file):
    code, out, _ = cli(["check", ex3_file, "--pretty"])
    assert code == 0
    assert "property_e" in out and "no" in out


# -- link, join, suspend -----------------------------------------------------------------------

def test_link_verb(ex3_file):
    assert cli(["link", ex3_file, "--face", "4"])[1] == "facet 2\nfacet 3\n"
    # empty face: the link is the complex itself, canonically re-emitted
    assert cli(["link", ex3_file])[1] == EX3_TEXT
    code, _, err = cli(["link", ex3_file, "--face", "1,4"])
    assert code == 1 and "FaceNotInComplex" in err


def test_join_verb(tmp_path):
    a = tmp_path / "a.scx"
    a.write_text(cli(["make", "cycle", "3"])[1])
    code, text, _ = cli(["join", str(a), "-"], stdin_text=cli(["make", "cycle", "3"])[1])
    assert code == 0
    payload = json.loads(cli(["vectors", "-"], stdin_text=text)[1])
    assert payload["f"] == ["1", "6", "15", "18", "9"]


def test_suspend_verb():
    code, text, _ = cli(["suspend", "-"], stdin_text="facet\n")
    assert code == 0
    assert text == "facet L.1\nfacet L.2\n"


# -- oracle -----------------------------------------------------------------------------------------

def test_oracle_verb(ex3_file):
    code, out, _ = cli(["oracle", ex3_file, "--max-entry", "2"])
    assert code == 0
    assert json.loads(out) == {"ok": True, "checked": 81}
    code, out, _ = cli(["oracle", ex3_file, "--max-entry", "2", "--pretty"])
    assert code == 0 and out == "ok: 81 degrees checked\n"


def test_oracle_refuses_huge_sweeps(tmp_path):
    path = tmp_path / "big.scx"
    path.write_text("facet " + " ".join(str(i) for i in range(1, 21)) + "\n")
    code, _, err = cli(["oracle", str(path), "--max-entry", "3"])
    assert code == 1 and "TooLarge" in err


# -- info --------------------------------------------------------------------------------------------

def test_info_verbs(ex3_file):
    payload = json.loads(cli(["info", ex3_file])[1])
    assert payload == {
        "kind": "nonvoid",
        "vertices": 4,
        "labels": ["1", "2", "3", "4"],
        "facets": [["1", "2", "3"], ["2", "4"], ["3", "4"]],
        "dimension": 2,
        "pure": False,
        "faces": 11,
    }
    pretty = cli(["info", ex3_file, "--pretty"])[1]
    assert "vertices: 4" in pretty
    void_payload = json.loads(cli(["info", "-"], stdin_text="# empty\n")[1])
    assert void_payload["kind"] == "void"
    assert cli(["info", "-", "--pretty"], stdin_text="# empty\n") == (0, "void complex (no faces)\n", "")


# -- exit codes ----------------------------------------------------------------------------------------

def test_domain_errors_exit_one(tmp_path):
    void_path = tmp_path / "void.scx"
    void_path.write_text("# nothing\n")
    code, _, err = cli(["vectors", str(void_path)])
    assert code == 1 and "VoidComplex" in err
    code, _, err = cli(["make", "cycle", "2"])
    assert code == 1 and "InvalidParameter" in err
    code, _, err = cli(["vectors", str(tmp_path / "missing.scx")])
    assert code == 1


def test_usage_errors_exit_two(ex3_file):
    assert cli(["frobnicate", ex3_file])[0] == 2
    assert cli(["vectors", ex3_file, "--bogus"])[0] == 2
    assert cli(["make", "cycle", "three"])[0] == 2
    assert cli(["make", "dodecahedron", "1"])[0] == 2
    assert cli(["make", "cycle"])[0] == 2
    assert cli(["join", "-", "-"])[0] == 2
    assert cli(["link", ex3_file, "--face", "1,,2"])[0] == 2
    assert cli(["oracle", ex3_file, "--max-entry", "-1"]) == (
        2, "", "scx: usage error: --max-entry must be >= 0\n")
    assert cli([])[0] == 2


def test_usage_errors_go_to_the_given_stderr(capsys):
    out, err = io.StringIO(), io.StringIO()
    argv = ["make", "cross-polytope", "2", "--seed"]
    assert run(argv, stdin=io.StringIO(), stdout=out, stderr=err) == 2
    assert out.getvalue() == ""
    assert err.getvalue() == "scx: usage error: argument --seed: expected one argument\n"
    assert capsys.readouterr() == ("", "")


def test_oracle_refuses_a_huge_max_entry_without_printing_the_count():
    huge = "9" * 4300  # the longest integer Python converts to and from text by default
    code, out, err = cli(["oracle", "-", "--max-entry", huge], stdin_text="facet 1 2\n")
    assert (code, out) == (1, "") and err.startswith("scx: TooLarge: --max-entry 999")
    # the empty-face complex has a single multidegree, whatever the entries
    assert cli(["oracle", "-", "--max-entry", huge], stdin_text="facet\n") == (
        0, '{"ok": true, "checked": 1}\n', "")


def test_malformed_input_exits_one():
    code, _, err = cli(["vectors", "-"], stdin_text="simplex 1 2\n")
    assert code == 1 and "FacetFormatError" in err


NOT_UTF8 = b"facet a \xff\n"


@pytest.mark.parametrize("verb", ["check", "series", "info"])
def test_non_utf8_input_exits_one(tmp_path, verb):
    path = tmp_path / "bad.scx"
    path.write_bytes(NOT_UTF8)
    code, out, err = cli([verb, str(path)])
    assert (code, out) == (1, "") and err.startswith("scx: FacetFormatError: ")
    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors="surrogateescape")
    out, err = io.StringIO(), io.StringIO()
    assert run([verb, "-"], stdin=stdin, stdout=out, stderr=err) == 1
    assert out.getvalue() == "" and err.getvalue().startswith("scx: FacetFormatError: ")


def scx_subprocess(argv, data=b"", entry=("-c", "import sys; from scx.cli import main; sys.exit(main())")):
    """Run the scx entry point in a fresh interpreter with the given stdin bytes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *entry, *argv], input=data, env=env,
                          capture_output=True, timeout=60)


@pytest.mark.parametrize("module", ["scx", "scx.cli"])
def test_python_dash_m_matches_run(module, capsys):
    # success, a domain error, and usage errors from scx and from argparse
    cases = ((["make", "cross-polytope", "2"], 0),
             (["make", "cross-polytope", "0"], 1),
             (["make", "cross-polytope"], 2),
             (["make", "cross-polytope", "2", "--seed"], 2))
    for argv, code in cases:
        proc = scx_subprocess(argv, entry=("-m", module))
        assert run(argv) == proc.returncode == code, proc.stderr
        # run() without streams writes to sys.stdout and sys.stderr, which capsys reads
        out, err = capsys.readouterr()
        assert (proc.stdout.decode(), proc.stderr.decode()) == (out, err), argv


def test_non_utf8_input_exits_one_in_a_subprocess(tmp_path):
    path = tmp_path / "bad.scx"
    path.write_bytes(NOT_UTF8)
    for argv, data in (([str(path)], b""), (["-"], NOT_UTF8)):
        proc = scx_subprocess(["check"] + argv, data)
        assert proc.returncode == 1, proc.stderr
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.startswith(b"scx: FacetFormatError: ")


def test_info_refuses_a_complex_over_the_face_budget():
    text = cli(["make", "full-simplex", "30"])[1]
    code, out, err = cli(["info", "-"], stdin_text=text)
    assert (code, out) == (1, "") and err.startswith("scx: TooLarge: ")
    proc = scx_subprocess(["info", "-"], text.encode())
    assert proc.returncode == 1, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b"" and proc.stderr.startswith(b"scx: TooLarge: ")


def test_make_refuses_a_generator_over_the_face_budget(monkeypatch):
    import scx.complexes as complexes

    monkeypatch.setattr(complexes, "FACE_BUDGET", 24)
    assert cli(["make", "cross-polytope", "3"])[0] == 0
    assert cli(["make", "random", "4", "6", "9"])[0] == 0
    assert cli(["make", "cross-polytope", "4"]) == (
        1, "", "scx: TooLarge: cross_polytope(4) would list more than 24 vertex entries, "
               "the face budget\n")
    code, out, err = cli(["make", "random", "4", "7", "9", "--seed", "3"])
    assert (code, out) == (1, "") and err.startswith("scx: TooLarge: random_complex(3, 4, 7, 9) ")


def test_void_input_exits_one_with_the_shared_guard():
    for argv in (["check", "-"], ["oracle", "-"], ["series", "--fine", "-"]):
        assert cli(argv, stdin_text="# no facets\n") == (
            1, "", "scx: VoidComplex: the void complex has no faces\n")


def test_output_is_deterministic(ex3_file):
    assert cli(["check", ex3_file]) == cli(["check", ex3_file])
    assert cli(["series", ex3_file, "--fine"]) == cli(["series", ex3_file, "--fine"])


# -- fuzz ----------------------------------------------------------------------------------------------

VERBS = ["info", "vectors", "series", "check", "make", "link", "join", "suspend", "oracle",
         "frobnicate"]
FLAGS = ["--json", "--pretty", "--fine", "--eval", "--face", "--seed", "--max-entry", "--bogus"]
WORDS = ["-", "", "nan", "inf", "1e308", "-1e308", "1e309", "1,,2", "1,2", "1", "-1", "0", "2",
         "3", "9" * 40, "9" * 4300, "9" * 4400, "cycle", "cross-polytope", "boundary-simplex",
         "full-simplex", "whiskered-cycle", "random", "dodecahedron"]
LINES = ["facet 1 2 3", "facet 2 4", "facet 3 4", "facet", "facet 5", "facet a b c d",
         "facet 1 1", "simplex 1 2", "# comment", "", "facet \udcff"]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "ex3.scx").write_text(EX3_TEXT)
    (root / "void.scx").write_text("# no facets\n")
    return [str(root / "ex3.scx"), str(root / "void.scx"), str(root / "missing.scx"), str(root)]


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(data, fuzz_paths, capsys):
    # capsys is read after every example, so sharing it across examples is safe
    verb = data.draw(st.lists(st.sampled_from(VERBS), max_size=1))
    rest = data.draw(st.lists(st.sampled_from(FLAGS + WORDS + fuzz_paths), max_size=6))
    text = "\n".join(data.draw(st.lists(st.sampled_from(LINES), max_size=6)))
    code, out, err = cli(verb + rest, stdin_text=text)
    assert code in (0, 1, 2)
    if code:
        assert out == "" and err.startswith("scx: ") and err.endswith("\n")
    else:
        assert err == ""
    assert capsys.readouterr() == ("", "")
