"""Command line behavior: verbs, formats, piping, exit codes."""

import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scx import (boundary_simplex, cross_polytope, evaluate_coarse, f_to_e, fine_e_polynomial, hilbert,
                 parse_facet_text)
from scx.cli import run
from oracles import NOT_LINE_ENDS

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


def test_series_fine_exits_one_when_the_fine_series_disagrees(monkeypatch, ex3_file):
    monkeypatch.setattr(hilbert, "coarse_from_fine", lambda fine: None)
    assert cli(["series", "--fine", ex3_file]) == (
        1, "", "scx: InternalInconsistency: fine series does not specialize to the e-vector\n")


# labels that json.dumps escapes: a quote, a backslash, a non-ASCII letter and
# an astral emoji, a surrogate pair under ensure_ascii; "10" sorts before "2"
ESCAPED_LABELS = ['a"b', "back\\slash", "é", "😀", "{}", "10", "2"]


def _series_fine_by_one_dump(text, pretty, t):
    """series --fine output as one json.dumps of the whole payload writes it,
    and the --pretty lines, from the public API."""
    c = parse_facet_text(text)
    e = f_to_e(c.f_vector())
    terms = fine_e_polynomial(c).sorted_terms()
    value = None if t is None else evaluate_coarse(e, t)
    value = value if value is None or math.isfinite(value) else str(value)
    if pretty:
        lines = [f"e = ({', '.join(map(str, e))})", *("c{" + " ".join(s) + "} = " + str(x) for s, x in terms)]
        lines += [] if t is None else [f"value at t={t}: {value}"]
        return "\n".join(lines) + "\n"
    payload = {"e": [str(v) for v in e], "fine": [{"subset": list(s), "coeff": str(x)} for s, x in terms]}
    if t is not None:
        payload["eval"] = {"t": t, "value": value}
    return json.dumps(payload, allow_nan=False) + "\n"


@pytest.mark.parametrize("seed", range(6))
def test_series_fine_writes_the_bytes_of_one_json_dump(seed):
    rng = random.Random(seed)
    text = "".join("facet " + " ".join(rng.sample(ESCAPED_LABELS, rng.randint(1, 5))) + "\n" for _ in range(8))
    for argv, pretty, t in [([], False, None), (["--eval", "0.5"], False, 0.5), (["--eval", "1000"], False, 1000.0),
                            (["--pretty"], True, None), (["--pretty", "--eval=-2.5"], True, -2.5)]:
        want = _series_fine_by_one_dump(text, pretty, t)
        assert cli(["series", "--fine", "-", *argv], stdin_text=text) == (0, want, "")


def test_series_fine_leaves_stdout_empty_over_the_face_budget(monkeypatch):
    import scx.complexes as complexes

    # the tetrahedron's boundary has 11 shared faces; a cap of 4 stops the search
    text = cli(["make", "boundary-simplex", "3"])[1]
    monkeypatch.setattr(complexes, "FACE_BUDGET", 8)
    assert cli(["series", "--fine", "-"], stdin_text=text) == (
        1, "", "scx: TooLarge: 5 shared faces found so far, over half the face budget of 8\n")


def test_series_fine_holds_little_beyond_its_output(tmp_path):
    # the benchmark's cli shape: 24 vertices, 1,500 raw facets of 1 to 7, not pure;
    # the listing, one string a term, must not cost several times the output
    rng = random.Random(11)
    path = tmp_path / "raw.facets"
    path.write_text("".join("facet " + " ".join(f"v{v}" for v in rng.sample(range(1, 25), rng.randint(1, 7)))
                            + "\n" for _ in range(1500)))
    assert not parse_facet_text(path.read_text()).is_pure()
    with open(tmp_path / "out.json", "w") as out:
        tracemalloc.start()
        try:
            code = run(["series", "--fine", str(path)], stdout=out, stderr=io.StringIO())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = (tmp_path / "out.json").stat().st_size
    assert code == 0 and size > 100_000
    assert peak <= 8 * size, (peak, size)
    # over 4,096 terms, so more than one write; a bare bool keeps pytest off a diff of 300 KB
    same = (tmp_path / "out.json").read_text() == _series_fine_by_one_dump(path.read_text(), False, None)
    assert same, "the output differs from one json.dumps of the payload"


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


@pytest.mark.parametrize("t, value", [("-1e-3", -0.001), ("-2.5E+1", -25.0), ("-.5e2", -50.0),
                                      ("-0.001", -0.001), ("-3", -3.0), ("-1_0", -10.0),
                                      ("-1_000.5", -1000.5), ("-2e1_0", -2e10), ("-1.", -1.0)])
def test_series_eval_takes_a_negative_number_in_any_form(t, value):
    # a separate argument, as well as after '='
    for argv in (["--eval", t], [f"--eval={t}"]):
        code, out, err = cli(["series", "-"] + argv, stdin_text=PATH_TEXT)
        assert (code, err) == (0, "")
        assert strict_json(out)["eval"] == {"t": value, "value": evaluate_coarse((0, -1, 2), value)}


@pytest.mark.parametrize("t, message", [
    ("-inf", "--eval needs a finite number, got -inf"),
    # every spelling of infinity and nan float() reads, in any case: a negative one is a value too
    *((t, f"--eval needs a finite number, got {float(t)}") for t in (
        "-Infinity", "-nan", "-INF", "-iNfInItY", "-NaN", "Infinity", "INF", "+inf", "+nan", "NaN")),
    ("nan", "--eval needs a finite number, got nan"),
    ("-1e999", "--eval needs a finite number, got -inf"),
    ("-1__0", "argument --eval: expected one argument"),  # float() refuses a doubled underscore too
])
def test_series_eval_refuses_a_separate_non_finite_t(t, message):
    assert cli(["series", "-", "--eval", t], stdin_text=PATH_TEXT) == (2, "", f"scx: usage error: {message}\n")


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


def test_oracle_exits_one_when_a_coefficient_disagrees(monkeypatch, ex3_file):
    monkeypatch.setattr(hilbert, "taylor_coefficient", lambda fine, a: -1)
    assert cli(["oracle", ex3_file]) == (
        1, "", "scx: InternalInconsistency: multidegree (0, 0, 0, 0): series coefficient "
               "and graded dimension disagree\n")


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


def test_oracle_checks_its_usage_before_reading_the_input(tmp_path):
    # as series --eval inf does: a usage error exits 2 before a missing file is opened
    missing = str(tmp_path / "missing.scx")
    assert cli(["oracle", missing, "--max-entry", "-1"]) == (
        2, "", "scx: usage error: --max-entry must be >= 0\n")
    assert cli(["oracle", "-", "--max-entry", "-1"], stdin_text="not facet text\n")[0] == 2
    assert cli(["oracle", missing, "--max-entry", "0"])[0] == 1


def test_help_through_run_returns_zero(capsys):
    assert run(["--help"], stdin=io.StringIO(), stdout=io.StringIO(), stderr=io.StringIO()) == 0
    out, err = capsys.readouterr()   # argparse prints the help to sys.stdout
    assert out.startswith("usage: scx ") and err == ""


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


@pytest.mark.parametrize("verb", ["check", "series", "info"])
@pytest.mark.parametrize("text", [EX3_TEXT, "# a comment first\r\n" + EX3_TEXT],
                         ids=["facet-first", "comment-first"])
def test_byte_order_mark_is_ignored(tmp_path, verb, text):
    # Notepad and PowerShell 5 start a UTF-8 file with U+FEFF
    assert parse_facet_text("\ufeff" + text) == parse_facet_text(text)
    plain = cli([verb, "-"], stdin_text=text)
    assert plain[0] == 0
    path = tmp_path / "bom.scx"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert cli([verb, str(path)]) == plain
    stdin = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8", errors="surrogateescape")
    out, err = io.StringIO(), io.StringIO()
    assert (run([verb, "-"], stdin=stdin, stdout=out, stderr=err), out.getvalue(), err.getvalue()) == plain


SAME_TEXTS = ([f"# note{ch}facet z\nfacet a b\n" for ch in NOT_LINE_ENDS]
              + [f"facet a{ch}b\n" for ch in NOT_LINE_ENDS]
              + ["# c\r\nfacet a b\r\n", "# c\rfacet a b\r", "# c\r\nfacet a\rfacet a b\n",
                 "\ufeff# c\rfacet a b\r\n", "# only\u2028facet z\n"])


@pytest.mark.parametrize("text", SAME_TEXTS, ids=repr)
def test_info_reads_what_parse_facet_text_reads(tmp_path, text):
    # a file and stdin decode with universal newlines; nothing else may split a line
    c = parse_facet_text(text)
    want = cli(["info", "-"], stdin_text=c.to_facet_text())
    assert want[0] == 0 and c.is_void == ("facet a" not in text)
    assert cli(["info", "-"], stdin_text=text) == want
    path = tmp_path / "in.scx"
    path.write_bytes(text.encode())
    assert cli(["info", str(path)]) == want
    stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", errors="surrogateescape")
    out, err = io.StringIO(), io.StringIO()
    assert (run(["info", "-"], stdin=stdin, stdout=out, stderr=err), out.getvalue(), err.getvalue()) == want
    if not c.is_void:
        assert json.loads(want[1])["facets"] == [["a", "b"]]


MAIN = ("-c", "import sys; from scx.cli import main; sys.exit(main())")


def scx_env():
    """The environment in which a fresh interpreter imports scx from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def scx_subprocess(argv, data=b"", entry=MAIN):
    """Run the scx entry point in a fresh interpreter with the given stdin bytes."""
    return subprocess.run([sys.executable, *entry, *argv], input=data, env=scx_env(),
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


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_reader_closing_the_pipe_exits_one_with_one_line(tmp_path, unbuffered):
    path = tmp_path / "cross8.scx"
    path.write_text(cross_polytope(8).to_facet_text())
    # more than a pipe holds, so a write meets the closed end
    assert len(cli(["series", "--fine", str(path)])[1]) > 1 << 16
    with subprocess.Popen([sys.executable, *MAIN, "series", "--fine", str(path)],
                          env=scx_env() | {"PYTHONUNBUFFERED": unbuffered},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(os.read(proc.stdout.fileno(), 10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    # one line: no traceback, and no "Exception ignored" from the flush at exit
    assert err.startswith(b"scx: ") and err.count(b"\n") == 1 and err.endswith(b"\n"), err


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_pipe_closed_before_a_short_output_exits_one_with_one_line(unbuffered):
    # the input arrives after the read end is closed, so the first write fails;
    # a buffered stdout still holds the output when run() returns
    with subprocess.Popen([sys.executable, *MAIN, "vectors", "-"],
                          env=scx_env() | {"PYTHONUNBUFFERED": unbuffered},
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        proc.stdin.write(EX3_TEXT.encode())
        proc.stdin.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b"scx: [Errno 32] Broken pipe\n", err


def test_a_closed_stdout_exits_one_with_one_line(ex3_file):
    # the shell closes fd 1 before the interpreter starts, which then has no sys.stdout
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, *MAIN, "vectors", ex3_file],
                          env=scx_env(), stderr=subprocess.PIPE, timeout=60)
    assert (proc.returncode, proc.stderr) == (1, b"scx: standard output is closed\n")


@pytest.mark.parametrize("argv", [["--help"], ["info", "--help"]])
def test_help_with_stdout_closed_exits_one_with_one_line(argv):
    # argparse would print the help to stderr when the process has no stdout
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, *MAIN, *argv],
                          env=scx_env(), stderr=subprocess.PIPE, timeout=60)
    assert (proc.returncode, proc.stderr) == (1, b"scx: standard output is closed\n")
    proc = scx_subprocess(argv)
    assert (proc.returncode, proc.stderr) == (0, b"") and proc.stdout.startswith(b"usage: scx ")


def test_a_closed_stderr_keeps_the_error_off_stdout(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)  # where print(file=None) writes
    monkeypatch.setattr(sys, "stderr", None)
    assert run(["make", "cross-polytope", "0"]) == 1
    assert run(["make", "cross-polytope"]) == 2
    assert out.getvalue() == ""


def test_non_utf8_input_exits_one_in_a_subprocess(tmp_path):
    path = tmp_path / "bad.scx"
    path.write_bytes(NOT_UTF8)
    for argv, data in (([str(path)], b""), (["-"], NOT_UTF8)):
        proc = scx_subprocess(["check"] + argv, data)
        assert proc.returncode == 1, proc.stderr
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.startswith(b"scx: FacetFormatError: ")


def test_info_refuses_a_complex_over_the_face_budget():
    # 2^31 faces and no shared one: info counts them exactly
    text = cli(["make", "full-simplex", "30"])[1]
    code, out, err = cli(["info", "-"], stdin_text=text)
    assert (code, err) == (0, "") and json.loads(out)["faces"] == 2147483648
    # the oracle sweeps one multidegree, but its superset sums would hold every face
    proc = scx_subprocess(["oracle", "-", "--max-entry", "0"], text.encode())
    assert proc.returncode == 1, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert (proc.stdout, proc.stderr) == (
        b"", b"scx: TooLarge: the face count is 2147483648, over the face budget of 4194304\n")


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


def test_make_random_past_the_largest_sample_range_exits_one():
    code, out, err = cli(["make", "random", "1000000000000000000000000000000", "3", "2"])
    assert (code, out) == (1, "")
    assert err == ("scx: InvalidParameter: random_complex draws its vertices from 1..n, "
                   f"n at most {sys.maxsize}, got 1000000000000000000000000000000\n")


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
