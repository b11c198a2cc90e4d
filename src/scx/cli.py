"""scx command line: inspect complexes, compute vector and series data, run checks.

Complexes travel in the facet-list text format (see `parse_facet_text`); an
input argument of '-' reads that format from standard input, and the verbs
that output a complex (make, link, join, suspend) emit the same format so
commands compose under pipes. Everything else prints JSON by default or a
human-readable rendition under --pretty. Exit codes: 0 success, 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from itertools import product

from . import complexes, hilbert, properties
from .errors import FacetFormatError, InternalInconsistency, ScxError, TooLarge
from .vectors import f_to_e, vector_json


class _Usage(Exception):
    """A malformed command line, found by argparse or by a verb's own checks."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # any negative number float() reads is a value, digit-grouping underscores
        # and inf, infinity and nan in any case included; argparse's own pattern
        # takes '-1e-3' for an option
        d = r"\d(?:_?\d)*"
        self._negative_number_matcher = re.compile(
            rf"^-(?:({d}(?:\.(?:{d})?)?|\.{d})(?:[eE][-+]?{d})?|(?i:inf|infinity|nan))$")

    def error(self, message):
        raise _Usage(message)

    def print_help(self, file=None):
        # argparse would print to stderr when the process has no stdout
        if (file or sys.stdout) is None:
            raise OSError("standard output is closed")
        super().print_help(file)


def run(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    """Execute one command; returns the exit code without calling sys.exit.

    Results go to stdout and every error, usage errors included, to stderr
    as one 'scx: ...' line. Only --help writes elsewhere: argparse prints it
    to the process's sys.stdout and run() returns 0, or 1 when that is closed
    (None), with the same 'scx:' line as a verb's. A verb returns its output
    as a list of strings, all built before the first write, so an error
    leaves stdout empty. A failed write, such as a reader that closed the
    pipe, or a stdout that is closed (None), is an OSError like any other:
    exit 1, and stdout keeps what was already written. With stderr closed
    too, the error line is dropped.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(list(argv) if argv is not None else None)
        out = args.handler(args, stdin)
        if stdout is None:  # the process started with standard output closed
            raise OSError("standard output is closed")
        for i in range(0, len(out), 4096):  # few writes: on an unbuffered stdout each is a system call
            stdout.write("".join(out[i:i + 4096]))
        stdout.flush()
    except SystemExit as exc:  # --help, which argparse has printed
        return exc.code if isinstance(exc.code, int) else 2
    except _Usage as exc:
        code, message = 2, f"usage error: {exc}"
    except ScxError as exc:
        code, message = 1, f"{type(exc).__name__}: {exc}"
    except OSError as exc:
        code, message = 1, str(exc)
    else:
        return 0
    if stderr is not None:  # print(file=None) would write to stdout
        print(f"scx: {message}", file=stderr)
    return code


def main() -> None:
    code = run(sys.argv[1:])
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        # a failed write leaves the rest in stdout's buffer, and the flush at
        # exit would report it as "Exception ignored": send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scx",
        description="Exact f/h/e-vectors, exponential Hilbert series and "
                    "structural checks for abstract simplicial complexes.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    fmt = argparse.ArgumentParser(add_help=False)
    group = fmt.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="JSON output (the default)")
    group.add_argument("--pretty", action="store_true", help="human-readable output")

    p = sub.add_parser("info", parents=[fmt], help="vertices, facets, dimension, purity")
    p.add_argument("input", help="facet-list file, or - for stdin")
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("vectors", parents=[fmt], help="exact f-, h- and e-vectors")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_vectors)

    p = sub.add_parser("series", parents=[fmt], help="coarse e-vector, optional fine terms and numeric value")
    p.add_argument("input")
    p.add_argument("--fine", action="store_true", help="include the fine coefficient table")
    p.add_argument("--eval", type=float, default=None, metavar="T",
                   help="also evaluate the coarse series at a finite t=T "
                        "(a value beyond the double range prints as \"inf\")")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("check", parents=[fmt], help="full property report (always all checks)")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("make", help="emit a generated complex in facet-list form")
    p.add_argument("kind", help="boundary-simplex | full-simplex | cycle | "
                                "cross-polytope | whiskered-cycle | random")
    p.add_argument("params", nargs="*", help="integer parameters for the kind")
    p.add_argument("--seed", type=int, default=0, help="seed for kind 'random'")
    p.set_defaults(handler=_cmd_make)

    p = sub.add_parser("link", help="link of a face, in facet-list form")
    p.add_argument("input")
    p.add_argument("--face", default="", metavar="A,B,...",
                   help="comma-separated vertex labels (omit for the empty face); "
                        "a label holding a comma cannot be named")
    p.set_defaults(handler=_cmd_link)

    p = sub.add_parser("join", help="join of two complexes, in facet-list form")
    p.add_argument("input1")
    p.add_argument("input2")
    p.set_defaults(handler=_cmd_join)

    p = sub.add_parser("suspend", help="suspension (join with two points), in facet-list form")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_suspend)

    p = sub.add_parser("oracle", parents=[fmt],
                       help="cross-check series coefficients against graded dimensions")
    p.add_argument("input")
    p.add_argument("--max-entry", type=int, default=2, metavar="K",
                   help="check all multidegrees with entries 0..K (default 2)")
    p.set_defaults(handler=_cmd_oracle)

    return parser


def _read_complex(source: str, stdin) -> complexes.SimplicialComplex:
    try:
        if source == "-":
            text = stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        # stdin may decode with surrogateescape, which lets bad bytes through
        text.encode("utf-8")
    except UnicodeError:
        raise FacetFormatError("input is not valid UTF-8") from None
    return complexes.parse_facet_text(text)


def _dump(payload: dict) -> list[str]:
    return [json.dumps(payload, allow_nan=False) + "\n"]


def _cmd_info(args, stdin) -> list[str]:
    c = _read_complex(args.input, stdin)
    if c.is_void and args.pretty:
        return ["void complex (no faces)\n"]
    payload = {"kind": "void" if c.is_void else "nonvoid", "vertices": c.n, "labels": list(c.labels),
               "facets": [list(f) for f in c.facets()]}
    if not c.is_void:
        payload |= {"dimension": c.dimension(), "pure": c.is_pure(), "faces": sum(c.f_vector())}
    if not args.pretty:
        return _dump(payload)
    lines = [
        f"vertices: {c.n} ({' '.join(c.labels)})",
        "facets: " + " ".join("{" + " ".join(f) + "}" for f in payload["facets"]),
        f"dimension: {payload['dimension']}   pure: {'yes' if payload['pure'] else 'no'}   "
        f"faces: {payload['faces']}",
    ]
    return ["\n".join(lines) + "\n"]


def _vector_lines(payload: dict) -> str:
    lines = [f"d = {payload['d']}"]
    for key in ("f", "h", "e"):
        lines.append(f"{key} = ({', '.join(payload[key])})")
    return "\n".join(lines) + "\n"


def _cmd_vectors(args, stdin) -> list[str]:
    c = _read_complex(args.input, stdin)
    payload = vector_json(c.f_vector())
    if args.pretty:
        return [_vector_lines(payload)]
    return _dump(payload)


def _cmd_series(args, stdin) -> list[str]:
    if args.eval is not None and not math.isfinite(args.eval):
        raise _Usage(f"--eval needs a finite number, got {args.eval}")
    c = _read_complex(args.input, stdin)
    e = f_to_e(c.f_vector())
    terms, listed = {}, []
    if args.fine:
        fine = hilbert.fine_e_polynomial(c)
        if hilbert.coarse_from_fine(fine) != e:
            raise InternalInconsistency("fine series does not specialize to the e-vector")
        terms, listed = fine._terms, complexes._listed(c.n, fine._terms)
    if args.eval is not None:
        value = hilbert.evaluate_coarse(e, args.eval)
        # JSON has no infinity: a value beyond the double range is the string "inf"
        value = value if math.isfinite(value) else str(value)
    e = [str(v) for v in e]
    # the fine table goes out one string a term, built from its mask
    if args.pretty:
        out = [f"e = ({', '.join(e)})\n"]
        out += ["c{" + " ".join(c._labels_of_mask(m)) + f"}} = {terms[m]}\n" for m in listed]
        if args.eval is not None:
            out.append(f"value at t={args.eval}: {value}\n")
        return out
    out = ['{"e": ' + json.dumps(e)]
    if args.fine:
        enc = [json.dumps(label) for label in c.labels]  # each label as json.dumps writes it
        out.append(', "fine": [')
        for j, m in enumerate(listed):
            subset = ", ".join([enc[i] for i in complexes._bits(m)])
            out.append(f'{", " if j else ""}{{"subset": [{subset}], "coeff": "{terms[m]}"}}')
        out.append("]")
    if args.eval is not None:
        out.append(', "eval": ' + json.dumps({"t": args.eval, "value": value}, allow_nan=False))
    out.append("}\n")
    return out


def _cmd_check(args, stdin) -> list[str]:
    c = _read_complex(args.input, stdin)
    report = properties.classify(c).to_dict()
    payload = vector_json(c.f_vector()) | report
    if not args.pretty:
        return _dump(payload)
    lines = [_vector_lines(payload).rstrip("\n")]
    witness = report.pop("witness")
    for key, ok in report.items():
        lines.append(f"{key:18s} {'yes' if ok else 'no'}")
    if witness:
        lines.append(f"witness: {witness}")
    return ["\n".join(lines) + "\n"]


def _ints(params: list[str], arity: int, what: str) -> list[int]:
    if len(params) != arity:
        raise _Usage(f"{what} takes {arity} integer parameter(s), got {len(params)}")
    try:
        return [int(p) for p in params]
    except ValueError:
        raise _Usage(f"{what} parameters must be integers: {params}") from None


def _cmd_make(args, stdin) -> list[str]:
    kind = args.kind.replace("-", "_")
    if kind == "random":
        n, facet_count, max_size = _ints(args.params, 3, "random")
        c = complexes.random_complex(args.seed, n, facet_count, max_size)
        return [c.to_facet_text()]
    entry = complexes.GENERATORS.get(kind)
    if entry is None:
        known = ", ".join(sorted(complexes.GENERATORS)).replace("_", "-")
        raise _Usage(f"unknown kind {args.kind!r} (known: {known}, random)")
    fn, arity = entry
    values = _ints(args.params, arity, args.kind)
    return [fn(*values).to_facet_text()]


def _parse_face(text: str) -> list[str]:
    if not text:
        return []
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise _Usage(f"malformed --face list {text!r}")
    return parts


def _cmd_link(args, stdin) -> list[str]:
    c = _read_complex(args.input, stdin)
    return [c.link(_parse_face(args.face)).to_facet_text()]


def _cmd_join(args, stdin) -> list[str]:
    if args.input1 == "-" and args.input2 == "-":
        raise _Usage("at most one join input may be '-'")
    c1 = _read_complex(args.input1, stdin)
    c2 = _read_complex(args.input2, stdin)
    return [c1.join(c2).to_facet_text()]


def _cmd_suspend(args, stdin) -> list[str]:
    return [_read_complex(args.input, stdin).suspension().to_facet_text()]


def _cmd_oracle(args, stdin) -> list[str]:
    k = args.max_entry
    if k < 0:
        raise _Usage("--max-entry must be >= 0")
    c = _read_complex(args.input, stdin)
    if (k + 1) ** c.n > 2_000_000:
        raise TooLarge(f"--max-entry {k} on {c.n} vertices gives over 2000000 multidegrees to sweep")
    fine = hilbert.fine_e_polynomial(c)
    checked = 0
    for a in product(range(k + 1), repeat=c.n):
        if hilbert.taylor_coefficient(fine, a) != hilbert.graded_dimension(c, a):
            raise InternalInconsistency(
                f"multidegree {a}: series coefficient and graded dimension disagree")
        checked += 1
    if args.pretty:
        return [f"ok: {checked} degrees checked\n"]
    return _dump({"ok": True, "checked": checked})


if __name__ == "__main__":
    main()
