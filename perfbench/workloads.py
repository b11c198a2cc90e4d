"""Seeded inputs and expected answers for the three workloads.

``setup(workload, seed, pass_dir, src)`` returns ``(inputs, expected)``:
the items a pass runs and, aligned with them, the answers checks.py derives
without the library. The seed fixes every input; the library sees only the
generated facet lists and files.

Why these workloads (each later change is judged on one that exercises it and
one that bypasses it):

corpus5  A draw from the 7,580 complexes of enumerate_all_complexes(5), each
         run through from_facets, vector_json, classify, the fine table and
         the acceptance-04 oracle (taylor_coefficient == graded_dimension over
         {0,1,2}^n). Per-call overhead and the per-query Taylor and graded
         dimension costs dominate; the big-input kernels barely run.
large    Cross-polytopes, simplex boundaries, full simplices, a join, a
         suspension and seeded random pure complexes with tens of thousands of
         faces, each through from_facets, vector_json, classify and the fine
         table. The asymptotic kernels dominate; the Taylor path never runs.
cli      Sequential invocations of the scx entry point over seeded raw facet
         files (non-pure, so is_eulerian stops at "not pure"): interpreter
         start and import, parsing and the antichain filter over many raw
         facets, and JSON output, plus one `make | check -` pipe and one
         expected domain error.
"""

from __future__ import annotations

import random
import tomllib
from itertools import combinations, product
from math import comb
from pathlib import Path

import checks

CORPUS5_DRAW = 2000
CLI_RAW = (24, 1500, 7)      # vertices, raw facets, largest facet size
CLI_ORACLE = (12, 60, 5)     # small enough for 2^n multidegrees
LARGE_PURE = (24, 400, 7)    # per random pure complex
# Six random pure complexes put the median of the 14 items in the middle of
# their cluster, and p85 on full_simplex(12), between the light family items
# and the three heaviest.
LARGE_PURE_COUNT = 6
# the tracemalloc pass of corpus5 covers this many items (all of the others)
MEMORY_ITEMS = {"corpus5": 250}


# -- generator families, built here rather than by the library ----------------


def cross_polytope(d: int) -> list[list[str]]:
    return [list(f) for f in product(*[(f"{i}+", f"{i}-") for i in range(1, d + 1)])]


def boundary_simplex(d: int) -> list[list[str]]:
    return [list(f) for f in combinations([str(i) for i in range(1, d + 2)], d)]


def full_simplex(d: int) -> list[list[str]]:
    return [[str(i) for i in range(1, d + 2)]]


def join(a: list[list[str]], b: list[list[str]]) -> list[list[str]]:
    return [["L." + x for x in fa] + ["R." + y for y in fb] for fa in a for fb in b]


def cross_f(d: int) -> list[int]:
    return [2 ** k * comb(d, k) for k in range(d + 1)]


def simplex_f(vertices: int, top: int) -> list[int]:
    return [comb(vertices, k) for k in range(top + 1)]


def random_facets(rng: random.Random, n: int, count: int, max_size: int, *,
                  pure: bool, prefix: str = "") -> list[list[str]]:
    sizes = [max_size] * count if pure else [rng.randint(1, max_size) for _ in range(count)]
    return [[f"{prefix}{v}" for v in sorted(rng.sample(range(1, n + 1), s))] for s in sizes]


def _family(facets, closed_form_f, sphere: bool) -> tuple[dict, dict]:
    exp = checks.expected_from_facets(facets, eulerian=sphere)
    if exp["f"] != closed_form_f:
        raise RuntimeError(f"brute-force f-vector {exp['f']} != closed form {closed_form_f}")
    return {"facets": facets}, exp


# -- workloads -----------------------------------------------------------------------


def setup_corpus5(rng: random.Random) -> tuple[list, list]:
    import scx

    corpus = [[list(f) for f in c.facets()] for c in scx.enumerate_all_complexes(5)]
    picks = rng.sample(range(len(corpus)), CORPUS5_DRAW)
    return ([{"facets": corpus[i]} for i in picks],
            [checks.expected_from_facets(corpus[i]) for i in picks])


def setup_large(rng: random.Random) -> tuple[list, list]:
    pairs = [
        _family(cross_polytope(6), cross_f(6), True),
        _family(cross_polytope(7), cross_f(7), True),
        _family(boundary_simplex(9), simplex_f(10, 9), True),
        _family(boundary_simplex(10), simplex_f(11, 10), True),
        _family(full_simplex(10), simplex_f(11, 11), False),
        _family(full_simplex(12), simplex_f(13, 13), False),
        _family(join(cross_polytope(3), boundary_simplex(4)),
                checks.f_poly_product(cross_f(3), simplex_f(5, 4)), True),
        _family(join([["1"], ["2"]], boundary_simplex(7)),
                checks.f_poly_product([1, 2], simplex_f(8, 7)), True),
    ]
    for _ in range(LARGE_PURE_COUNT):
        facets = random_facets(rng, *LARGE_PURE, pure=True)
        pairs.append(({"facets": facets}, checks.expected_from_facets(facets, eulerian="skip")))
    rng.shuffle(pairs)
    return [p[0] for p in pairs], [p[1] for p in pairs]


def write_facets(path: Path, facets: list[list[str]]) -> None:
    path.write_text("".join("facet " + " ".join(f) + "\n" for f in facets))


def write_entry_point(root: Path, path: Path) -> None:
    """The console script that installing the package would create, from pyproject.toml."""
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["scx"]
    module, func = target.split(":")
    path.write_text(f"import sys\nsys.path.insert(0, {str(root / 'src')!r})\n"
                    f"from {module} import {func}\nsys.exit({func}())\n")


def setup_cli(rng: random.Random, pass_dir: Path, root: Path) -> tuple[list, list]:
    rel = pass_dir.relative_to(root)
    files, exps = {}, {}
    for name in ("F1", "F2", "F3", "S"):
        shape = CLI_ORACLE if name == "S" else CLI_RAW
        facets = random_facets(rng, *shape, pure=False, prefix="v")
        write_facets(pass_dir / f"{name}.facets", facets)
        files[name] = str(rel / f"{name}.facets")
        exps[name] = checks.expected_from_facets(facets)
        if exps[name]["pure"]:
            raise RuntimeError(f"{name} came out pure; the cli workload needs non-pure inputs")

    vertex = rng.choice(exps["F2"]["labels"])
    link_exp = dict(exps["F2"], link_facets=sorted(
        [x for x in f if x != vertex] for f in exps["F2"]["facets"] if vertex in f))
    # one vertex more than the largest facet: never a face
    non_face = sorted(rng.sample(exps["F1"]["labels"], CLI_RAW[2] + 1))
    sphere = checks.expected_from_facets(cross_polytope(6), eulerian=True)

    def cli(verb, *argv, exp):
        return {"verb": verb, "argv": list(argv)}, exp

    # Three `series --fine` items of eleven put the 80th percentile inside
    # their cluster rather than on the edge between two kinds of item.
    pairs = [
        cli("check", "check", files["F1"], exp=exps["F1"]),
        cli("vectors", "vectors", files["F2"], exp=exps["F2"]),
        ({"verb": "info", "argv": ["info", files["F3"]], "raw_facets": CLI_RAW[1]}, exps["F3"]),
        cli("series", "series", "--fine", files["F1"], exp=exps["F1"]),
        cli("link", "link", "--face", vertex, files["F2"], exp=link_exp),
        cli("oracle", "oracle", "--max-entry", "1", files["S"], exp=exps["S"]),
        ({"verb": "pipe", "make": ["make", "cross-polytope", "6"], "argv": ["check", "-"]}, sphere),
        cli("series", "series", "--fine", files["F2"], exp=exps["F2"]),
        cli("check", "check", files["F3"], exp=exps["F3"]),
        cli("series", "series", "--fine", files["F3"], exp=exps["F3"]),
        cli("error", "link", "--face", ",".join(non_face), files["F1"], exp={}),
    ]
    return [p[0] for p in pairs], [p[1] for p in pairs]


WORKLOADS = ("corpus5", "large", "cli")
# corpus5 reports p95, not p99: its p99 items are set by stalls that do not
# track the machine's speed, and read 1.85-2.95 ms across ten seeds.
TAIL_PERCENTILE = {"corpus5": 95, "large": 85, "cli": 80}


def setup(workload: str, seed: int, pass_dir: Path, root: Path) -> tuple[dict, list]:
    rng = random.Random(f"{workload}:{seed}")
    inputs: dict = {"workload": workload}
    if workload == "corpus5":
        items, expected = setup_corpus5(rng)
    elif workload == "large":
        items, expected = setup_large(rng)
    else:
        items, expected = setup_cli(rng, pass_dir, root)
        inputs["entry_point"] = str((pass_dir / "scx").relative_to(root))
        write_entry_point(root, pass_dir / "scx")
    inputs["items"] = items
    inputs["memory_items"] = MEMORY_ITEMS.get(workload, len(items))
    return inputs, expected
