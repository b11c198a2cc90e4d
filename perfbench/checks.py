"""Expected answers the benchmark derives without the library, and the item checks.

Nothing here imports scx. Face sets come from a plain power-set walk over the
facets, the f/h/e-vectors from polynomial expansion, and the four Property E /
Dehn-Sommerville flags straight from their definitions, so a wrong answer on a
fast path in the library shows up as a failed item rather than agreeing with
itself.
"""

from __future__ import annotations

import json
from math import comb


# -- faces -----------------------------------------------------------------


def masks_of(facets: list[list[str]]) -> tuple[list[str], list[int]]:
    """Sorted vertex labels and each facet as a bitmask over them."""
    labels = sorted({lab for facet in facets for lab in facet})
    bit = {lab: 1 << i for i, lab in enumerate(labels)}
    return labels, [sum(bit[lab] for lab in facet) for facet in facets]


def face_set(facet_masks: list[int]) -> set[int]:
    """Every subset of every facet; dominated facets add nothing."""
    faces: set[int] = set()
    for facet in set(facet_masks):
        if facet in faces:
            continue
        sub = facet
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & facet
    return faces


def maximal(facet_masks: list[int], faces: set[int], n: int) -> list[int]:
    """Facets with no one-vertex extension inside the face set."""
    return sorted({m for m in facet_masks
                   if not any(not m >> v & 1 and m | 1 << v in faces for v in range(n))})


def f_vector(faces: set[int]) -> list[int]:
    counts = [0] * (max(m.bit_count() for m in faces) + 1)
    for m in faces:
        counts[m.bit_count()] += 1
    return counts


# -- vectors from polynomial expansion --------------------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pow(p: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, p)
    return out


def e_vector(f: list[int]) -> list[int]:
    """Coefficients of sum_i f_{i-1} (y - 1)^i: the coarse exponential series."""
    out = [0] * len(f)
    for i, fi in enumerate(f):
        for k, c in enumerate(_poly_pow([-1, 1], i)):
            out[k] += fi * c
    return out


def h_vector(f: list[int]) -> list[int]:
    """Coefficients of sum_i f_{i-1} t^i (1 - t)^(d - i)."""
    d = len(f) - 1
    out = [0] * (d + 1)
    for i, fi in enumerate(f):
        for j, c in enumerate(_poly_pow([1, -1], d - i)):
            out[i + j] += fi * c
    return out


def f_poly_product(a: list[int], b: list[int]) -> list[int]:
    """f-vector of a join: the f-polynomials multiply."""
    return _poly_mul(a, b)


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def vector_flags(f: list[int]) -> dict:
    """The four flags that depend on the f-vector alone, from their definitions."""
    d = len(f) - 1
    e, h = e_vector(f), h_vector(f)
    chi_top = sum(_sign(i - 1) * f[i] for i in range(1, d + 1))
    defect = 1 + _sign(d - 1) - chi_top
    return {
        "property_e": all(e[k] == _sign(d - k) * f[k] for k in range(d + 1)),
        "weak_property_e": all(e[k] == _sign(d - k) * f[k] for k in range(1, d + 1)),
        "classical_ds": all(h[k] == h[d - k] for k in range(d + 1)),
        "general_ds": all(h[k] - h[d - k] == _sign(k) * comb(d, k) * defect for k in range(d + 1)),
    }


def eulerian_flags(faces: set[int], pure: bool, f: list[int]) -> dict:
    """Eulerian and Eulerian-sphere flags by summing over every link (small inputs only)."""
    d = len(f) - 1
    eulerian = pure and all(
        sum(_sign(t.bit_count() - s.bit_count() - 1) for t in faces if t != s and t & s == s)
        == 1 + _sign(d + s.bit_count() - 1)
        for s in faces if s)
    chi_top = sum(_sign(i - 1) * f[i] for i in range(1, d + 1))
    return {"eulerian": eulerian, "eulerian_sphere": eulerian and chi_top == 1 + _sign(d - 1)}


def expected_from_facets(facets: list[list[str]], *, eulerian: bool | str | None = None) -> dict:
    """Brute-force answers for a complex given by (possibly redundant) facets.

    ``eulerian`` None derives the Eulerian flags by link sums; True/False
    states them (a known sphere, or a ball); the string "skip" leaves them
    unchecked.
    """
    labels, fm = masks_of(facets)
    faces = face_set(fm)
    kept = maximal(fm, faces, len(labels))
    f = f_vector(faces)
    sizes = {m.bit_count() for m in kept}
    out = {
        "n": len(labels),
        "labels": labels,
        "facets": sorted(sorted(labels[i] for i in range(len(labels)) if m >> i & 1) for m in kept),
        "faces": len(faces),
        "f": f,
        "pure": len(sizes) == 1,
        "flags": vector_flags(f),
        # multidegrees in {0,1,2}^n whose support is a face: 2^|face| each
        "oracle_ones": sum(1 << m.bit_count() for m in faces),
    }
    if eulerian is None:
        out["flags"].update(eulerian_flags(faces, out["pure"], f))
    elif eulerian != "skip":
        out["flags"].update({"eulerian": eulerian, "eulerian_sphere": eulerian})
    out["flags"]["pure"] = out["pure"]
    return out


# -- item checks --------------------------------------------------------------


def _vector_errors(vec: dict, exp: dict) -> list[str]:
    f = exp["f"]
    want = {"d": len(f) - 1, "f": [str(x) for x in f],
            "h": [str(x) for x in h_vector(f)], "e": [str(x) for x in e_vector(f)]}
    return [f"{key}: got {vec.get(key)}, want {want[key]}" for key in want if vec.get(key) != want[key]]


def _report_errors(report: dict, exp: dict) -> list[str]:
    return [f"{flag}: got {report.get(flag)}, want {value}"
            for flag, value in exp["flags"].items() if report.get(flag) != value]


def _fine_errors(sizes: dict, terms: int, exp: dict) -> list[str]:
    """The fine table must specialize to the e-vector when variables are equated."""
    e = e_vector(exp["f"])
    got = [sizes.get(str(k), 0) for k in range(len(e))]
    errs = [] if got == e else [f"fine table sums by size {got}, want e {e}"]
    if terms < 1 or terms > exp["faces"]:
        errs.append(f"{terms} fine terms for {exp['faces']} faces")
    return errs


def check_library_item(obs: dict, exp: dict) -> list[str]:
    """Errors in one corpus5 or large item (empty when correct)."""
    errs = _vector_errors(obs["vectors"], exp)
    errs += _report_errors(obs["report"], exp)
    errs += _fine_errors(obs["fine_sizes"], obs["fine_terms"], exp)
    if obs["facets"] != exp["facets"]:
        errs.append("facets differ from the brute-force maximal facets")
    if "coarse" in obs and obs["coarse"] != [str(x) for x in e_vector(exp["f"])]:
        errs.append(f"coarse_from_fine gave {obs['coarse']}")
    if "oracle" in obs:
        o = obs["oracle"]
        if o["mismatches"]:
            errs.append(f"{o['mismatches']} multidegrees with taylor != graded")
        if o["checked"] != 3 ** exp["n"] or o["ones"] != exp["oracle_ones"]:
            errs.append(f"oracle checked {o['checked']} with {o['ones']} ones, "
                        f"want {3 ** exp['n']} with {exp['oracle_ones']}")
    return errs


def _json_payload(obs: dict) -> tuple[dict | None, list[str]]:
    if obs["rc"] != 0:
        return None, [f"exit {obs['rc']}: {obs['stderr'][-300:]!r}"]
    if obs["stderr"]:
        return None, [f"unexpected stderr {obs['stderr'][-300:]!r}"]
    try:
        return json.loads(obs["stdout"]), []
    except json.JSONDecodeError as exc:
        return None, [f"invalid JSON: {exc}"]


def _facet_text_errors(obs: dict, want_facets: list[list[str]]) -> list[str]:
    if obs["rc"] != 0 or obs["stderr"]:
        return [f"exit {obs['rc']}: {obs['stderr'][-300:]!r}"]
    got = []
    for line in obs["stdout"].splitlines():
        parts = line.split()
        if not parts or parts[0] != "facet":
            return [f"bad facet line {line!r}"]
        got.append(sorted(parts[1:]))
    return [] if sorted(got) == want_facets else ["facets differ from the brute-force link"]


def check_cli_item(item: dict, obs: dict, exp: dict) -> list[str]:
    """Errors in one CLI invocation (empty when correct)."""
    verb = item["verb"]
    if verb == "error":
        errs = []
        if obs["rc"] != 1:
            errs.append(f"exit {obs['rc']}, want 1")
        if not obs["stderr"].startswith("scx: ") or "Traceback" in obs["stderr"]:
            errs.append(f"stderr {obs['stderr'][-300:]!r}")
        if obs["stdout"]:
            errs.append("output on stdout")
        return errs
    if verb == "link":
        return _facet_text_errors(obs, exp["link_facets"])
    if verb == "pipe" and (obs["make_rc"] != 0 or obs["make_stderr"]):
        return [f"make exit {obs['make_rc']}: {obs['make_stderr'][-300:]!r}"]
    payload, errs = _json_payload(obs)
    if payload is None:
        return errs
    if verb in ("check", "pipe"):
        errs += _vector_errors(payload, exp) + _report_errors(payload, exp)
    elif verb == "vectors":
        errs += _vector_errors(payload, exp)
    elif verb == "info":
        want = {"kind": "nonvoid", "vertices": exp["n"], "labels": exp["labels"],
                "facets": exp["facets"], "dimension": len(exp["f"]) - 2,
                "pure": exp["pure"], "faces": exp["faces"]}
        errs += [f"{k}: got {payload.get(k)!r}" for k in want if payload.get(k) != want[k]]
    elif verb == "series":
        e = [str(x) for x in e_vector(exp["f"])]
        if payload.get("e") != e:
            errs.append(f"e: got {payload.get('e')}, want {e}")
        sizes: dict[str, int] = {}
        for term in payload.get("fine", []):
            key = str(len(term["subset"]))
            sizes[key] = sizes.get(key, 0) + int(term["coeff"])
        errs += _fine_errors(sizes, len(payload.get("fine", [])), exp)
    elif verb == "oracle":
        want = {"ok": True, "checked": 2 ** exp["n"]}
        if payload != want:
            errs.append(f"oracle: got {payload}, want {want}")
    return errs
