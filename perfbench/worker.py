"""One pass over a workload's items, in a fresh interpreter.

Usage: python3 perfbench/worker.py <pass dir> <mode> <result.json>

<pass dir> holds the ``inputs.json`` and ``expected.json`` that run.py wrote
during set-up. Modes:

  plain     untraced; CLI items run as subprocesses of the entry point
  inproc    untraced; CLI items call scx.cli.run in this process
  spans     like inproc, with every public scx call traced
  memory    like spans, with tracemalloc read at every span boundary, over
            the first ``memory_items`` items only (tracemalloc is slow)

Every pass starts from a new interpreter, so nothing cached by an earlier pass
(``hilbert._minimal_nonface_masks`` is an unbounded lru_cache keyed by
structural equality) can serve this one; the worker records the size of
every scx lru_cache before the first item to show it.

Items are timed one by one; the observations needed for checking are taken
after each item's clock stops, with tracing paused, followed by the speed
meter's slices (speed.py). The checks against the expected answers run after
the last item.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import scx  # noqa: E402
import scx.cli  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def scx_caches() -> dict[str, int]:
    """Entries held by every lru_cache in the loaded scx modules."""
    return {f"{mod_name}.{name}": obj.cache_info().currsize
            for mod_name, mod in sorted(sys.modules.items())
            if mod_name == "scx" or mod_name.startswith("scx.")
            for name, obj in vars(mod).items()
            if callable(getattr(obj, "cache_info", None))}


# -- library items ---------------------------------------------------------------


def run_corpus5(item: dict):
    c = scx.from_facets(item["facets"])
    vectors = scx.vector_json(c.f_vector())
    report = scx.classify(c)
    fine = scx.fine_e_polynomial(c)
    coarse = scx.coarse_from_fine(fine)
    checked = ones = mismatches = 0
    for a in product(range(3), repeat=c.n):
        graded = scx.graded_dimension(c, a)
        mismatches += scx.taylor_coefficient(fine, a) != graded
        ones += graded
        checked += 1
    oracle = {"checked": checked, "ones": ones, "mismatches": mismatches}
    return c, vectors, report, fine, {"coarse": [str(x) for x in coarse], "oracle": oracle}


def run_large(item: dict):
    c = scx.from_facets(item["facets"])
    vectors = scx.vector_json(c.f_vector())
    report = scx.classify(c)
    fine = scx.fine_e_polynomial(c)
    return c, vectors, report, fine, {}


def observe_library(result) -> dict:
    c, vectors, report, fine, extra = result
    terms = fine.sorted_terms()
    sizes: dict[str, int] = {}
    for subset, coeff in terms:
        sizes[str(len(subset))] = sizes.get(str(len(subset)), 0) + coeff
    return {"vectors": vectors, "report": report.to_dict(), "fine_terms": len(terms),
            "fine_sizes": sizes, "facets": [list(f) for f in c.facets()], **extra}


def library_counts(obs: dict, item: dict) -> dict:
    return {"complexes.faces": sum(int(x) for x in obs["vectors"]["f"]),
            "complexes.facets_given": len(item["facets"]),
            "complexes.facets_kept": len(obs["facets"]),
            "hilbert.fine_terms": obs["fine_terms"],
            "oracle.multidegrees": obs.get("oracle", {}).get("checked", 0)}


# -- CLI items -------------------------------------------------------------------


def run_cli_subprocess(item: dict, entry: list[str]) -> dict:
    if item["verb"] == "pipe":
        make = subprocess.Popen(entry + item["make"], stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        check = subprocess.Popen(entry + item["argv"], stdin=make.stdout,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        make.stdout.close()
        out, err = check.communicate()
        make_err = make.stderr.read()
        make.stderr.close()
        return {"rc": check.returncode, "stdout": out.decode(), "stderr": err.decode(),
                "make_rc": make.wait(), "make_stderr": make_err.decode()}
    proc = subprocess.run(entry + item["argv"], stdin=subprocess.DEVNULL, capture_output=True)
    return {"rc": proc.returncode, "stdout": proc.stdout.decode(), "stderr": proc.stderr.decode()}


def run_cli_inprocess(item: dict) -> dict:
    obs: dict = {}
    stdin = io.StringIO()
    if item["verb"] == "pipe":
        make_out, make_err = io.StringIO(), io.StringIO()
        obs["make_rc"] = scx.cli.run(item["make"], io.StringIO(), make_out, make_err)
        obs["make_stderr"] = make_err.getvalue()
        stdin = io.StringIO(make_out.getvalue())
    out, err = io.StringIO(), io.StringIO()
    obs["rc"] = scx.cli.run(item["argv"], stdin, out, err)
    obs["stdout"], obs["stderr"] = out.getvalue(), err.getvalue()
    return obs


def cli_counts(obs: dict, item: dict) -> dict:
    """Exact counts read back from the output of one invocation."""
    counts = {"cli.stdout_bytes": len(obs["stdout"].encode()), "cli.invocations": 1 + ("make" in item)}
    verb = item["verb"]
    if verb in ("error", "link") or obs["rc"] != 0:
        return counts
    payload = json.loads(obs["stdout"])
    if verb == "info":
        counts["complexes.faces"] = payload["faces"]
        counts["complexes.facets_kept"] = len(payload["facets"])
        counts["complexes.facets_given"] = item["raw_facets"]
    elif verb in ("check", "vectors", "pipe"):
        counts["complexes.faces"] = sum(int(x) for x in payload["f"])
    elif verb == "series":
        counts["hilbert.fine_terms"] = len(payload["fine"])
    elif verb == "oracle":
        counts["oracle.multidegrees"] = payload["checked"]
    return counts


# -- one pass ----------------------------------------------------------------------


def main(pass_dir: Path, mode: str, result_path: Path) -> None:
    inputs = json.loads((pass_dir / "inputs.json").read_text())
    workload, items = inputs["workload"], inputs["items"]
    caches_start = scx_caches()
    tracer = None
    if mode in ("spans", "memory"):
        tracer = spans.Tracer(memory=mode == "memory")
        tracer.install()
        if tracer.memory:
            tracemalloc.start()

    if workload == "cli":
        entry = [sys.executable, inputs["entry_point"]]
        run = ((lambda item: run_cli_subprocess(item, entry)) if mode == "plain"
               else run_cli_inprocess)
        observe, count = (lambda obs: obs), cli_counts
    else:
        run = run_corpus5 if workload == "corpus5" else run_large
        observe, count = observe_library, library_counts

    if mode == "memory":
        items = items[:inputs["memory_items"]]
    span = tracer.item if tracer else (lambda index: contextlib.nullcontext())
    paused = tracer.paused if tracer else contextlib.nullcontext
    meter = speed.Meter()
    latencies, observations = [], []
    for index, item in enumerate(items):
        with span(index):
            t0 = time.perf_counter()
            out = run(item)
            latencies.append(time.perf_counter() - t0)
        with paused():
            observations.append(observe(out))
        del out
        meter.after(latencies[-1])
    usage = resource.RUSAGE_CHILDREN if workload == "cli" and mode == "plain" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    caches_end = scx_caches()
    if tracer and tracer.memory:
        tracemalloc.stop()

    expected = json.loads((pass_dir / "expected.json").read_text())
    failures, counts = [], {}
    for index, (item, obs, exp) in enumerate(zip(items, observations, expected)):
        try:
            errs = (checks.check_cli_item(item, obs, exp) if workload == "cli"
                    else checks.check_library_item(obs, exp))
        except (KeyError, TypeError, ValueError) as exc:
            errs = [f"malformed output: {type(exc).__name__}: {exc}"]
        if errs:
            failures.append([index, errs[:3]])
        try:
            item_counts = count(obs, item)
        except (KeyError, TypeError, ValueError):
            item_counts = {}  # already a failure above
        for key, value in item_counts.items():
            counts[key] = counts.get(key, 0) + value

    result = {"mode": mode, "latencies": latencies, "slice_s": meter.median(), "peak_rss_mb": peak_rss_mb,
              "caches_start": caches_start, "caches_end": caches_end,
              "failures": failures, "counts": counts}
    if tracer:
        result["trace"] = tracer.summary()
        if mode == "spans":
            tracer.write(result_path.with_name(result_path.stem + ".spans.bin"))
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3]))
