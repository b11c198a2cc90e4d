"""scx benchmark: one command that prints every metric with its unit.

    python3 perfbench/run.py --workload {corpus5,large,cli} --seed N --seconds S --trace {0,1}

Run from the repository root. Set-up writes the inputs and the expected
answers. Then passes over the same items, each in a fresh interpreter
(worker.py), run until S seconds of passes have gone by; a pass that has
started always completes, so every run measures a whole number of passes.
The load is one client in a closed loop: the next item starts when the
previous one has finished.

The CPU speed of a small shared machine drifts by tens of percent, over
seconds and over minutes. So every time is scaled to one reference speed by
the speed meter of speed.py; each latency figure is computed per pass (a pass
lasts a few seconds) and the median over passes reported; and set-up is
repeated after every untraced pass and its median time reported. The
unscaled figures are on the detail line.

--trace 0 prints the end-to-end metrics of untraced passes. --trace 1 cycles
untraced, span-traced and tracemalloc passes and prints the per-layer metrics,
including the tracing overhead against the untraced passes. The last line of
stdout is one JSON object: correct, attempted, failed, metrics; the line
before it holds the details (error rate, tail percentile and its sample
count, exact counts, cache state at each pass start).

Everything is written under .bench_build/perfbench/ and removed at exit,
except the spans of the last traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

STARTUP_SAMPLES = 5
SETUP_METER_S = 0.02  # at least this much speed-meter time after each set-up
ROOT = Path.cwd()
WORKER = Path(__file__).resolve().parent / "worker.py"


def run_pass(pass_dir: Path, mode: str, index: int) -> dict:
    out = pass_dir / f"pass-{index}-{mode}.json"
    proc = subprocess.run([sys.executable, str(WORKER), str(pass_dir), mode, str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass {index} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def timed_setup(workload: str, seed: int, pass_dir: Path) -> tuple[dict, str]:
    """Write the inputs and expected answers; the time taken, the speed right after, what was written."""
    t0 = time.perf_counter()
    inputs, expected = workloads.setup(workload, seed, pass_dir, ROOT)
    spec = json.dumps(inputs), json.dumps(expected)
    (pass_dir / "inputs.json").write_text(spec[0])
    (pass_dir / "expected.json").write_text(spec[1])
    elapsed = time.perf_counter() - t0
    meter = speed.Meter()
    meter.after(max(elapsed, SETUP_METER_S / speed.SHARE))
    return {"s": elapsed, "slice_s": meter.median()}, "".join(spec)


def run_passes(pass_dir: Path, modes: tuple[str, ...], seconds: float, after_pass=None) -> list[dict]:
    """Cycle through the modes until `seconds` of passes have run and each mode has run once."""
    passes: list[dict] = []
    elapsed = 0.0
    while len(passes) < len(modes) or elapsed < seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(pass_dir, modes[len(passes) % len(modes)], len(passes)))
        elapsed += time.perf_counter() - t0
        if after_pass:
            after_pass()
    return passes


def startup_ms() -> float:
    """Median wall time of a fresh interpreter that only imports scx.cli."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import scx.cli"
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        samples.append((time.perf_counter() - t0) * 1000)
    return statistics.median(samples)


def verify_passes(passes: list[dict]) -> list[str]:
    """Cold state at every pass start, and exact counts equal across passes."""
    problems = []
    for i, p in enumerate(passes):
        warm = {k: v for k, v in p["caches_start"].items() if v}
        if warm:
            problems.append(f"pass {i} started with cached entries {warm}")
        if p["mode"] != "memory" and p["counts"] != passes[0]["counts"]:
            problems.append(f"pass {i} counts {p['counts']} != pass 0 counts {passes[0]['counts']}")
    return problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def speed_factor(p: dict) -> float:
    return speed.REFERENCE_S / p["slice_s"]


def timings(workload: str, passes: list[dict], setups: list[dict], scaled: bool) -> dict:
    """Per-pass throughput, median and tail, the median of each over passes; median set-up time.

    Scaled figures multiply every time by the speed factor measured with it.
    """
    pct = workloads.TAIL_PERCENTILE[workload]
    factors = [speed_factor(p) if scaled else 1.0 for p in passes]

    def over_passes(figure) -> float:
        return statistics.median(figure([x * f for x in p["latencies"]]) for p, f in zip(passes, factors))

    return {
        "items_per_s": over_passes(lambda lat: len(lat) / sum(lat)),
        "item_p50_ms": over_passes(statistics.median) * 1000,
        "item_tail_ms": over_passes(lambda lat: statistics.quantiles(lat, n=100, method="inclusive")[pct - 1]) * 1000,
        "setup_s": statistics.median(x["s"] * (speed_factor(x) if scaled else 1.0) for x in setups),
    }


def end_to_end(workload: str, passes: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    units = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms", "setup_s": "s"}
    scaled = timings(workload, passes, setups, scaled=True)
    unscaled = timings(workload, passes, setups, scaled=False)
    metrics = {name: metric(value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB")
    latencies = [x for p in passes for x in p["latencies"]]
    raw_tail = unscaled["item_tail_ms"] / 1000
    detail = {"unscaled": unscaled,
              "speed_factor_by_pass": [speed_factor(p) for p in passes],
              "items_per_s_by_pass": [len(p["latencies"]) / sum(p["latencies"]) for p in passes],
              "samples": len(latencies), "tail_percentile": workloads.TAIL_PERCENTILE[workload],
              "tail_samples_beyond": sum(x > raw_tail for x in latencies),
              "peak_rss_mb_max": max(p["peak_rss_mb"] for p in passes)}
    return metrics, detail


def per_layer(passes: list[dict], startup: float) -> dict:
    """Per-pass layer figures: medians over the span passes, maxima over the memory passes."""
    plain = [p for p in passes if p["mode"] in ("plain", "inproc")]
    traced = [p for p in passes if p["mode"] == "spans"]
    memory = [p for p in passes if p["mode"] == "memory"]

    def s(name):
        return statistics.median(p["trace"]["by_name"].get(name, {}).get("s", 0.0) * speed_factor(p)
                                 for p in traced)

    def calls(name):
        return statistics.median(p["trace"]["by_name"].get(name, {}).get("calls", 0) for p in traced)

    def module_s(module):
        return statistics.median(p["trace"]["module_s"].get(module, 0.0) * speed_factor(p) for p in traced)

    def peak_mb(module):
        return max(p["trace"]["module_peak_bytes"].get(module, 0) for p in memory) / 2 ** 20

    counts = passes[0]["counts"]
    classify_calls = calls("properties.classify")
    overhead = (statistics.median(sum(p["latencies"]) * speed_factor(p) for p in traced)
                / statistics.median(sum(p["latencies"]) * speed_factor(p) for p in plain) - 1)
    values = {
        "hilbert.taylor_coefficient.s": (s("hilbert.taylor_coefficient"), "s"),
        "hilbert.taylor_coefficient.calls": (calls("hilbert.taylor_coefficient"), "count"),
        "hilbert.graded_dimension.s": (s("hilbert.graded_dimension"), "s"),
        "hilbert.graded_dimension.calls": (calls("hilbert.graded_dimension"), "count"),
        "properties.classify.s": (s("properties.classify"), "s"),
        "properties.is_eulerian.s": (s("properties.is_eulerian"), "s"),
        "properties.is_eulerian.per_classify":
            (calls("properties.is_eulerian") / classify_calls if classify_calls else 0.0, "ratio"),
        "properties.ds_checks.s": (sum(s(f"properties.{n}") for n in (
            "check_property_e", "check_weak_property_e", "check_classical_ds", "check_general_ds")), "s"),
        "hilbert.fine_e_polynomial.s": (s("hilbert.fine_e_polynomial"), "s"),
        "hilbert.fine_terms": (counts.get("hilbert.fine_terms", 0), "count"),
        "complexes.parse_facet_text.s": (s("complexes.parse_facet_text"), "s"),
        "complexes.from_facets.s": (s("complexes.from_facets"), "s"),
        "complexes.facets_kept_ratio": (counts["complexes.facets_kept"] / counts["complexes.facets_given"]
                                        if counts.get("complexes.facets_given") else 0.0, "ratio"),
        "complexes.face_mask_set.s": (s("complexes.face_mask_set"), "s"),
        "complexes.faces": (counts.get("complexes.faces", 0), "count"),
        "complexes.facets_kept": (counts.get("complexes.facets_kept", 0), "count"),
        "oracle.multidegrees": (counts.get("oracle.multidegrees", 0), "count"),
        "complexes.peak_mb": (peak_mb("complexes"), "MB"),
        "hilbert.peak_mb": (peak_mb("hilbert"), "MB"),
        "properties.peak_mb": (peak_mb("properties"), "MB"),
        "complexes.s": (module_s("complexes"), "s"),
        "hilbert.s": (module_s("hilbert"), "s"),
        "properties.s": (module_s("properties"), "s"),
        "vectors.s": (module_s("vectors"), "s"),
        "harness.s": (module_s("harness"), "s"),
        "cli.startup_ms": (startup, "ms"),
        "cli.run.s": (s("cli.run"), "s"),
        "cli.stdout_bytes": (counts.get("cli.stdout_bytes", 0), "count"),
        "trace.overhead": (overhead, "ratio"),
    }
    return {name: metric(v, unit) for name, (v, unit) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "scx" / "__init__.py").is_file() or not (ROOT / "pyproject.toml").is_file():
        print("perfbench: run from the root of an scx checkout (src/scx and pyproject.toml not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    build = ROOT / ".bench_build" / "perfbench"
    pass_dir = build / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    try:
        setups, specs = [], []

        def setup_once():
            sample, spec = timed_setup(args.workload, args.seed, pass_dir)
            setups.append(sample)
            specs.append(spec)

        setup_once()

        if args.trace:
            first = "inproc" if args.workload == "cli" else "plain"
            passes = run_passes(pass_dir, (first, "spans", "memory"), args.seconds)
            metrics = per_layer(passes, startup_ms())
            traced = [p for p in passes if p["mode"] == "spans"]
            last = pass_dir / f"pass-{passes.index(traced[-1])}-spans.spans.bin"
            kept = build / f"spans-{args.workload}.bin"
            for src, dst in ((last, kept), (last.with_suffix(".json"), kept.with_suffix(".json"))):
                shutil.copyfile(src, dst)
            detail = {"spans_file": str(kept.relative_to(ROOT)),
                      "spans_per_pass": traced[-1]["trace"]["spans"]}
        else:
            passes = run_passes(pass_dir, ("plain",), args.seconds, after_pass=setup_once)
            metrics, detail = end_to_end(args.workload, passes, setups)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)

    problems = [] if len(set(specs)) == 1 else ["set-up is not deterministic for this seed"]
    problems += verify_passes(passes)
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    detail.update({
        "workload": args.workload, "seed": args.seed, "python": platform.python_version(),
        "nproc": os.cpu_count(), "passes": len(passes),
        "items_per_pass": len(passes[0]["latencies"]), "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "setup_samples": setups,
        "counts_per_pass": passes[0]["counts"], "caches_at_pass_start": passes[-1]["caches_start"],
        "caches_at_pass_end": passes[-1]["caches_end"], "problems": problems,
        "first_failures": [f for p in passes for f in p["failures"]][:5],
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
