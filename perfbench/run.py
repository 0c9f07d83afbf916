"""End-to-end and per-layer benchmark of the edgenas NAS loop.

    python3 perfbench/run.py --workload cold_embedded --seed 1 --seconds 20 --trace 0

Runs seeded searches of one workload (see README.md) from the repository's
own source. With --trace 0 it runs searches until --seconds have passed,
at least three, and reports the end-to-end metrics. With --trace 1 it runs
one untraced and one traced search and the layer sweep, and reports the
per-layer metrics. Every search's outputs are checked. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "edgenas" / "__init__.py").is_file():
    sys.exit(f"error: no edgenas package under {ROOT / 'src'}; run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import prefill  # noqa: E402
import sweep  # noqa: E402
from tracing import pct  # noqa: E402

MIN_SEARCHES = 3  # the history CSV is compared across repeats
SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170.0
TMP_DIR = ROOT / ".perfbench_tmp"


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version()}


def end_to_end(workload, seed: int, seconds: int, run_dir: Path, prefill_path):
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < MIN_SEARCHES or time.perf_counter() < deadline:
        results.append(harness.run_search(workload, seed, run_dir, len(results), prefill_path, trace=False))
    setups = [r.setup_s for r in results]
    while len(setups) < SETUP_SAMPLES:
        setups.append(harness.setup_only(workload, seed, run_dir, len(setups), prefill_path))
    if any(r.history_csv != results[0].history_csv for r in results):
        raise harness.CheckFailed("history CSV differs between repeats of one seed")
    evals = sum(r.evals for r in results)
    failed = sum(r.failed for r in results)
    latencies = [x for r in results for x in r.latencies_ms]
    metrics = {
        "setup_s": statistics.median(setups),
        "evals_per_s": evals / sum(r.wall_s for r in results),
        "candidate_latency_ms.mean": statistics.fmean(latencies),
        "cpu_ms_per_eval": sum(r.cpu_s for r in results) * 1000.0 / evals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (evals - failed) / evals,
    }
    # printed, not gated: poll ticks make latency multimodal, so a percentile
    # near a mode boundary flips between runs (see README.md)
    info = {"searches": len(results), "latency_samples": len(latencies), "setup_samples": len(setups),
            **{f"candidate_latency_ms.p{q}": pct(latencies, q) for q in (50, 90, 95)}}
    return evals, failed, metrics, info


def per_layer(workload, seed: int, run_dir: Path, prefill_path):
    plain = harness.run_search(workload, seed, run_dir, 0, prefill_path, trace=False)
    traced = harness.run_search(workload, seed, run_dir, 1, prefill_path, trace=True)
    if plain.history_csv != traced.history_csv:
        raise harness.CheckFailed("history CSV differs between the traced and the untraced search")
    metrics = dict(traced.layers)
    metrics.update(sweep.run(prefill.cached(seed), run_dir, seed))
    metrics["trace.evals_per_s.untraced"] = plain.evals / plain.wall_s
    metrics["trace.evals_per_s.traced"] = traced.evals / traced.wall_s
    info = {"searches": 2, "latency_samples": len(traced.latencies_ms)}
    return plain.evals + traced.evals, plain.failed + traced.failed, metrics, info


def _watchdog() -> None:
    print(f"error: run exceeded {RUN_DEADLINE_S}s; stopping", file=sys.stderr, flush=True)
    for child in list(harness.children):
        child.kill()
        child.wait()
    shutil.rmtree(TMP_DIR / str(os.getpid()), ignore_errors=True)
    os._exit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    workload = harness.WORKLOADS[args.workload]

    timer = threading.Timer(RUN_DEADLINE_S, _watchdog)
    timer.daemon = True
    timer.start()
    run_dir = TMP_DIR / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    os.environ["SQLITE_TMPDIR"] = str(run_dir)  # any SQLite temp file stays in the checkout
    correct = True
    try:
        prefill_path = prefill.cached(args.seed) / "rows20k.sqlite" if workload.prefilled else None
        if args.trace:
            attempted, failed, metrics, info = per_layer(workload, args.seed, run_dir, prefill_path)
        else:
            attempted, failed, metrics, info = end_to_end(workload, args.seed, args.seconds, run_dir, prefill_path)
        units = declared_units(args.trace)
        if set(metrics) != set(units):
            raise harness.CheckFailed(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    except harness.CheckFailed as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        correct, attempted, failed, metrics, units, info = False, 1, 1, {}, {}, {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if TMP_DIR.is_dir() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()
        timer.cancel()

    print("machine " + json.dumps(machine()))
    print("run " + json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace, **info}))
    for name, value in sorted(metrics.items()):
        print(f"  {name:52s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
