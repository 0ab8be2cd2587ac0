"""Benchmark entry point.

    python3 perfbench/run.py --workload rtt_1b --seed 1 --seconds 10 --trace 0

Run from the repository root.  A run starts ``WORKERS`` fresh worker
interpreters one after another (never two at once; each is one thread)
and splits ``--seconds`` of measurement between them.  Each worker's
launch-to-first-op-ready time is one cold start (``setup_s``); its op
times are pooled with the others'.  Pooling over fresh processes is what
makes the figures repeat: on a shared host the same code runs up to a
third faster or slower in one process than in the next, and no loop run
beside it in the same process cancels that.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced workers, checks that every exact metric is identical
across all of them, and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
from measure import (TAIL_MIN_BEYOND, median, nearest_rank,  # noqa: E402
                     tail_percentile)
from tracing import METRICS as TRACED_METRICS  # noqa: E402
from workloads import WORKLOADS, import_repro  # noqa: E402

#: Untraced workers per ``--trace 0`` run; untraced + traced pairs per
#: ``--trace 1`` run.
WORKERS = 5
TRACE_PAIRS = 2
#: A worker that has not finished this long after its budget is killed.
WORKER_GRACE_S = 120.0

END_TO_END_UNITS = {
    "wall_ms_p50": "ms", "wall_ms_tail": "ms", "sim_pkts_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "sim_op_us_p50": "sim_us",
    "sim_mb_s": "MB/s", "sim_host_cpu_pct": "%"}


def fingerprint() -> str:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"machine: {model}, nproc {os.cpu_count()}, "
            f"python {platform.python_version()}")


def run_worker(workload: str, seed: int, seconds: float,
               traced: bool) -> dict:
    """Run one worker to completion; returns its result and cold start."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), workload,
         str(seed), repr(seconds), "1" if traced else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        cold_s = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
        proc.wait(timeout=seconds + WORKER_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker failed "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["cold_s"] = cold_s
    result["traced"] = traced
    return result


def pooled(results: List[dict]) -> dict:
    """Median and tail over every worker's calibrated op times."""
    ms = sorted(t for r in results for t in r["ops_ms"])
    raw = sorted(t for r in results for t in r["raw_ms"])
    p = tail_percentile(len(ms))
    pkts = sum(r["pkts_per_op"] * len(r["ops_ms"]) for r in results)
    return {
        "ops": len(ms), "p50": median(ms), "tail_p": p,
        "tail": None if p is None else nearest_rank(ms, p),
        "raw_p50": median(raw),
        "calib_ms": median([r["calib_ms"] for r in results]),
        "pkts_per_s": pkts / sum(r["seconds"] for r in results),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_repro(ROOT)   # fail fast, before any worker, if src is missing
    print(fingerprint(), flush=True)

    if args.trace == 0:
        plan = [False] * WORKERS
    else:
        plan = [False, True] * TRACE_PAIRS
    slice_s = args.seconds / len(plan)
    results = [run_worker(args.workload, args.seed, slice_s, traced)
               for traced in plan]
    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for msg in r["failures"]:
            print(f"failed op: {msg}")
    want = plain[0]["exact"]
    drift = sorted({k for r in results for k in want
                    if r["exact"].get(k) != want[k]})
    if drift:
        print(f"exact metrics differ between workers: {drift}")
    correct = failed == 0 and not drift

    base = pooled(plain)
    print(f"calibration: raw {base['calib_ms']!r} ms per loop run "
          f"(reference {calib.REFERENCE_MS} ms); uncalibrated "
          f"wall_ms_p50 {base['raw_p50']!r} ms")
    if args.trace == 0:
        if base["tail_p"] is None:
            raise RuntimeError(f"only {base['ops']} ops measured; a tail "
                               f"needs {2 * TAIL_MIN_BEYOND}")
        beyond = base["ops"] - -(-base["tail_p"] * base["ops"] // 100)
        print(f"wall_ms_tail is p{base['tail_p']:g} of {base['ops']} ops "
              f"({beyond:g} beyond it) from {len(plain)} workers")
        if "paper_err_pct" in want:
            print(f"paper_err_pct = {want['paper_err_pct']!r} %")
        metrics = {
            "wall_ms_p50": base["p50"],
            "wall_ms_tail": base["tail"],
            "sim_pkts_per_s": base["pkts_per_s"],
            "setup_s": median([r["cold_s"] * r["calib_factor"]
                               for r in plain]),
            "peak_rss_mb": median([r["rss_mb"] for r in plain]),
            "sim_op_us_p50": want["sim_op_us_p50"],
            "sim_mb_s": want["sim_mb_s"],
            "sim_host_cpu_pct": want["sim_host_cpu_pct"],
        }
        units = END_TO_END_UNITS
    else:
        ops = sum(len(r["ops_ms"]) for r in traced)
        metrics = {k: v for k, v in want.items()
                   if not k.startswith("sim_") and k != "paper_err_pct"}
        for name in TRACED_METRICS:
            metrics[name] = sum(r["layers"][name] * len(r["ops_ms"])
                                for r in traced) / ops
        metrics["bench.calib_ms"] = base["calib_ms"]
        metrics["bench.raw_wall_ms_p50"] = base["raw_p50"]
        metrics["bench.trace_overhead_pct"] = (
            pooled(traced)["p50"] / base["p50"] - 1.0) * 100.0
        units = {}
    out: Dict[str, dict] = {}
    for name, value in metrics.items():
        unit = units.get(name) or layer_unit(name)
        out[name] = {"value": value, "unit": unit}
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_us") or ".cpu_us." in name:
        return "sim_us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
