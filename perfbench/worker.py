"""One measurement worker: a fresh interpreter that runs one workload.

    python3 perfbench/worker.py <workload> <seed> <seconds> <traced 0|1>

It imports ``repro`` from the checkout, builds the testbed up to the
first op being ready and prints ``ready`` (``run.py`` times launch to
that line: one cold start), measures ops for ``seconds`` of op-clock
time, and prints one JSON line with its calibrated op times, exact
metrics and check counts.  A traced worker installs the ``Tracer``
before building, so its per-layer numbers cover the same code paths.
"""

from __future__ import annotations

import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from measure import OpClock, scale_factor  # noqa: E402
from tracing import Tracer, assert_untraced  # noqa: E402
from workloads import WORKLOADS, import_repro  # noqa: E402


def paper_err_pct(wl) -> float:
    """|simulated − paper| ÷ paper × 100, for workloads with a paper value."""
    from repro.bench import paper
    sim = wl.sim_metrics
    if wl.paper_key == "rtt":
        ref, got = paper.FIG3_RTT[("QPIP", "tcp")].value, sim["sim_op_us_p50"]
    elif wl.paper_key == "ttcp":
        ref, got = paper.MTU_SWEEP[1500].value, sim["sim_mb_s"]
    else:
        ref, got = paper.FIG4_THROUGHPUT["IP/GigE"].value, sim["sim_mb_s"]
    return abs(got - ref) / ref * 100.0


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = WORKLOADS[name](seed)
    clock = OpClock(wl.calib_every)
    tracer = None
    if traced:
        tracer = Tracer(clock.now)
        clock.on_start = tracer.reset
        with tracer:
            wl.setup()
            print("ready", flush=True)
            wl.measure(seconds, clock)
    else:
        wl.setup()
        print("ready", flush=True)
        assert_untraced()
        wl.measure(seconds, clock)
    clock.finish()
    wl.finish_exact()
    exact = dict(wl.sim_metrics)
    exact.update(wl.exact)
    if wl.paper_key is not None:
        exact["paper_err_pct"] = paper_err_pct(wl)
    calib_ms = clock.raw_calib_ms()
    out = {
        "ops_ms": clock.calibrated_ms(),
        "raw_ms": [raw * 1000.0 for raw, _ in clock.ops],
        "calib_ms": calib_ms,
        "calib_factor": scale_factor([calib_ms]),
        "seconds": clock.calibrated_seconds(),
        "pkts_per_op": wl.pkts_per_op,
        "exact": exact,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "failures": wl.failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.per_op(len(clock.ops), calib_ms)
    return out


if __name__ == "__main__":
    import_repro(ROOT)
    os.chdir(ROOT)
    result = run(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]),
                 sys.argv[4] == "1")
    print(json.dumps(result), flush=True)
