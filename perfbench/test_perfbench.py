"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q

They cover the percentile rule, the calibration arithmetic, self-time
accounting of the tracing wrappers, exact-metric determinism (across
runs, seeds and tracing), the emitted metric names against
BENCHMARK.json, and the refusal to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import measure  # noqa: E402
import worker  # noqa: E402
from measure import OpClock, tail_percentile  # noqa: E402
from tracing import TARGETS, Tracer, _resolve, assert_untraced  # noqa: E402
from workloads import import_repro  # noqa: E402

import_repro(ROOT)


# -- the percentile rule ------------------------------------------------------

def test_tail_percentile_keeps_ten_ops_beyond_it():
    for n in range(1, 3000):
        p = tail_percentile(n)
        if p is None:
            assert n - math.ceil(0.5 * n) < measure.TAIL_MIN_BEYOND
            continue
        assert n - math.ceil(p / 100 * n) >= measure.TAIL_MIN_BEYOND
        for higher in (q for q in measure.TAIL_PERCENTILES if q > p):
            assert n - math.ceil(higher / 100 * n) < measure.TAIL_MIN_BEYOND
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 75.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(39) == 50.0
    assert tail_percentile(19) is None


def test_nearest_rank():
    values = list(range(1, 101))
    assert measure.nearest_rank(values, 50) == 50
    assert measure.nearest_rank(values, 99) == 99
    assert measure.nearest_rank([7.0], 99) == 7.0


# -- calibration --------------------------------------------------------------

def test_ops_scale_by_reference_over_adjacent_calibration(monkeypatch):
    ref = calib.REFERENCE_MS
    runs = iter([2 * ref] * 3 + [4 * ref] * 3 + [4 * ref] * 3)
    monkeypatch.setattr(measure, "calibration_run", lambda: next(runs))
    clock = OpClock(calib_every=2)
    clock.start()
    clock.record(0.010)
    clock.record(0.020)     # second op: a calibration block follows
    clock.record(0.030)
    clock.finish()
    # Interval 0 sits between blocks of 2·ref and 4·ref: median 3·ref.
    # Interval 1 sits between two blocks of 4·ref.
    assert clock.calibrated_ms() == pytest.approx([10 / 3, 20 / 3, 7.5])
    assert measure.scale_factor([ref, ref, 3 * ref]) == pytest.approx(1.0)


def test_op_clock_excludes_calibration_time(monkeypatch):
    import time
    monkeypatch.setattr(measure, "calibration_run",
                        lambda: time.sleep(0.02) or calib.REFERENCE_MS)
    clock = OpClock(calib_every=1)
    t0 = clock.now()
    clock.start()
    assert clock.now() - t0 < 0.02


def test_calibration_loop_is_pinned_by_its_checksum(monkeypatch):
    assert calib.calibration_run() > 0
    monkeypatch.setattr(calib, "CHECKSUM", calib.CHECKSUM + 1)
    with pytest.raises(RuntimeError, match="checksum"):
        calib.calibration_run()


# -- tracing wrappers ---------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf_fn():
        clock.t += 2

    leaf = tr.wrap_call("leaf", leaf_fn)

    def mid_fn():
        clock.t += 1
        leaf()
        clock.t += 3

    mid = tr.wrap_call("mid", mid_fn)

    def top_fn():
        clock.t += 5
        mid()
        leaf()

    tr.wrap_call("top", top_fn)()
    assert dict(tr.self_s) == {"top": 5, "mid": 4, "leaf": 4}
    assert dict(tr.calls) == {"top": 1, "mid": 1, "leaf": 2}
    assert tr.stack == []


def test_generator_is_timed_per_resume_not_while_suspended():
    clock = FakeClock()
    tr = Tracer(clock)
    leaf = tr.wrap_call("leaf", lambda: setattr(clock, "t", clock.t + 2))

    def gen_fn():
        clock.t += 1
        got = yield "first"
        clock.t += 2
        leaf()
        try:
            yield got
        except KeyError:
            clock.t += 4
        return "done"

    gen = tr.wrap_generator("gen", gen_fn)()
    assert next(gen) == "first"
    clock.t += 100            # suspended: charged to nobody
    assert gen.send(7) == 7
    clock.t += 50
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "done"
    assert dict(tr.self_s) == {"gen": 7, "leaf": 2}
    assert dict(tr.calls) == {"gen": 1, "leaf": 1}


def test_tracer_installs_and_removes_every_wrapper(monkeypatch):
    import types
    from repro.cluster import runner
    original = runner.run_cluster
    late = types.ModuleType("repro._late_importer")
    assert_untraced()
    with Tracer(FakeClock()):
        for _layer, spec in TARGETS:
            _owner, _name, raw = _resolve(spec)
            fn = getattr(raw, "__func__", raw)
            assert hasattr(fn, "__perfbench_layer__"), spec
        with pytest.raises(RuntimeError, match="wrapper left"):
            assert_untraced()
        # A module imported while tracing binds the wrapper by name.
        monkeypatch.setitem(sys.modules, late.__name__, late)
        late.run_cluster = runner.run_cluster
        assert late.run_cluster is not original
    assert late.run_cluster is original
    assert_untraced()


# -- exact metrics ------------------------------------------------------------

@pytest.mark.parametrize("name", ["rtt_1b", "ttcp_1500", "sock_ttcp",
                                  "allreduce_lossy"])
def test_exact_metrics_repeat_across_runs_seeds_and_tracing(name):
    first = worker.run(name, 1, 0.0, traced=False)
    again = worker.run(name, 2, 0.0, traced=False)
    traced = worker.run(name, 1, 0.0, traced=True)
    for result in (first, again, traced):
        assert result["failed"] == 0, result["failures"]
        assert result["attempted"] > 0
    assert again["exact"] == first["exact"]
    assert traced["exact"] == first["exact"]
    assert set(traced["layers"]) >= {"sim.self_ms", "net.codec_calls"}


# -- the command ----------------------------------------------------------------

def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_metrics_match_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    proc = _run(ROOT, "--workload", "rtt_1b", "--seed", "3",
                "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = spec["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for metric in spec["end_to_end"]:
        if trace == "0":
            assert result["metrics"][metric["name"]]["value"] != 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "rtt_1b", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
