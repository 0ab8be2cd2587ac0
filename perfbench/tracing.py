"""Traced runs: benchmark-owned wrappers on the program's entry points.

``Tracer`` is the one place wrappers are installed and removed: entering
it wraps every target in ``TARGETS``, leaving restores the originals.
Each wrapper counts calls exactly and times its layer's *self* time:
inclusive time minus the time spent in wrapped children.  A generator
entry point (a simulated process step such as ``QpipInterface.wait``) is
timed per resume, so the time it spends suspended in the simulator is
never charged to it.

Module-level functions are patched in every ``repro`` module that holds
a reference to them, because callers import them by name.  The clock is
the op clock, which excludes calibration blocks.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from calib import REFERENCE_MS

#: (layer, "module:Class.attr" or "module:function").  Layers nest: a
#: layer's self time excludes every wrapped call below it.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("sim", "repro.sim.engine:Simulator.run"),
    ("sim", "repro.sim.engine:Simulator.run_window"),
    *(("core.verbs", f"repro.core.verbs:QpipInterface.{m}")
      for m in ("post_send", "post_recv", "wait", "spin", "poll",
                "coll_post")),
    ("core.cq", "repro.core.cq:CompletionQueue.push"),
    ("core.cq", "repro.core.cq:CompletionQueue.push_many"),
    *(("hw", f"repro.hw.lanai:ProgrammableNic.{m}")
      for m in ("stage", "stages", "stages_burst", "ring_doorbell",
                "dma_to_host", "dma_to_host_call", "dma_from_host",
                "wire_transmit")),
    *(("net.tcp", f"repro.net.tcp.connection:TcpConnection.{m}")
      for m in ("handle_segment", "build_segment", "send_message",
                "send_stream")),
    ("net.codec", "repro.net.headers.link:EthernetHeader.decode"),
    ("net.codec", "repro.net.headers.link:MyrinetHeader.decode"),
    ("net.codec", "repro.net.headers.ip:IPv4Header.decode"),
    ("net.codec", "repro.net.headers.ip:IPv6Header.decode"),
    ("net.codec", "repro.net.headers.transport:UDPHeader.decode"),
    ("net.codec", "repro.net.headers.transport:TCPHeader.decode"),
    ("net.codec", "repro.net.headers.transport:tcp_fill_checksum"),
    ("net.codec", "repro.net.headers.transport:tcp_verify_checksum"),
    *(("net.codec", f"repro.net.checksum:{f}")
      for f in ("ones_complement_sum", "finish", "checksum", "combine",
                "subtract", "incremental_update", "pseudo_header_v6",
                "pseudo_header_v4")),
    ("fabric", "repro.fabric.link:Link.transmit"),
    ("fabric", "repro.fabric.switch:MyrinetSwitch._on_receive"),
    ("fabric", "repro.fabric.switch:EthernetSwitch._on_receive"),
    ("hoststack", "repro.hoststack.sockets:TcpSocket.send"),
    ("hoststack", "repro.hoststack.sockets:TcpSocket.recv"),
    ("hoststack", "repro.hoststack.kernel:_NicIface.enqueue_tx"),
    ("faults", "repro.faults.inject:FaultInjector.__call__"),
    *(("obs", f"repro.obs.trace:TraceRecorder.{m}")
      for m in ("event", "begin", "end", "complete")),
    *(("obs", f"repro.obs.metrics:MetricsRegistry.{m}")
      for m in ("counter", "gauge", "histogram")),
    ("cluster", "repro.cluster.runner:run_single"),
    ("cluster", "repro.cluster.runner:run_cluster"),
    ("cluster.equiv", "repro.cluster.runner:assert_equivalent"),
    ("gate.digest", "repro.gate.digest:scenario_digests"),
    ("gate.digest", "repro.gate.digest:evaluate_invariants"),
    *(("collectives", f"repro.collectives.nicoffload:CollectiveUnit.{m}")
      for m in ("on_established", "on_closed", "start_next", "on_deliver",
                "has_pending", "fetch_next")),
    ("collectives", "repro.collectives.host:HostCollectiveMember.setup"),
    ("collectives", "repro.collectives.host:HostCollectiveMember.run"),
)

#: Per-layer metrics: name -> (layer, "calls" | "ms").
METRICS = {
    "sim.self_ms": ("sim", "ms"),
    "core.verbs_calls": ("core.verbs", "calls"),
    "core.verbs_ms": ("core.verbs", "ms"),
    "core.cq_ms": ("core.cq", "ms"),
    "hw.stage_calls": ("hw", "calls"),
    "hw.nic_ms": ("hw", "ms"),
    "net.tcp.ms": ("net.tcp", "ms"),
    "net.codec_calls": ("net.codec", "calls"),
    "net.codec_ms": ("net.codec", "ms"),
    "fabric.ms": ("fabric", "ms"),
    "hoststack.calls": ("hoststack", "calls"),
    "hoststack.ms": ("hoststack", "ms"),
    "faults.ms": ("faults", "ms"),
    "obs.calls": ("obs", "calls"),
    "obs.ms": ("obs", "ms"),
    "cluster.ms": ("cluster", "ms"),
    "cluster.equiv_ms": ("cluster.equiv", "ms"),
    "gate.digest_ms": ("gate.digest", "ms"),
    "collectives.ms": ("collectives", "ms"),
}

_MARK = "__perfbench_layer__"


def _resolve(spec: str):
    """Return (owner, attr name, raw attribute) for a target spec."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if name in klass.__dict__:
                return klass, name, klass.__dict__[name]
        raise AttributeError(spec)
    return owner, name, getattr(owner, name)


def _function_of(raw):
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
        else raw


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


def assert_untraced() -> None:
    """Fail if any wrapper is still installed (an untraced run's guard)."""
    for _layer, spec in TARGETS:
        _owner, _name, raw = _resolve(spec)
        if hasattr(_function_of(raw), _MARK):
            raise RuntimeError(f"tracing wrapper left on {spec}")
    for mod in _repro_modules():
        for name, value in vars(mod).items():
            if hasattr(value, _MARK):
                raise RuntimeError(f"tracing wrapper left on "
                                   f"{mod.__name__}.{name}")


class Tracer:
    """Context manager installing the wrappers; accumulates per layer."""

    def __init__(self, now: Callable[[], float]):
        self.now = now
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.stack: List[List[float]] = []
        self._undo: List[Tuple[object, str, object]] = []
        # id(wrapper) -> (wrapper, original) for module-level functions
        self._module_fns: Dict[int, Tuple[object, object]] = {}

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()

    # -- accounting ---------------------------------------------------------

    def _leave(self, layer: str, frame: List[float], t0: float) -> None:
        dt = self.now() - t0
        stack = self.stack
        stack.pop()
        self.self_s[layer] += dt - frame[0]
        if stack:
            stack[-1][0] += dt

    def wrap_call(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            frame = [0.0]
            self.stack.append(frame)
            t0 = self.now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(layer, frame, t0)
        return wrapper

    def wrap_generator(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            return self._resumes(layer, fn(*args, **kwargs))
        return wrapper

    def _resumes(self, layer: str, gen):
        """Drive ``gen``, timing each resume as one span."""
        value, exc = None, None
        while True:
            frame = [0.0]
            self.stack.append(frame)
            t0 = self.now()
            try:
                if exc is None:
                    step = gen.send(value)
                else:
                    step = gen.throw(exc)
            except StopIteration as stop:
                self._leave(layer, frame, t0)
                return stop.value
            except BaseException:
                self._leave(layer, frame, t0)
                raise
            self._leave(layer, frame, t0)
            value, exc = None, None
            try:
                value = yield step
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:  # thrown in: pass it down
                exc = e

    # -- install / remove ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        # Import every target module before patching any, so no module
        # binds a wrapper by name while the patching is half done.
        resolved = [(layer, _resolve(spec)) for layer, spec in TARGETS]
        try:
            for layer, target in resolved:
                self._install(layer, *target)
        except BaseException:
            self._remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._remove()

    def _install(self, layer: str, owner, name: str, raw) -> None:
        fn = _function_of(raw)
        if inspect.isgeneratorfunction(fn):
            wrapped = self.wrap_generator(layer, fn)
        else:
            wrapped = self.wrap_call(layer, fn)
        wrapped.__name__ = fn.__name__
        wrapped.__qualname__ = fn.__qualname__
        setattr(wrapped, _MARK, layer)
        if isinstance(raw, classmethod):
            new = classmethod(wrapped)
        elif isinstance(raw, staticmethod):
            new = staticmethod(wrapped)
        else:
            new = wrapped
        if isinstance(owner, type):
            self._set(owner, name, raw, new)
            return
        # A module function: patch every repro module bound to it.
        self._module_fns[id(new)] = (new, raw)
        for mod in _repro_modules():
            if vars(mod).get(name) is raw:
                setattr(mod, name, new)

    def _set(self, owner, name: str, old, new) -> None:
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def _remove(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)
        # Module functions, including copies bound by modules imported
        # while tracing was on.
        fns = self._module_fns
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                entry = fns.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, name, entry[1])
        fns.clear()

    # -- report -------------------------------------------------------------

    def per_op(self, ops: int, calib_ms: float) -> Dict[str, float]:
        """Per-op calls and calibrated self-time ms for every layer metric."""
        factor = REFERENCE_MS / calib_ms
        out = {}
        for metric, (layer, kind) in METRICS.items():
            if kind == "calls":
                out[metric] = self.calls.get(layer, 0) / ops
            else:
                out[metric] = (self.self_s.get(layer, 0.0) * 1000.0
                               * factor / ops)
        return out
