"""Calibration loop: a fixed pure-Python workload that stands in for the
interpreter work the simulator does.

Host speed on a shared machine drifts, so raw wall time is not
comparable from run to run.  Every host-time metric is scaled by
``REFERENCE_MS / median(adjacent calibration runs)``: when the host is
slow, both the ops and the loop next to them are slow, and the ratio
cancels.

The loop has two parts.  A miniature discrete-event kernel exercises what
the simulator's time goes on: a ``heapq`` event queue of slotted event
objects, generator processes resumed once per event, ``struct`` header
packing and unpacking, bytes slicing and dict updates.  A walk over a
persistent set of slotted cells, several megabytes like the simulator's
own state, adds the cache misses the simulator pays and a small hot loop
does not: on a host whose speed switches between phases, a hot loop
alone slowed 1.9x in the slow phase where the simulator's ops slowed
1.15x to 1.65x, so it over-corrected them.  It must not import ``repro``.

``CHECKSUM`` pins the loop's result: shortening or changing the loop
changes the checksum, and ``calibration_run`` refuses to report a time
for a loop that no longer matches.  Changing the loop means recording a
new ``REFERENCE_MS`` and ``CHECKSUM``, which rebases every host-time
metric, so it is a benchmark change of its own.
"""

from __future__ import annotations

import heapq
import struct
import time

#: Events dispatched per calibration run.
EVENTS = 300
#: Processes exchanging events, and cells in the shared table.
PROCS = 8
CELLS = 20011
#: Cells in the persistent working set, and cell visits per run.
STATE_CELLS = 60000
WALK_STEPS = 14000

#: Raw milliseconds of one calibration run on the reference host
#: (an Intel Xeon, 2 CPUs, CPython 3.11.7), median of 200 runs.
REFERENCE_MS = 5.7

#: Result of one calibration run; any change to the loop changes it.
CHECKSUM = 3456955420

_HDR = struct.Struct("!HHIIBBHHH")


class _Event:
    __slots__ = ("time", "seq", "proc", "data")

    def __init__(self, time: float, seq: int, proc: int, data: bytes):
        self.time = time
        self.seq = seq
        self.proc = proc
        self.data = data


class _Cell:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value
        self.hits = 0


def _process(pid: int, table: dict):
    """Receives the previous header, updates a cell, emits the next one."""
    k = 0
    while True:
        key = (pid * 7919 + k * 104729) % CELLS
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, k)
        cell.hits += 1
        cell.value = (cell.value * 31 + k) & 0xFFFF
        data = _HDR.pack(pid, k & 0xFFFF, key, cell.value, 6, 0x10,
                         cell.hits & 0xFFFF, 0, 0) + b"payload-" * 4
        prev = yield 1.5 + (k % 7) * 0.25, data
        k += 1 + _HDR.unpack_from(prev)[1] % 3


_state: list = []


def _walk(acc: int) -> int:
    """Visit pseudo-random cells of the persistent working set."""
    state = _state
    j = acc | 1
    for _ in range(WALK_STEPS):
        j = (j * 1103515245 + 12345) & 0x7FFFFFFF
        cell = state[j % STATE_CELLS]
        cell.hits += 1
        acc = (acc + cell.value) & 0xFFFFFFFF
    return acc


def _loop() -> int:
    table: dict = {}
    heap: list = []
    procs = [_process(pid, table) for pid in range(PROCS)]
    seq = 0
    for pid, proc in enumerate(procs):
        delay, data = next(proc)
        seq += 1
        heapq.heappush(heap, (delay, seq, _Event(delay, seq, pid, data)))
    acc = 0
    for _ in range(EVENTS):
        _t, _s, ev = heapq.heappop(heap)
        fields = _HDR.unpack_from(ev.data)
        acc = (acc * 33 + fields[1] + fields[3]) & 0xFFFFFFFF
        delay, data = procs[ev.proc].send(ev.data[:20])
        seq += 1
        nxt = _Event(ev.time + delay, seq, ev.proc, data)
        heapq.heappush(heap, (nxt.time, seq, nxt))
    return _walk(acc) ^ (len(table) << 16) ^ len(heap)


def calibration_run() -> float:
    """Run the loop once; return its raw wall time in milliseconds."""
    if not _state:   # built once, untimed
        _state.extend(_Cell(i, i & 0xFFFF) for i in range(STATE_CELLS))
    t0 = time.perf_counter()
    result = _loop()
    elapsed = (time.perf_counter() - t0) * 1000.0
    if result != CHECKSUM:
        raise RuntimeError(f"calibration loop checksum {result} != "
                           f"{CHECKSUM}: the loop was changed")
    return elapsed
