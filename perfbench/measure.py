"""Host-time measurement: op clock, interleaved calibration, percentiles.

Nothing here imports ``repro``; the self-tests exercise it directly.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple

from calib import REFERENCE_MS, calibration_run

#: Calibration runs per calibration block.
CALIB_REPS = 3

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.0, 75.0, 50.0)

#: A tail percentile needs at least this many ops beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by nearest rank (1-based rank ceil(p·n))."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> Optional[float]:
    """Highest candidate percentile with at least ``TAIL_MIN_BEYOND`` of
    ``n`` ops strictly above its nearest rank; None if even p50 has fewer."""
    for p in TAIL_PERCENTILES:
        if n - max(1, math.ceil(p / 100.0 * n)) >= TAIL_MIN_BEYOND:
            return p
    return None


def scale_factor(adjacent_calib_ms: Sequence[float]) -> float:
    """Calibrated = raw × REFERENCE_MS / median(adjacent calibration runs)."""
    return REFERENCE_MS / median(adjacent_calib_ms)


class OpClock:
    """Times ops with calibration blocks interleaved between them.

    ``now()`` excludes the time spent in calibration blocks, so an op that
    spans a block (a pipelined send) is not charged for it.  Each op is
    filed under the block interval in which it completed and is scaled by
    the median of the calibration runs in the blocks on either side.
    """

    def __init__(self, calib_every: int):
        self.calib_every = calib_every
        self.blocks: List[List[float]] = []   # calibration runs per block
        self.ops: List[Tuple[float, int]] = []  # (raw seconds, interval)
        self.paused = 0.0
        self.measured_s: List[float] = []     # op-clock seconds per interval
        self._interval_start = 0.0
        self.on_start: Optional[Callable[[], None]] = None

    def start(self) -> None:
        """Begin the measured phase (after warm-up) with a calibration block."""
        self.calibrate()
        if self.on_start is not None:
            self.on_start()

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        if self.blocks:
            self.measured_s.append((t0 - self.paused) - self._interval_start)
        self.blocks.append([calibration_run() for _ in range(CALIB_REPS)])
        self.paused += time.perf_counter() - t0
        self._interval_start = self.now()

    def record(self, raw_s: float) -> None:
        """File one op; run a calibration block every ``calib_every`` ops."""
        self.ops.append((raw_s, len(self.blocks) - 1))
        if len(self.ops) % self.calib_every == 0:
            self.calibrate()

    def finish(self) -> None:
        """Close the last interval with a calibration block after it."""
        self.calibrate()

    def interval_factor(self, i: int) -> float:
        return scale_factor(self.blocks[i] + self.blocks[i + 1])

    def calibrated_ms(self) -> List[float]:
        return [raw * 1000.0 * self.interval_factor(i)
                for raw, i in self.ops]

    def calibrated_seconds(self) -> float:
        """Calibrated op-clock time of the whole measured phase."""
        return sum(s * self.interval_factor(i)
                   for i, s in enumerate(self.measured_s))

    def raw_calib_ms(self) -> float:
        return median([c for block in self.blocks for c in block])

