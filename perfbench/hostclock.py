"""Host-speed calibration interleaved with the timed work.

The benchmark's host is shared: it drifts between speed phases that
last from about a second to minutes, and in a slow phase every simulated
step takes up to twice as long with no code change.  A whole run can sit
in one phase, so neither longer runs nor best-of-N repeats make wall
time steady.

:class:`HostClock` times a fixed reference kernel five times a second,
between steps, and divides every timed interval by the host factor
measured around it.  One calibration is short and can itself land on a
hiccup, so the factor for an interval is the median of the calibrations
within ``SMOOTH_RADIUS`` of it (about half a second either side: with
one calibration a second and a window of seconds, steps in a short slow
phase were divided by a fast-phase factor and landed in the tail).
The result is *reference-host seconds*: wall seconds on a host running
the kernel at its ``NOMINAL_MS`` speed.  The kernel is the simulator's
own mix of work — pure-Python arithmetic, dict/set churn and small
numpy operations — and lives here, outside ``src/``, so a change to
the simulator never changes the yardstick.  Raw wall times are kept
beside the normalised ones.
"""

from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter
from typing import Callable, List, Tuple

import numpy as np

__all__ = [
    "CALIBRATE_EVERY_S",
    "NOMINAL_MS",
    "SMOOTH_RADIUS",
    "HostClock",
    "host_factor",
    "ref_loop_ms",
]

#: wall seconds between calibrations (each takes about 20 ms).
CALIBRATE_EVERY_S = 0.2

#: calibrations on each side of an interval that its factor is the
#: median of (the two that bracket it count as the first on each side).
SMOOTH_RADIUS = 2

_KEYS = list(range(5_000))
_SMALL = np.arange(250, dtype=np.float64)


def _arithmetic() -> int:
    total = 0
    for value in range(100_000):
        total += value * value
    return total


def _dict_set_churn() -> int:
    found = 0
    for __ in range(4):
        table = {}
        for key in _KEYS:
            table[key] = {key, key + 1}
        found += sum(len(table[key]) for key in _KEYS if key + 1 in table[key])
    return found


def _small_numpy() -> int:
    found = 0
    for __ in range(1500):
        doubled = _SMALL * 2.0
        found += np.flatnonzero(doubled > 100.0).size
    return found


#: kernel -> its time in ms on the reference host (a 2-core box in its
#: fast phase).
NOMINAL_MS: Tuple[Tuple[Callable[[], int], float], ...] = (
    (_arithmetic, 7.0),
    (_dict_set_churn, 6.5),
    (_small_numpy, 6.0),
)


def host_factor() -> float:
    """How much slower than the reference host this host runs right now.

    The geometric mean, over the kernels, of measured / nominal time.
    The cyclic collector is paused so a collection cannot land inside
    the measurement.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        logs = []
        for kernel, nominal_ms in NOMINAL_MS:
            started = perf_counter()
            kernel()
            logs.append(math.log((perf_counter() - started) * 1000.0 / nominal_ms))
    finally:
        if enabled:
            gc.enable()
    return math.exp(sum(logs) / len(logs))


def ref_loop_ms(repeats: int = 7) -> float:
    """Median time of the pure-Python arithmetic kernel, in ms.

    Timed before and after a benchmark run as the ``host.ref_loop_ms``
    diagnostic, so a run that landed in a fast or slow phase shows.
    """
    times = []
    for __ in range(repeats):
        started = perf_counter()
        _arithmetic()
        times.append(perf_counter() - started)
    times.sort()
    return times[len(times) // 2] * 1000.0


class HostClock:
    """Collects timed intervals and normalises them by host speed.

    :meth:`add` records one interval's wall seconds into a raw list and
    reserves its slot in a normalised list; :meth:`finish` takes a last
    calibration and fills every slot.
    """

    def __init__(self, every_s: float = CALIBRATE_EVERY_S) -> None:
        self.every_s = every_s
        #: every calibration's host factor, in order.
        self.factors: List[float] = [host_factor()]
        self._last_at = perf_counter()
        #: (normalised list, slot, wall seconds, exponent, segment) per
        #: interval; segment ``j`` lies between calibrations ``j`` and ``j + 1``.
        self._open: List[Tuple[List[float], int, float, float, int]] = []

    def add(
        self, raw: List[float], normalised: List[float], seconds: float, exponent: float = 1.0
    ) -> None:
        """Record ``seconds`` of wall time; calibrate if one is due.

        The interval is divided by the host factor raised to ``exponent``:
        1 for work that slows exactly like the reference kernel, less for
        work that slows less (see ``Shape.step_exponent``).
        """
        raw.append(seconds)
        normalised.append(math.nan)
        self._open.append(
            (normalised, len(normalised) - 1, seconds, exponent, len(self.factors) - 1)
        )
        if perf_counter() - self._last_at >= self.every_s:
            self.calibrate()

    def calibrate(self) -> None:
        """Measure the host now, closing the current segment."""
        self.factors.append(host_factor())
        self._last_at = perf_counter()

    def segment_factor(self, segment: int) -> float:
        """The smoothed host factor of one segment."""
        low = max(0, segment + 1 - SMOOTH_RADIUS)
        return statistics.median(self.factors[low : segment + 1 + SMOOTH_RADIUS])

    def finish(self) -> None:
        """Calibrate once more and fill every reserved slot."""
        if not self._open:
            return
        self.calibrate()
        factors = [self.segment_factor(j) for j in range(len(self.factors) - 1)]
        for normalised, slot, seconds, exponent, segment in self._open:
            normalised[slot] = seconds / factors[segment] ** exponent
        self._open = []
