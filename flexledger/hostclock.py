"""Host-speed calibration taken while the benchmark runs.

The hosts this benchmark runs on are shared: a fixed pure-Python loop
has been seen to take anywhere between 1x and 3x its fastest time
within one minute, and per-sample ``pps`` moves with it. Timings from
different runs are therefore compared in *reference-host seconds*.

While a :class:`HostClock` is entered, ``SIGALRM`` fires every
``PERIOD_S`` of wall time and its handler runs a short fixed loop in
the benchmark's own process, on the core the workload is using, timing
it in process CPU seconds (preemption by the benchmark's own shard
workers does not count). A measured interval is then scaled by
``REFERENCE_BURST_S`` ÷ the mean burst time around it, after the
bursts' own wall time inside the interval is taken out: on a host where
the burst takes ``REFERENCE_BURST_S`` the normalised time equals the
wall time.

The handler touches no program state, and forked shard workers do not
inherit the interval timer.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.01
BURST_LOOPS = 400
#: process CPU seconds of one burst on the reference host.
REFERENCE_BURST_S = 200e-6
#: a window shorter than this is widened around its centre, so even a
#: 5 ms update is normalised by ~20 bursts.
MIN_WINDOW_S = 0.2


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _step(cell: _Cell, table: dict) -> int:
    return table.get(cell.key, 0) + cell.value


def _burst() -> int:
    """Object allocation, attribute reads, calls and dict traffic: the
    mix the simulator's interpreted packet path is made of, so the burst
    slows down with the workload when the host does. It runs none of
    the program's code, so a faster program does not move it."""
    table: dict[int, int] = {}
    total = 0
    for value in range(BURST_LOOPS):
        cell = _Cell(value & 63, value)
        table[cell.key] = _step(cell, table)
        total += len((cell.key, cell.value, value))
    return total


def calibrate(repeats: int = 50) -> float:
    """Median process CPU seconds of one burst, measured now."""
    times = []
    for _ in range(repeats):
        start = time.process_time()
        _burst()
        times.append(time.process_time() - start)
    return sorted(times)[repeats // 2]


class HostClock:
    """Records bursts while entered; normalises intervals afterwards."""

    def __init__(self) -> None:
        #: wall start and end of each burst (``perf_counter``), and its
        #: process CPU seconds.
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._bursts: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        wall = time.perf_counter()
        start = time.process_time()
        _burst()
        self._bursts.append(time.process_time() - start)
        self._starts.append(wall)
        self._ends.append(time.perf_counter())

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def burst_s(self, start: float, end: float) -> float:
        """Mean burst time in ``[start, end]`` (``perf_counter`` times),
        widened to at least ``MIN_WINDOW_S``."""
        pad = max(0.0, (MIN_WINDOW_S - (end - start)) / 2)
        low = bisect.bisect_left(self._ends, start - pad)
        high = bisect.bisect_right(self._ends, end + pad)
        window = self._bursts[low:high]
        if not window:
            raise RuntimeError("no calibration burst around the measured interval")
        return sum(window) / len(window)

    def own_s(self, start: float, end: float) -> float:
        """Wall seconds the bursts themselves took inside ``[start, end]``."""
        low = bisect.bisect_left(self._ends, start)
        high = bisect.bisect_right(self._starts, end)
        return sum(
            min(self._ends[i], end) - max(self._starts[i], start) for i in range(low, high)
        )

    def normalise(self, window: tuple[float, float]) -> float:
        """Seconds of ``window``, less the bursts inside it, on the
        reference host."""
        start, end = window
        busy = end - start - self.own_s(start, end)
        return busy * REFERENCE_BURST_S / self.burst_s(start, end)
