"""Host-speed correction: report times in reference-machine seconds.

The boxes this benchmark runs on are shared: for tens of seconds at a
time the same pure-Python work takes 1.4-1.8x as long (another tenant on
the sibling hyperthread), and process CPU time inflates with it.  Raw
wall times of two back-to-back runs of one commit then differ by more
than any useful regression bound.

:class:`HostClock` measures the machine instead of trusting it.  A
``SIGALRM`` interval timer interrupts the main thread every
:data:`SAMPLE_INTERVAL_S` and runs one fixed :func:`calibration_unit`
in line — same thread, same core, inside whatever phase is executing
(a stepping loop, a long ``finish()``, an asyncio loop).  Afterwards
:meth:`HostClock.seconds` converts any host interval to *corrected
seconds*: the time between two samples is divided by how slow the unit
ran around it (relative to :data:`REFERENCE_UNIT_S`), and the samples'
own durations are left out.  On a quiet box whose unit takes exactly
``REFERENCE_UNIT_S`` the correction is the identity.

The workload pays the samples (~6 % of host time) whether tracing is on
or off, so traced and untraced passes stay comparable; every report
also carries the uncorrected wall time and the mean speed factor.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_right

#: Host seconds between calibration samples.
SAMPLE_INTERVAL_S = 0.05

#: What one :func:`calibration_unit` takes on the quiet box the
#: workloads were sized on.  Only fixes the scale of corrected seconds.
REFERENCE_UNIT_S = 0.0030

_UNIT_ITERATIONS = 17_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, x: int) -> int:
        self.value = value = (self.value + x) & 0xFFFF
        return value


_CELL = _Cell()
_TABLE = dict.fromkeys(range(1024), 0)


def calibration_unit() -> int:
    """A fixed slice of interpreter work: loop, integer arithmetic, dict
    loads and stores, attribute access, a method call per iteration.

    It allocates nothing the garbage collector tracks and touches only
    its own few kilobytes, so its time tells how fast the *machine* is
    running bytecode right now — not how large the program's heap has
    grown or whose collection happened to be due.
    """
    cell, table, acc = _CELL, _TABLE, 0
    for i in range(_UNIT_ITERATIONS):
        key = i & 1023
        acc += table[key]
        table[key] = cell.bump(key)
    return acc


class HostClock:
    """Samples host speed on a timer; converts intervals afterwards.

    All timestamps are ``time.perf_counter()`` values.
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._units: list[float] = []
        self._smoothed: list[float] = []
        #: Host seconds spent inside samples so far.
        self._paused = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        calibration_unit()
        t1 = time.perf_counter()
        self._starts.append(t0)
        self._ends.append(t1)
        self._units.append(t1 - t0)
        self._paused += t1 - t0

    def work_now(self) -> float:
        """A clock that stands still during samples: the difference of
        two readings is host seconds of work, whatever fired between
        them.  (A sample runs between two bytecodes of the main thread;
        re-reading until the sample count holds still keeps the two
        terms of the subtraction from straddling one.)"""
        while True:
            count = len(self._units)
            now = time.perf_counter() - self._paused
            if len(self._units) == count:
                return now

    def start(self) -> None:
        """Take a first sample and arm the interval timer (main thread)."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        """Disarm the timer and take a closing sample."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    @property
    def samples(self) -> int:
        return len(self._units)

    def _gap_unit(self, gap: int) -> float:
        """Unit time governing gap ``gap`` — the stretch of work between
        sample ``gap - 1`` and sample ``gap`` (the mean of the two; the
        nearer one at either end).  Each sample counts as the median of
        itself and its two neighbours: a slow spell outlasts several
        samples, a sample that was merely preempted does not."""
        units = self._smoothed
        if len(units) != len(self._units):
            raw = self._units
            units = self._smoothed = [
                sorted(raw[max(i - 1, 0):i + 2])[1] if 0 < i < len(raw) - 1
                else raw[i] for i in range(len(raw))]
        if gap <= 0:
            return units[0]
        if gap >= len(units):
            return units[-1]
        return (units[gap - 1] + units[gap]) / 2.0

    def seconds(self, t0: float, t1: float) -> float:
        """Corrected seconds of work done in the host interval [t0, t1]."""
        if not self._units:
            raise RuntimeError("HostClock has no samples; call start() first")
        starts, ends = self._starts, self._ends
        total = 0.0
        gap = bisect_right(starts, t0)  # samples that began by t0
        if gap and t0 < ends[gap - 1]:
            t0 = ends[gap - 1]  # t0 fell inside a sample
        while t0 < t1:
            upper = starts[gap] if gap < len(starts) else t1
            stretch = min(upper, t1) - t0
            if stretch > 0.0:
                total += stretch * REFERENCE_UNIT_S / self._gap_unit(gap)
            if gap >= len(starts):
                break
            t0 = ends[gap]
            gap += 1
        return total

    def speed_factor(self, t0: float, t1: float) -> float:
        """Host seconds of work per corrected second over [t0, t1]
        (1.0 = the reference machine, 1.5 = half as slow again)."""
        corrected = self.seconds(t0, t1)
        if corrected <= 0.0:
            return 1.0
        worked = (t1 - t0) - sum(
            min(e, t1) - max(s, t0)
            for s, e in zip(self._starts, self._ends)
            if s < t1 and e > t0
        )
        return worked / corrected
