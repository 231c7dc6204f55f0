"""Host-speed reference kernel and the normalisation it drives.

The 2-vCPU hosts this benchmark runs on drift in core speed from one
second to the next, so a raw wall time measures the host as much as the
program.  A fixed, tiny, cache-resident reference kernel (small-array
numpy ops plus a pure-Python loop, about 10 ms) is timed at every work
boundary.  Each work interval between two reference samples is scaled
by ``NOMINAL_REF_S / measured`` (the mean of the samples on both sides),
so a normalised time stays in seconds: the time the work would take on
a host whose reference reads exactly ``NOMINAL_REF_S``.  Reference
windows themselves are excluded from every timed interval.

A reference sample is only valid when nothing else in the process is
working: :func:`reference_sample` refuses to run with live child
processes, and fails when the process burned more CPU time than the
calling thread over the window (a busy background thread would slow
the reference and inflate every normalised number).
"""

from __future__ import annotations

import bisect
import multiprocessing
import statistics
import time

import numpy as np

__all__ = [
    "NOMINAL_REF_S",
    "HostClock",
    "InvalidRun",
    "ReferenceGuardError",
    "reference_sample",
    "wait_quiet",
]

#: Reference time the normalised figures are scaled to (seconds).
NOMINAL_REF_S = 0.010

#: CPU time other threads may use during a reference window before the
#: window is declared contaminated: a fixed allowance for timer
#: granularity plus a share of the window.
GUARD_MARGIN_S = 0.002
GUARD_MARGIN_FRAC = 0.05

_REPS = 5
_NUMPY_STEPS = 130
_PY_STEPS = 13000
_ARRAY = np.linspace(0.0, 1.0, 512)


class InvalidRun(RuntimeError):
    """The measurement is not valid and must not be reported."""


class ReferenceGuardError(InvalidRun):
    """Other program work ran while the host reference was timed."""


def _kernel() -> float:
    x = _ARRAY
    for _ in range(_NUMPY_STEPS):
        x = np.minimum(np.abs(x - 0.5) * 1.9, 1.0)
    h = 0
    for i in range(_PY_STEPS):
        h = (h * 31 + i) & 0xFFFFFF
    return float(x[0]) + h


def reference_sample() -> float:
    """Time the reference kernel once (median of a few short reps).

    Returns seconds for the whole kernel (``_REPS`` repetitions' worth,
    about 10 ms).  Raises :class:`ReferenceGuardError` when a child
    process is alive or another thread used CPU during the window.
    """
    children = multiprocessing.active_children()
    if children:
        raise ReferenceGuardError(
            f"{len(children)} child process(es) alive during a host "
            "reference window"
        )
    cpu0, thread0 = time.process_time(), time.thread_time()
    reps = []
    for _ in range(_REPS):
        t0 = time.perf_counter()
        _kernel()
        reps.append(time.perf_counter() - t0)
    other = (time.process_time() - cpu0) - (time.thread_time() - thread0)
    if other > GUARD_MARGIN_S + GUARD_MARGIN_FRAC * sum(reps):
        raise ReferenceGuardError(
            f"other threads used {other * 1e3:.1f} ms of CPU during a "
            f"{sum(reps) * 1e3:.1f} ms host reference window"
        )
    return statistics.median(reps) * _REPS


def wait_quiet(window: float = 0.05, timeout: float = 5.0) -> None:
    """Block until other threads stop using CPU (e.g. BLAS start-up spin).

    numpy's BLAS pool spins briefly after import; the first reference
    window would otherwise trip the guard for work that is not the
    program's.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        cpu0, thread0 = time.process_time(), time.thread_time()
        time.sleep(window)
        other = (time.process_time() - cpu0) - (time.thread_time() - thread0)
        if other <= GUARD_MARGIN_S:
            return
    raise ReferenceGuardError(
        f"process still busy in other threads after {timeout:.0f} s"
    )


class HostClock:
    """A timeline of reference samples and the work between them.

    Call :meth:`reference` at every work boundary (before the first
    work and after the last).  :meth:`normalised` then converts any
    ``perf_counter`` interval into nominal-host seconds, skipping the
    reference windows inside it; :meth:`raw` gives the same interval
    unscaled.
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self.samples: list[float] = []

    def reference(self) -> float:
        start = time.perf_counter()
        sample = reference_sample()
        self._starts.append(start)
        self._ends.append(time.perf_counter())
        self.samples.append(sample)
        return sample

    def _pieces(self, t0: float, t1: float):
        """``(overlap_seconds, factor)`` for each work interval in range."""
        if len(self.samples) < 2:
            raise ValueError("need a reference sample on both sides")
        first = max(bisect.bisect_right(self._ends, t0) - 1, 0)
        for i in range(first, len(self.samples) - 1):
            lo, hi = self._ends[i], self._starts[i + 1]
            if lo >= t1:
                break
            overlap = min(hi, t1) - max(lo, t0)
            if overlap > 0:
                ref = 0.5 * (self.samples[i] + self.samples[i + 1])
                yield overlap, NOMINAL_REF_S / ref

    def normalised(self, t0: float, t1: float) -> float:
        return sum(dt * f for dt, f in self._pieces(t0, t1))

    def raw(self, t0: float, t1: float) -> float:
        return sum(dt for dt, _ in self._pieces(t0, t1))

    def timeline(self) -> dict:
        """The raw reference samples, for the run record."""
        return {"starts": self._starts, "ends": self._ends,
                "samples": self.samples}

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3
