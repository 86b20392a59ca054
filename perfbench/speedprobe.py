"""CPU-speed probe for one benchmark sample.

On a shared host the speed of a virtual CPU drifts: the same work can take
1.6-1.8x longer for seconds to minutes at a time (a busy hyperthread sibling on
the host, for instance), and the two virtual CPUs of a 2-core VM drift
independently.  Wall times of whole runs then spread more between invocations
than any useful regression bound.

The probe measures that drift where and when the sample runs: a SIGALRM
timer fires every ``INTERVAL_S`` seconds of wall time and the handler, on the
sample's own thread, times one call of a fixed reference kernel (small numpy
operations and interpreter work, the mix the library's training loop is made
of).  A sample's timing is then rescaled to the reference speed:

    scaled = (wall - time spent in the probe) * REFERENCE_S / probe time

where the probe time is the mean over the window without its slowest
``TRIM`` share.  A mean, not a median, because a wall time integrates the
slowness over the window and the probes sample the window evenly in time; the
slowest tenth is dropped because a probe hit by an interrupt or a page fault
reads far slower than the machine runs (with the plain mean, scaled run times
spread more than the wall times did).  The kernel's code and inputs are
fixed, so a change to the library moves the scaled time and not the probe.
Garbage collection is held off while the kernel runs, so the probe does not
pay for collecting the library's objects.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
# Typical probe time during a run on the reference machine (2-core VM, Python
# 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31), where it ranged 0.31-0.67 ms.  Any
# constant keeps comparisons valid; this one keeps scaled run times close to
# that machine's typical wall times.
REFERENCE_S = 4.5e-4
WARMUP_CALLS = 5
TRIM = 0.1  # share of the slowest probes left out of a window's probe time

_rng = np.random.default_rng(0)
_EMBED = _rng.standard_normal((73, 32))
_W = _rng.standard_normal((64, 8 * 32)) / 16.0
_IDS = (3, 14, 15, 9, 26, 5, 35, 8)


def reference_kernel() -> float:
    """A fixed mix of small numpy operations and interpreter work."""
    acc = 0.0
    for k in range(24):
        x = np.concatenate([_EMBED[t] for t in _IDS])
        acc += float(np.tanh(_W @ x).sum())
        table = {i: i * k for i in range(30)}
        acc += sum(table.values())
    return acc


class SpeedProbe:
    """Time the reference kernel every ``interval`` seconds until exit."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.durations: list[float] = []
        self._taken = 0
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        for _ in range(WARMUP_CALLS):
            reference_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            reference_kernel()
            self.durations.append(perf_counter() - started)
        finally:
            if collecting:
                gc.enable()

    def take(self) -> dict:
        """Probe count, total time and probe time since the previous ``take``."""
        window = sorted(self.durations[self._taken:])
        self._taken = len(self.durations)
        kept = window[: len(window) - int(TRIM * len(window))]
        return {"n": len(window), "total_s": sum(window),
                "probe_s": sum(kept) / len(kept) if kept else None}


def scaled(wall_s: float, window: dict) -> float:
    """``wall_s`` without the probe's own time, rescaled to the reference speed."""
    if not window["n"]:
        raise ValueError("no probe fell inside the window; it is shorter than the interval")
    return (wall_s - window["total_s"]) * REFERENCE_S / window["probe_s"]
