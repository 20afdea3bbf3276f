"""Host-speed calibration: scales measured times to a reference speed.

The speed of a shared host drifts: on a 2-vCPU virtual machine the same
0.15 s loop of ledger replays took from 0.11 s to 0.19 s, in phases that
last from seconds to minutes, so 30-second runs of one seed spread by
20-30 % between quartiles.  A fixed pure-Python kernel slows down with the
host.  While a ``HostSpeed`` is active, an interval timer runs the kernel
every ``SAMPLE_EVERY_S`` seconds, also in the middle of a command.  A
command's time is its wall time minus the kernel runs inside it, and its
scaled time multiplies that by the kernel's reference time over the
kernel's median time around the command.  Over 10-second windows this took
the quartile spread of replay and JSON-load times from 21-24 % to 2-4 %.

The kernel uses no ledgerlab code, and it runs with the garbage collector
off, so the heap a command leaves behind does not add collections to it.
It still shares the process's allocator and caches with ledgerlab;
``perfbench/README.md`` records a check that known added costs survive
the scaling.
"""
from __future__ import annotations

import bisect
import gc
import hashlib
import json
import signal
import statistics
import time

#: median kernel time on the reference host (the 2-vCPU machine above)
REFERENCE_KERNEL_S = 0.0032
#: interval of the kernel timer
SAMPLE_EVERY_S = 0.1
#: kernel samples within this distance of a command calibrate it
WINDOW_S = 0.2


def kernel() -> int:
    """Fixed interpreter work: dict updates, sorting, small hashes, JSON."""
    counts = {}
    acc = 0
    for i in range(6000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i
        acc += len(str(i))
    items = sorted(counts.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    for k, v in items[:400]:
        acc ^= hashlib.sha256(b"%d:%d" % (k, v)).digest()[0]
    json.loads(json.dumps([list(kv) for kv in items]))
    return acc


class HostSpeed:
    """Timed kernel samples over a run; use as a context manager to sample."""

    def __init__(self):
        self.times = []
        self.durations = []
        self._previous = None
        self._sampling = False

    def sample(self, *_signal_args):
        if self._sampling:  # a timer signal that arrived during a sample
            return
        self._sampling = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            duration = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
            self._sampling = False
        self.times.append(start)
        self.durations.append(duration)

    def __enter__(self):
        kernel()  # the first run is slower (cold caches) and is not a sample
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measured(self, start: float, end: float):
        """(seconds, reference seconds) of the span [start, end].

        The kernel runs inside the span are not counted.  The scale comes
        from the samples within WINDOW_S of the span, or else from the
        nearest sample on each side.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        seconds = end - start - sum(self.durations[lo:hi])
        near = self.durations[bisect.bisect_left(self.times, start - WINDOW_S):
                              bisect.bisect_right(self.times, end + WINDOW_S)]
        if not near:
            near = self.durations[max(0, lo - 1):lo + 1]
        return seconds, seconds * REFERENCE_KERNEL_S / statistics.median(near)
