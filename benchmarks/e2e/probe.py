"""Host-speed probe: puts timings of a shared host on one scale.

The benchmark's host is shared with other machines' work, and its
speed swings with their load: on a shared 2-vCPU Intel Xeon VM, one
``water_ckpt400`` repeat took from 2.7 s to 4.6 s, in phases lasting
tens of seconds, so one run's median could sit wholly in a slow or a
fast phase.  The probe measures that swing while a repeat runs.  Every
``PERIOD_S`` of wall time a ``SIGALRM`` handler times one pass of a
fixed pure-Python loop.  The loop is benchmark code, the same on every
commit, so its duration tracks only the host.

An interval's *reference seconds* are its wall seconds (less the time
spent probing) times the mean host speed sampled inside it, where the
speed of one sample is ``REFERENCE_S`` over the loop's duration: the
time the interval would have taken on a host that runs the loop in
``REFERENCE_S``.  The mean is over samples evenly spaced in wall time,
so it weights each phase by how long the interval spent in it.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Wall seconds between samples.
PERIOD_S = 0.05
#: The loop's duration on the reference host (about its duration on
#: that VM when nothing else loads the machine).
REFERENCE_S = 0.001
#: Loop passes per sample; about ``REFERENCE_S`` of work.
ITERATIONS = 5000


def probe_loop(iterations: int = ITERATIONS) -> int:
    """Dictionary updates and integer arithmetic on a small table."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        acc ^= table[key]
    return acc


class SpeedProbe:
    """Samples the loop's duration every ``PERIOD_S`` while started."""

    def __init__(self) -> None:
        #: ``(start, duration)`` of every sample, in ``perf_counter`` time.
        self.samples: list[tuple[float, float]] = []
        self._previous_handler = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_loop()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """Wall seconds of ``[start, end)`` net of probing, and the
        host speed sampled inside it (over all samples when the
        interval is too short to hold one; 1.0 when never started)."""
        inside = [d for s, d in self.samples if start <= s < end]
        wall = end - start - sum(inside)
        durations = inside or [d for _, d in self.samples]
        if not durations:
            return wall, 1.0
        return wall, statistics.fmean(REFERENCE_S / d for d in durations)
