"""CPU time of a call at the nominal speed of the host.

On a shared virtual machine the same single-threaded code runs at speeds up
to 1.7x apart: other guests load the host, and the load changes every few
seconds and from minute to minute.  Process CPU time counts the slowdown, so
the same call took 4.0 s in one run and 5.7 s in the next.

:class:`SpeedSampler` measures the slowdown while the program runs: a
wall-clock timer interrupts the process every ``INTERVAL_S`` and times a
fixed pure-Python reference loop.  A call's CPU time, less the reference
loops that ran inside it, is then scaled by ``REF_NOMINAL_S`` divided by the
reference times sampled during the call, or, for a call shorter than the
interval, by the samples just before and just after it.  The result is the
CPU time the call needs when the reference loop runs at its nominal speed,
``REF_NOMINAL_S``: its time on an unloaded core of the 2-vCPU x86 machine of
the baseline.  On that machine this cut the spread of one call between runs
from about 10% to about 2%.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
REF_LOOPS = 3000
# Reference-loop time on an unloaded core of the baseline machine (the
# fastest of its two speeds); a unit, not a measurement of the run.
REF_NOMINAL_S = 0.00027


def reference_s() -> float:
    """Process CPU seconds of one run of the reference loop."""
    start = time.process_time()
    s = 0.0
    for i in range(REF_LOOPS):
        s += (i * 1.0001) ** 0.5
    return time.process_time() - start


class SpeedSampler:
    """Samples the reference-loop time while active; use as a context manager.

    The timer is ``ITIMER_REAL``: a CPU-time itimer would make the kernel
    update process CPU time only once per tick, too coarse for the calls.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (process CPU time at end, reference s)
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:  # also the SIGALRM handler
        ref = reference_s()
        self.samples.append((time.process_time(), ref))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def nominal_cpu(self, start: float, end: float) -> float:
        """CPU seconds between process times ``start`` and ``end`` at nominal speed.

        Call it right after the call ends.  A call shorter than the interval
        may hold no sample; then the last sample before it and one taken now
        stand for the speed it ran at.
        """
        inside = [ref for t, ref in self.samples if start < t <= end]
        refs = inside
        if not inside:
            before = next(ref for t, ref in reversed(self.samples) if t <= start)
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            try:
                self._sample()
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
            refs = [before, self.samples[-1][1]]
        cpu = end - start - sum(inside)
        return cpu * statistics.fmean(REF_NOMINAL_S / ref for ref in refs)
