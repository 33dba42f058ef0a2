"""The machine's current speed, from a fixed reference kernel.

On a shared virtual machine the same cold N=5 walk took anywhere from 28 to
49 s, and the speed drifts on a scale of seconds to minutes.  Job times are
therefore reported at a reference speed: while a job runs, a small fixed
pure-Python kernel (integer tuple arithmetic, like the program's) is timed
every SAMPLE_INTERVAL_S seconds, and the job's time is scaled by the mean of
NOMINAL_S / (kernel time).  The kernel shares no code with nhdm, so a change
to the program moves the scaled time exactly as it moves the raw time.

Over a job, the work done at slowdown f(t) is the integral of 1 / f(t); with
samples evenly spaced in time, time-at-reference-speed = raw time x
mean(NOMINAL_S / sample).
"""

from __future__ import annotations

import signal
import time
from math import gcd

KERNEL_REPS = 400
NOMINAL_S = 0.004       # kernel time at the reference speed
SAMPLE_INTERVAL_S = 0.25


def kernel(reps: int = KERNEL_REPS) -> int:
    """Fixed work: eliminate small integer vectors against a fixed echelon basis."""
    basis = ((3, 1, 4, 1, 5), (0, 2, 6, 5, 3), (0, 0, 9, 7, 9))
    seen: dict = {}
    total = 0
    for r in range(reps):
        v = tuple((x * (r + 1) + i) % 17 - 8 for i, x in enumerate(basis[r % 3]))
        for row in basis:
            lead = next(j for j, x in enumerate(row) if x)
            q = v[lead] // row[lead]
            v = tuple(a - q * b for a, b in zip(v, row))
        seen[v] = seen.get(v, 0) + 1
        total += gcd(*v)
    return total


def sample() -> float:
    """Seconds the kernel takes now."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def sample_pair() -> tuple[float, float]:
    """Seconds the kernel takes now: (wall, process CPU)."""
    t, c = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - t, time.process_time() - c


def factor(samples: list[float]) -> float:
    """Scale from raw to reference-speed time over the span the samples cover."""
    return sum(NOMINAL_S / s for s in samples) / len(samples)


class Sampler:
    """Times the kernel from SIGALRM every SAMPLE_INTERVAL_S while a job runs.

    One sample is taken on entry and one on exit; ``spent_s`` is the time
    the handler took in between, to be taken off the job's raw time.  In a
    traced job the handler's time lands in whichever span is open, so every
    self time carries the same small share of it (about 2%).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _handler(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(sample())
        self.spent_s += time.perf_counter() - t

    def __enter__(self) -> "Sampler":
        self.samples.append(sample())
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())

    def factor(self) -> float:
        return factor(self.samples)
