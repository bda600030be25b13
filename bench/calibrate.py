"""The machine's speed, read off a fixed piece of work that is not magnonbs.

The shared machine this benchmark was built on runs the same code up to
twice as fast at one time as at another, over seconds and over minutes,
and CPU time slows with wall time (README, "Machine speed").  No pass
length averages that out.  So every timed figure is scaled by

    REFERENCE_S / (mean time of `kernel`, run between and inside the passes)

which gives it in reference seconds: the time it would take on a machine
on which `kernel` takes REFERENCE_S.  A change to magnonbs moves the timed
passes and leaves the kernel alone, so it moves the scaled figure by the
same share.

The kernel has three parts of about equal time, each like a part of the
workloads: dict, string and float work in plain Python (the interpreter
overhead of the oracle's loops and the CLI), element-wise arithmetic on a
240-cell complex array, and 4 x 4 matrix exponentials (the solver's
steps).  Its inputs are fixed.  Against oracle passes in 24 fresh
interpreters, this mix followed the passes best of those tried: the ratio
of pass to kernel time varied by 2.5% (coefficient of variation) where
the raw pass time varied by 9.4%.  Ryser permanents and a large sort
followed worse (4.8% and 5.8%).
"""

from __future__ import annotations

import math
import resource
import time

import numpy as np
from scipy.linalg import expm

# About the kernel's mean wall and CPU time on the reference machine (a
# shared 2-core x86-64 sandbox, Python 3.11.7, numpy 2.4.6, scipy 1.17.1,
# one BLAS thread).  A constant: it fixes the unit, it is not re-measured.
REFERENCE_S = 0.04

_RNG = np.random.default_rng(20000)
_GENERATORS = [_RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4))
               for _ in range(60)]
_WAVE = np.exp(1j * np.linspace(0.0, 6.0, 240))


def cpu_s() -> float:
    """User plus system CPU seconds of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def kernel() -> tuple[float, float]:
    """Run the fixed work once; return its wall and CPU seconds."""
    cpu0 = cpu_s()
    wall0 = time.perf_counter()
    counts: dict[int, float] = {}
    for i in range(40_000):
        key = (i * 7919) % 1000
        counts[key] = counts.get(key, 0.0) + math.sin(i)
    sorted(str(k) for k in counts)
    x = _WAVE.copy()
    for _ in range(1200):
        x = x * _WAVE + 0.5 * np.conj(x)
        x = x / np.abs(x).max()
    for _ in range(8):
        for g in _GENERATORS:
            expm(0.1 * g)
    return time.perf_counter() - wall0, cpu_s() - cpu0


class Meter:
    """Pass times, and the machine's speed read around and inside them.

    A reading runs `kernels` kernels.  One is taken when the meter is made,
    one after every pass, and one at every `cut`, which the gate makes
    after each of its solver runs; outside a pass `cut` does nothing.  The
    kernels run inside a pass are not counted in its time.
    """

    def __init__(self, kernels: int) -> None:
        self.kernels = kernels
        self.samples: list[tuple[float, float]] = []  # (wall, CPU) per kernel
        self._running = False
        self.read()

    def read(self) -> None:
        self.samples += [kernel() for _ in range(self.kernels)]

    def start(self) -> None:
        self._running = True
        self._skipped = [0.0, 0.0]
        self._wall0, self._cpu0 = time.perf_counter(), cpu_s()

    def cut(self) -> None:
        if not self._running:
            return
        wall0, cpu0 = time.perf_counter(), cpu_s()
        self.read()
        self._skipped[0] += time.perf_counter() - wall0
        self._skipped[1] += cpu_s() - cpu0

    def stop(self) -> tuple[float, float]:
        """End the pass; return its wall and CPU seconds."""
        wall = time.perf_counter() - self._wall0 - self._skipped[0]
        cpu = cpu_s() - self._cpu0 - self._skipped[1]
        self._running = False
        self.read()
        return wall, cpu

    def scale(self) -> tuple[float, float]:
        """Factors from raw wall and CPU seconds to reference seconds.

        REFERENCE_S over the mean kernel time of all the worker's readings.
        One kernel's time varies by some 20% from one run to the next, as
        the machine's speed does from one pass to the next.  Over a
        worker's life the passes and the interleaved kernels sample the
        same swings, so the ratio of their means is steady where the ratio
        of one pass to the kernels next to it is not.
        """
        walls, cpus = zip(*self.samples)
        return REFERENCE_S / float(np.mean(walls)), REFERENCE_S / float(np.mean(cpus))
