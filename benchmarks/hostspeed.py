"""Host-speed normalisation for timings taken on a shared machine.

On a shared host the same work runs up to ~50% slower for seconds at a
time, and the CPU clock slows with the wall clock, so neither clock
alone gives a steady number. A fixed reference kernel, made of the same
two kinds of work as a trafficlab step (interpreter bytecode and small
numpy calls), is timed right before and right after every chunk of
measured work. A chunk's normalised time is its wall time scaled by
``NOMINAL_REF_S`` over the reference time around it: what the chunk
would have taken with the host at its nominal speed. The benchmark code,
not the program under test, owns the kernel, so a change to ``src/``
cannot move it.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# Reference-kernel time on the host the baseline was recorded on (2-core
# Intel Xeon, Python 3.11.7, numpy 2.4.6) in its fast state. Only a scale:
# it makes normalised values read as wall-clock values on that host.
NOMINAL_REF_S = 1.0e-3

_REF_W = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)


def reference_kernel() -> float:
    x = np.ones(64)
    total = 0.0
    for i in range(1500):
        total += (i * 1.5) % 7.0
        if i % 10 == 0:
            x = np.tanh(_REF_W @ x * 0.01)
    return total + float(x[0])


REF_REPEATS = 5


def reference_seconds() -> float:
    """Median time of ``REF_REPEATS`` reference-kernel runs."""
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return median(times)


class HostClock:
    """Times chunks of work between reference-kernel runs."""

    def __init__(self) -> None:
        self._ref_before = reference_seconds()

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result, wall seconds and
        normalised seconds."""
        start = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - start
        ref_after = reference_seconds()
        ref = 0.5 * (self._ref_before + ref_after)
        self._ref_before = ref_after
        return out, wall, wall * NOMINAL_REF_S / ref

