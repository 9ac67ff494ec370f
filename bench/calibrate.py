"""Reference kernels that measure how fast the machine runs right now.

On a shared host the CPU throughput of one process changes by up to a third
for identical work, in phases that last from seconds to minutes, and every
kind of work slows together.  The benchmark runs these fixed kernels between
passes (and after each set-up sample) and scales each wall time by
``REF_S / (time the kernels took)``, averaged over the kernels run just
before and just after the timed work.  A timing then reads as seconds on a
machine where the kernels take ``REF_S``: the machine's speed drops out,
while a change to qfilter moves the timed work and not the kernels.

The kernels mix the kinds of work the workloads do: a pure-Python loop,
batched 2x2 and 8x8 complex matmuls, and numpy calls on a single 2x2 array.
They are benchmark code; nothing in qfilter is called.  Changing them or
``REF_S`` changes every end-to-end timing, so do that only together with a
new baseline.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernels took 0.12-0.17 s on a 2-vCPU Xeon VM, so the scaled timings
# there stay within a factor of 0.75 to 1 of the wall times.
REF_S = 0.125

_rng = np.random.default_rng(0)
_batch2 = _rng.standard_normal((1000, 2, 2)) + 1j * _rng.standard_normal((1000, 2, 2))
_batch8 = _rng.standard_normal((100, 8, 8)) + 1j * _rng.standard_normal((100, 8, 8))
_single2 = _rng.standard_normal((2, 2)) + 0j


def _python_loop():
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


def _batched_d2():
    for _ in range(200):
        out = _batch2 @ _batch2
        out = out + _batch2.conj()
    return out


def _batched_d8():
    for _ in range(150):
        out = _batch8 @ _batch8
        out = out + _batch8.conj().transpose(0, 2, 1)
    return out


def _single_d2():
    for _ in range(4000):
        out = _single2 @ _single2
        out = out + out.conj().T
        np.trace(out)
    return out


KERNELS = (_python_loop, _batched_d2, _batched_d8, _single_d2)


def measure() -> float:
    """Wall time, in seconds, of one run of all the kernels."""
    start = perf_counter()
    for kernel in KERNELS:
        kernel()
    return perf_counter() - start
