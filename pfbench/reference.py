"""The reference job that the gated timing metrics are expressed in.

The host this benchmark runs on is shared, and its speed drifts by 20-35%
over seconds to minutes: every piece of code, pfnet or not, slows down and
speeds up together.  A wall-clock latency therefore varies between runs of
the same code by more than the regressions it should catch.  The loop runs
this fixed job right after every item, and the gated latencies are the
item's time over the job's time, in units of ``ref``.  A change to pfnet
moves the item's time and not the job's; a change in host speed moves both.

The job mixes the two kinds of work pfnet does: float64 matrix products,
which stand in for the convolution GEMMs, and float32 elementwise passes
over a feature-map-sized array, which stand in for the memory-bound ops.
Either alone tracked the host less closely than the mix.  It takes 2-2.5
ms on one core of a 2.1 GHz Xeon VM.  It uses numpy directly, never pfnet,
so the tracer does not see it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_rng = np.random.Generator(np.random.PCG64(0))
_MATRIX = _rng.standard_normal((256, 256))
_FIELD = _rng.standard_normal((16, 64, 64)).astype(np.float32)
_MATMULS = 2
_PASSES = 10
# Outputs are preallocated, so that the job's time does not depend on the
# state the program leaves the allocator in.
_PRODUCT = np.empty_like(_MATRIX)
_SCRATCH = np.empty_like(_FIELD)
_PLANE = np.empty(_FIELD.shape[1:], np.float32)


def job():
    """One run of the fixed job; returns a value so nothing is skipped."""
    for _ in range(_MATMULS):
        np.matmul(_MATRIX, _MATRIX, out=_PRODUCT)
    for _ in range(_PASSES):
        np.multiply(_FIELD, 0.5, out=_SCRATCH)
        np.add(_SCRATCH, 0.1, out=_SCRATCH)
        np.maximum(_SCRATCH, 0.0, out=_SCRATCH)
        _SCRATCH.sum(axis=0, out=_PLANE)
    return float(_PRODUCT[0, 0] + _PLANE[0, 0])


def measure(budget_s):
    """Median seconds of one job, over repeats that together take at least
    ``budget_s`` (at least one)."""
    times = []
    while not times or sum(times) < budget_s:
        t0 = perf_counter()
        job()
        times.append(perf_counter() - t0)
    return statistics.median(times)
