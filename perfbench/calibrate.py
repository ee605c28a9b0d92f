"""Host-speed reference: fixed exact-arithmetic work outside integrable_lab.

The benchmark runs on shared machines whose speed drifts by up to a
factor of two within seconds, moving every timing of a run together.
So each timed segment of a pass (one suite call or a short chunk of CLI
requests) is bracketed by two timings of this kernel,
and its latencies are reported scaled by

    REFERENCE_S / mean(kernel time before, kernel time after),

that is, in seconds at the reference host speed.  The kernel imports
nothing from the program, so a change to the program cannot move it.
Raw (unscaled) timings are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Kernel time that defines the reference host speed (about its typical
# value on the 2-core x86-64 machine the benchmark was defined on).
REFERENCE_S = 0.03


def kernel():
    """Sparse Fraction matrix products and sums, like the lab's inner loops."""
    n = 48
    a = {j: {i: Fraction(i - j, i + 2 * j + 1) for i in range(n) if (3 * i + j) % 4 == 0}
         for j in range(n)}
    acc = Fraction(0)
    for col in a.values():
        out = {}
        for k, vb in col.items():
            for r, va in a.get(k, {}).items():
                out[r] = out.get(r, 0) + va * vb
        acc += sum(v for v in out.values() if v != 0)
    return acc


def time_kernel() -> float:
    # a single timing: a run slowed by contention is what should be tracked.
    # The cyclic GC is off while it runs, so that no collection scans the
    # program's heap inside it; the kernel's garbage is freed by refcount.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Brackets timed segments with kernel timings; see the module doc."""

    def __init__(self):
        self.samples = []
        self._last = None

    def start(self):
        """Time the kernel before the first segment."""
        self._last = time_kernel()
        self.samples.append(self._last)

    def close_segment(self) -> float:
        """Time the kernel after a segment; return the segment's scale."""
        after = time_kernel()
        self.samples.append(after)
        scale = REFERENCE_S / ((self._last + after) / 2)
        self._last = after
        return scale
