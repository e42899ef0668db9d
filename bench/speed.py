"""Machine-speed calibration for the timings of a run.

The reference machine gives this benchmark two vCPUs of a shared host,
and the speed of those vCPUs drifts: the same fixed computation runs up
to 1.8x slower for spells of a second to several minutes (in CPU time as
well as in wall time), whatever the program does.  Spells that long
outlast a run, so no statistic taken within one run removes them.

A ``Calibrator`` measures the drift as it happens.  Between the tasks of
a run it times a fixed kernel of pure-Python work that never calls
``orepi`` (dict polynomial products over Q and over the integers, and a
sort of the monomials, the kind of work ``fields`` and ``rewrite`` do).
A task's time is then scaled by ``REF_KERNEL_S`` / (the median time of
the kernel runs just before and just after the task): the task's time
at the speed at which the kernel takes ``REF_KERNEL_S``.  A slower
program takes more time relative to the kernel, so it still shows; a
slower machine slows both alike.
"""

import bisect
import statistics
import time
from fractions import Fraction

# the kernel's time on the reference machine (2 vCPUs of a shared host)
# at its faster speed level; the scaled times are seconds at that speed
REF_KERNEL_S = 1.3e-3
# a kernel run between tasks at most this often, in seconds
EVERY_S = 0.03
# kernel runs on each side of a task that set its scale
WINDOW = 2

_Q = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(4)}
_Z = {(i,): i * i - 3 for i in range(12)}


def kernel():
    """Fixed work, the same in every run and independent of orepi."""
    out = {}
    for ma, ca in _Q.items():
        for mb, cb in _Q.items():
            m = (ma[0] + mb[0], ma[1] + mb[1])
            c = out.get(m)
            out[m] = ca * cb if c is None else c + ca * cb
    ints = {}
    for _ in range(3):
        for ma, ca in _Z.items():
            for mb, cb in _Z.items():
                m = (ma[0] + mb[0],)
                ints[m] = ints.get(m, 0) + ca * cb
    keys = sorted(out, key=lambda m: (-sum(m), m))
    return len(keys) + len(ints)


class Calibrator:
    """Kernel timings over a run, and the scale they give each interval."""

    def __init__(self):
        self.at = []       # perf_counter() when each kernel run started
        self.took = []     # its seconds
        self.last = float("-inf")

    def force(self):
        """Time one kernel run now."""
        clock = time.perf_counter
        t0 = clock()
        kernel()
        t1 = clock()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.last = t1

    def tick(self):
        """Time a kernel run if none ran in the last EVERY_S seconds."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.force()

    def scale(self, t0):
        """REF_KERNEL_S / the median kernel time around the instant t0."""
        j = bisect.bisect_left(self.at, t0)
        near = self.took[max(0, j - WINDOW):j + WINDOW]
        return REF_KERNEL_S / statistics.median(near)
