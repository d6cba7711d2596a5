"""Host-speed reference for the end-to-end timings.

The benchmark runs on shared hosts whose speed drifts by a third or more
within minutes, in phases that slow interpreted code and small dense linear
algebra alike.  Raw wall times then follow the host, not the program.  So a
fixed reference kernel, which calls no g2lab code, is timed in short bursts
between the operations, and each timing is scaled to a host on which the
kernel takes REF_MS:

    scaled = wall * REF_MS / (kernel time, mean of the bursts around it)

The kernel mixes what g2lab's own time is made of: a Python loop, numpy
calls on 7x7 matrices, and SVDs and solves at the 35-dimensional size of
3-forms in seven dimensions.  A change to g2lab changes its operations'
wall times and not the kernel's, so it moves the scaled times by the same
factor as the raw ones.  REF_MS is a round figure for this kernel's usual
time on the host the benchmark was written on (2-core x86-64 VM, numpy 2.4
with OpenBLAS, one BLAS thread); it fixes the unit, not the comparison.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REF_MS = 4.0
#: Kernel repetitions per burst; the fastest one counts, as an interrupt
#: inside one repetition says nothing about the host's speed.
REPS = 3
#: Wall time of operations between two bursts, at most one operation more.
EVERY_S = 0.25


class Pace:
    """Times the reference kernel and scales wall times by it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((7, 7))
        self.form = rng.standard_normal((35, 35))
        self.rhs = rng.standard_normal(35)
        self.bursts = []

    def kernel(self):
        total = 0
        for i in range(14000):
            total += i * i % 7
        a = self.small
        for _ in range(32):
            g = a @ a.T + np.eye(7)
            np.linalg.eigh(g)
            np.einsum("ij,jk,kl->il", a, g, a)
        for _ in range(3):
            np.linalg.svd(self.form)
            np.linalg.lstsq(self.form, self.rhs, rcond=None)
        return total

    def burst(self):
        """Kernel time in seconds: the fastest of REPS repetitions."""
        best = float("inf")
        for _ in range(REPS):
            t0 = perf_counter()
            self.kernel()
            best = min(best, perf_counter() - t0)
        self.bursts.append(best)
        return best

    def factor(self, before, after):
        """Scale for wall time spent between two bursts."""
        return REF_MS * 1e-3 / (0.5 * (before + after))

    def scaled_call(self, fn):
        """Wall time of fn(), scaled by the bursts just before and after it."""
        before = self.burst()
        t0 = perf_counter()
        fn()
        elapsed = perf_counter() - t0
        return elapsed * self.factor(before, self.burst())


class Segments:
    """Scaled op latencies and loop time, one burst per EVERY_S of operations."""

    def __init__(self, pace):
        self.pace = pace
        self.pending = []
        self.latencies = []
        self.raw_latencies = []
        self.wall = 0.0
        self.raw_wall = 0.0
        self.last = pace.burst()
        self.since = perf_counter()

    def add(self, elapsed):
        self.pending.append(elapsed)
        if perf_counter() - self.since >= EVERY_S:
            self.settle()

    def settle(self):
        """Close the current segment: burst, then scale what it timed."""
        if not self.pending:
            return
        seg = perf_counter() - self.since
        now = self.pace.burst()
        factor = self.pace.factor(self.last, now)
        self.latencies.extend(x * factor for x in self.pending)
        self.raw_latencies.extend(self.pending)
        self.wall += seg * factor
        self.raw_wall += seg
        self.pending = []
        self.last = now
        self.since = perf_counter()
