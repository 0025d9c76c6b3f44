"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts by up to 1.8x over a few
minutes (measured on a 2-core VM: the 25-second medians of a fixed
``run_verify`` call ranged 0.19-0.35 s), far beyond any bound a timing
could be given.  The benchmark therefore times a fixed kernel that does
not touch the program before the first timed pass and then between
operations, at least every ``INTERVAL_S`` of workload time, and reports
every time of the run scaled to reference speed:

    reported = measured * REF_S / median(kernel times of the run)

The kernel mixes interpreted dict/tuple work (like the symbolic
polynomial layer), ``np.unique``/``bincount`` over integer keys (like the
moment layer) and vectorized complex exponentials (like the quadrature
layer).  ``REF_S`` is the kernel's median time on the reference machine
(2-core VM, Python 3.11.7, numpy 2.4.6), so reported times are seconds on
that machine at its typical speed.

The factor is one per run, from the median of its few dozen kernel
timings: fast fluctuations average out over the passes, while the slow
drift between runs is removed.  Over ten seeds on the reference machine
this cut the spread (interquartile range over median) of ``run_s`` from
16 % to 9 % on verify-deep and from 13 % to 8 % on verify-wide, and left
quadrature's at 9-10 %.  A change to the program leaves the kernel
unchanged, so a real speed-up or slow-down shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: median kernel time on the reference machine, in seconds
REF_S = 0.0175
#: least workload time between two kernel timings
INTERVAL_S = 0.5


def _kernel():
    terms: dict = {}
    for i in range(8000):
        key = (i % 7, i % 11, i % 13)
        terms[key] = terms.get(key, 0j) + complex(i, -i) * 0.5
    keys = (np.arange(40_000, dtype=np.int64) * 7919) % 4099
    uniq, inverse = np.unique(keys, return_inverse=True)
    agg = np.bincount(inverse, weights=np.sin(keys), minlength=uniq.shape[0])
    z = np.linspace(-3.0, 3.0, 30_000) * (1.0 + 0.5j)
    total = sum(complex(np.exp(-z * z * (1.0 + 0.01 * k)).sum()) for k in range(4))
    return len(terms), float(agg.sum()), total


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Calibration:
    """Kernel timings taken through one run, one at least every
    ``INTERVAL_S`` of workload time."""

    def __init__(self):
        self.samples: list = []
        self._last = time.perf_counter()

    def sample(self):
        self.samples.append(kernel_s())
        self._last = time.perf_counter()

    def tick(self):
        """Take a sample if ``INTERVAL_S`` has passed since the last."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    @property
    def factor(self) -> float:
        """Converts the run's wall times to reference speed."""
        return REF_S / statistics.median(self.samples)
