"""Fixed reference kernel used to correct op timings for host speed drift.

The kernel mixes the three kinds of work a solve does: interpreted Python
(a fixed loop), a dense complex SVD (48 x 48) and a QZ with both
eigenvector sides (scipy.linalg.eig on a 64 x 64 pencil).  A kernel
without the QZ tracked drift worse on the longest ops, so the QZ stays.

This module imports only numpy and scipy, never the library under test,
so a change to the library cannot move the reference.
"""

import time

import numpy as np
import scipy.linalg

LOOP_N = 20000


class RefKernel:
    """The reference work on fixed inputs; time_ms() runs it once."""

    def __init__(self):
        rng = np.random.default_rng(20151001)
        self.svd_in = (rng.standard_normal((48, 48))
                       + 1j * rng.standard_normal((48, 48)))
        self.pencil = (rng.standard_normal((64, 64)),
                       rng.standard_normal((64, 64)))

    def run(self):
        acc = 0
        for i in range(LOOP_N):
            acc += i * i % 7
        s = np.linalg.svd(self.svd_in, compute_uv=True)[1]
        w = scipy.linalg.eig(*self.pencil, left=True, right=True)[0]
        return acc, s[0], w[0]

    def time_ms(self):
        t0 = time.perf_counter()
        self.run()
        return (time.perf_counter() - t0) * 1e3
