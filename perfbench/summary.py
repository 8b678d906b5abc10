"""Statistics shared by the benchmark driver, its spread tool and its tests.

Pure Python on purpose: the driver process never imports numpy, so its
own start-up cost stays out of every measurement.
"""

import statistics

# Reference-kernel time (ms) that corrected timings are scaled to.  It is
# the kernel's typical time on the 2-vCPU Xeon host the benchmark was
# written on; changing it rescales every corrected time, so it is fixed.
REF_NOMINAL_MS = 9.0

TAIL_BEYOND = 10


def corrected(raw, ref_local):
    """Drift-corrected time: raw * REF_NOMINAL_MS / ref_local.

    ref_local is the reference kernel's time measured next to the raw
    time; the correction is the identity when the host runs the kernel
    at its nominal speed.
    """
    if ref_local <= 0:
        raise ValueError("reference time must be positive")
    return raw * REF_NOMINAL_MS / ref_local


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, n).  With values sorted ascending, the
    sample at index n - TAIL_BEYOND - 1 has exactly TAIL_BEYOND samples
    above it and is the nearest-rank percentile 100 * (n - 10) / n.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    k = n - TAIL_BEYOND - 1
    return sorted(values)[k], 100.0 * (k + 1) / n, n


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")
