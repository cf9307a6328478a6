"""Speed calibration for hosts whose cores are shared with other tenants.

On such a host the speed of a core changes by up to about 1.6x for seconds
to minutes at a time, so the raw wall time of the same code differs that
much from run to run. A fixed kernel, timed right next to a measured item,
slows down by nearly the same factor. On a 2-core Xeon VM, over 25-item
chunks, the chunk-to-chunk coefficient of variation of the item time was
0.11 / 0.20 / 0.12 raw and 0.02 / 0.02 / 0.05 divided by the kernel time
(detect_blocks / bench_binned / basad_teeth).

A measured time t is therefore reported as t * REFERENCE_S / k, where k is
the mean kernel time just before and just after it: the time the work would
take on a core on which the kernel takes REFERENCE_S. The kernel does not
use the program, so a change to the program moves the scaled times as much
as the raw ones. Raw times are kept next to each result.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 1e-3

_X = np.linspace(0.0, 1.0, 1024)
_Y = _X[::-1].copy()


def kernel_seconds() -> float:
    """Wall time of the fixed kernel: small-array NumPy calls from a Python
    loop, then a scalar Python loop. The mix tracked the items' slowdowns
    better than either half alone."""
    start = time.perf_counter()
    x = _X.copy()
    acc = 0.0
    for i in range(200):
        x = x * 0.999 + _Y * 0.001
        acc += x[i]
    a, b = 0.0, 1.0
    for _ in range(10000):
        a = a * 0.999 + b
        b = b * 0.5 + 1.0
    return time.perf_counter() - start


def scale(kernels: list[float], before: int) -> float:
    """Factor that takes a time measured between kernel runs `before` and
    `before + 1` to the reference speed."""
    return REFERENCE_S / (0.5 * (kernels[before] + kernels[before + 1]))
