"""Host-speed reference for the end-to-end times.

The shared 2-vCPU hosts this benchmark runs on change speed by 30% and more
for minutes at a time; CPU time tracks wall time, so it is contention for
the cores, not waiting. A run's median alone then moves with the host more
than with modlab. The benchmark therefore times a fixed reference
computation, independent of modlab, next to every op and reports each time
`t` measured next to a reference time `r` as `t * NOMINAL_S / r`: the time
at the host speed at which the reference takes NOMINAL_S. The reference
mixes the kinds of work the workloads do (2-D FFTs, a BLAS product on the
default threads, interpreted Python), so it slows down with them. The wall
times themselves are printed beside the result.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.05

_rng = np.random.default_rng(0)
_FIELD = _rng.normal(size=(256, 256)) + 1j * _rng.normal(size=(256, 256))
_MATRIX = _rng.normal(size=(384, 384))


def reference_seconds() -> float:
    """Wall time of one pass of the reference computation (~NOMINAL_S)."""
    start = time.perf_counter()
    for _ in range(8):
        np.fft.ifft2(np.fft.fft2(_FIELD))
    for _ in range(4):
        _MATRIX @ _MATRIX
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    return time.perf_counter() - start
