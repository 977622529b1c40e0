"""The package's one FFT backend: `scipy.fft` over every axis of an array, or
over one axis of a batch of rows.

Every discrete Fourier transform in modlab goes through `fft`/`ifft` here,
with numpy's normalization (forward unscaled, inverse scaled by the
transformed length). By default a 1-D array gets a 1-D transform and an
n x n array a 2-D one, so callers never name the rank; `axis=-1` transforms
each row of a stack independently, which is how the Strang stepper runs.
A 1-D array goes through scipy's 1-D entry (`scipy.fft.fft`), which skips
the n-D entry's per-call axis bookkeeping; both entries run the same
pocketfft kernel, so the values are identical.
The index helpers (`fftfreq`, `fftshift`) stay in numpy.

Transforms run on one thread, scipy's default. On a shared 2-CPU host, two
workers made the 2-D step faster while the host was idle, but nearly twice
as slow as one thread whenever another process held a CPU.
"""

from __future__ import annotations

import numpy as np
import scipy.fft


def fft(a: np.ndarray, axis: int | None = None, overwrite: bool = False) -> np.ndarray:
    """Forward transform over all axes, or over `axis` alone; `overwrite` lets
    it reuse `a`'s memory."""
    if axis is None and a.ndim > 1:
        return scipy.fft.fftn(a, overwrite_x=overwrite)
    return scipy.fft.fft(a, axis=-1 if axis is None else axis, overwrite_x=overwrite)


def ifft(a: np.ndarray, axis: int | None = None, overwrite: bool = False) -> np.ndarray:
    """Inverse transform over all axes, or over `axis` alone, scaled by 1/N
    for the N points transformed."""
    if axis is None and a.ndim > 1:
        return scipy.fft.ifftn(a, overwrite_x=overwrite)
    return scipy.fft.ifft(a, axis=-1 if axis is None else axis, overwrite_x=overwrite)
