"""The package's one FFT backend: `scipy.fft` over every axis of an array.

Every discrete Fourier transform in modlab goes through `fft`/`ifft` here,
with numpy's normalization (forward unscaled, inverse scaled by 1/N). A 1-D
array gets a 1-D transform and an n x n array a 2-D one, so callers never
name the rank. The index helpers (`fftfreq`, `fftshift`) stay in numpy.

Transforms run on one thread, scipy's default. On a shared 2-CPU host, two
workers made the 2-D step faster while the host was idle, but nearly twice
as slow as one thread whenever another process held a CPU.
"""

from __future__ import annotations

import numpy as np
import scipy.fft


def fft(a: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Forward transform over all axes; `overwrite` lets it reuse `a`'s memory."""
    return scipy.fft.fftn(a, overwrite_x=overwrite)


def ifft(a: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Inverse transform over all axes, scaled by 1/a.size."""
    return scipy.fft.ifftn(a, overwrite_x=overwrite)
