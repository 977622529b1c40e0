"""The package's one FFT backend: `numpy.fft` over one axis of an array.

Every discrete Fourier transform in modlab goes through `fft`/`ifft` here,
with numpy's normalization (forward unscaled, inverse scaled by the
transformed length). A 1-D array gets its transform, and `axis=-1` on a stack
transforms each row independently, which is how the Strang stepper runs.

`overwrite=True` passes `out=a`. `numpy.fft` runs each transform as a ufunc,
and numpy defines a ufunc whose output overlaps its input to return what it
would without the overlap (it copies where it must), so `a` may be the output.
"""

from __future__ import annotations

import numpy as np


def fft(a: np.ndarray, axis: int = -1, overwrite: bool = False) -> np.ndarray:
    """Forward transform over `axis`; `overwrite` writes the result into `a`."""
    return np.fft.fft(a, axis=axis, out=a if overwrite else None)


def ifft(a: np.ndarray, axis: int = -1, overwrite: bool = False) -> np.ndarray:
    """Inverse transform over `axis`, scaled by 1/N for the N points transformed."""
    return np.fft.ifft(a, axis=axis, out=a if overwrite else None)
