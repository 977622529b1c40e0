"""The package's one FFT backend: `numpy.fft` over every axis of an array, or
over one axis of a batch of rows.

Every discrete Fourier transform in modlab goes through `fft`/`ifft` here,
with numpy's normalization (forward unscaled, inverse scaled by the
transformed length). By default a 1-D array gets a 1-D transform and an
n x n array a 2-D one, so callers never name the rank; `axis=-1` transforms
each row of a stack independently, which is how the Strang stepper runs.
A 1-D array goes through the 1-D entry, which skips the n-D entry's per-call
axis bookkeeping. `numpy.fft.fftn` transforms the last of its `axes` first,
so the axes are listed in reverse: axis 0 first is the order whose rounding
makes a row of a stack match its own 1-D transform bit for bit.

`overwrite=True` passes `out=a`. `numpy.fft` runs each transform as a ufunc,
and numpy defines a ufunc whose output overlaps its input to return what it
would without the overlap (it copies where it must), so `a` may be the output.
"""

from __future__ import annotations

import numpy as np


def fft(a: np.ndarray, axis: int | None = None, overwrite: bool = False) -> np.ndarray:
    """Forward transform over all axes, or over `axis` alone; `overwrite`
    writes the result into `a`."""
    if axis is None and a.ndim > 1:
        return np.fft.fftn(a, axes=tuple(range(a.ndim))[::-1], out=a if overwrite else None)
    return np.fft.fft(a, axis=-1 if axis is None else axis, out=a if overwrite else None)


def ifft(a: np.ndarray, axis: int | None = None, overwrite: bool = False) -> np.ndarray:
    """Inverse transform over all axes, or over `axis` alone, scaled by 1/N
    for the N points transformed."""
    if axis is None and a.ndim > 1:
        return np.fft.ifftn(a, axes=tuple(range(a.ndim))[::-1], out=a if overwrite else None)
    return np.fft.ifft(a, axis=-1 if axis is None else axis, out=a if overwrite else None)
