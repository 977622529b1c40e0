"""Uniform periodic 1-D lattices and the position <-> momentum transform.

The transform follows the unitary convention

    psi_tilde(p_j) = dx / sqrt(2*pi*hbar) * sum_m psi(x_m) exp(-i p_j x_m / hbar)

with momentum lattice p_j = (2*pi*hbar/length) * j for j in [-n/2, n/2),
so Parseval holds to machine precision on power-of-two grids.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import _fft
from .errors import (
    ArgumentError,
    GridMismatch,
    NonFiniteAmplitude,
    NonPositiveDomain,
    NonPowerOfTwo,
    OffLatticeL,
    ZeroState,
)


@dataclass(frozen=True)
class Grid:
    """Periodic spatial lattice x_j = x0 + j*dx with its conjugate lattice.

    hbar is a grid parameter (natural units, default 1) so experiments can
    sweep it; it is never a global constant.
    """

    n: int
    x0: float
    length: float
    hbar: float = 1.0

    def __post_init__(self):
        # a float n is refused before `&`, which would raise TypeError
        if not isinstance(self.n, numbers.Integral) or self.n < 8 or self.n & (self.n - 1):
            raise NonPowerOfTwo(f"n must be a power of two >= 8, got {self.n}")
        # dx and dp can underflow to 0 or overflow to inf for extreme values
        if not (self.length > 0.0 and self.hbar > 0.0 and self.dx > 0.0
                and 0.0 < self.dp < math.inf):
            raise NonPositiveDomain(
                f"length and hbar must be positive with positive, finite steps dx and dp, "
                f"got length={self.length} hbar={self.hbar}"
            )

    @cached_property
    def dx(self) -> float:
        return self.length / self.n

    @cached_property
    def dp(self) -> float:
        return 2.0 * math.pi * self.hbar / self.length

    @cached_property
    def x(self) -> np.ndarray:
        xs = self.x0 + self.dx * np.arange(self.n)
        xs.setflags(write=False)
        return xs

    @cached_property
    def p(self) -> np.ndarray:
        """Momentum lattice in increasing order, symmetric up to the Nyquist point."""
        ps = self.dp * (np.arange(self.n) - self.n // 2)
        ps.setflags(write=False)
        return ps

    @cached_property
    def p_raw(self) -> np.ndarray:
        """Momentum lattice in FFT (unshifted) order."""
        ps = 2.0 * math.pi * self.hbar * np.fft.fftfreq(self.n, d=self.dx)
        ps.setflags(write=False)
        return ps

    @cached_property
    def origin_phase(self) -> np.ndarray:
        """exp(-i p x0 / hbar) on `p`: the phase `to_momentum` applies, and
        `from_momentum` undoes, for a lattice that starts at x0 rather than 0."""
        phase = np.exp(-1j * self.p * self.x0 / self.hbar)
        phase.setflags(write=False)
        return phase


def make_grid(n: int, x0: float, length: float, hbar: float = 1.0) -> Grid:
    return Grid(n=n, x0=float(x0), length=float(length), hbar=float(hbar))


@dataclass(frozen=True, eq=False)
class Amplitudes:
    """Read-only complex amplitudes over `rank` copies of a Grid's lattice: the
    one base of the position, momentum and two-particle amplitude types.

    A complex128 input array is kept, not copied, and flagged read-only: the
    caller must not change it afterwards through another writable view. A
    `WaveFunction` keeps its momentum amplitudes once `to_momentum` has made
    them, one more n-point complex array per transformed state, and that memo
    holds only while the position amplitudes do not change."""

    grid: Grid
    amps: np.ndarray
    rank: ClassVar[int] = 1
    momentum: ClassVar[bool] = False  # lattice cell dp instead of dx

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=np.complex128)
        shape = (self.grid.n,) * self.rank
        if a.shape != shape:
            raise GridMismatch(f"expected shape {shape}, got {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    def norm(self) -> float:
        cell = self.grid.dp if self.momentum else self.grid.dx
        return math.sqrt(float(np.sum(self.density())) * cell**self.rank)

    def normalized(self):
        with np.errstate(over="ignore"):  # a norm past the float range is refused below
            n = self.norm()
        if n == 0.0:
            raise ZeroState("cannot normalize the zero state")
        if not math.isfinite(n):
            raise NonFiniteAmplitude(f"cannot normalize a state of norm {n}")
        return type(self)(self.grid, self.amps / n)

    def density(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


class WaveFunction(Amplitudes):
    """Complex amplitudes in the position representation on a Grid."""

    position_density = Amplitudes.density

    @cached_property
    def _momentum(self) -> "MomentumAmplitudes":
        """The state's momentum amplitudes, transformed on first use and kept, so
        every observable of one state shares one transform."""
        g = self.grid
        raw = _fft.fft(self.amps)
        amps = np.fft.fftshift(raw) * g.origin_phase * (g.dx / math.sqrt(2.0 * math.pi * g.hbar))
        return MomentumAmplitudes(g, amps)


class MomentumAmplitudes(Amplitudes):
    """Complex amplitudes in the momentum representation, ordered by increasing p."""

    momentum = True


def lattice_steps(grid: Grid, a: float, name: str = "L") -> int:
    """The integer m with a = m * dx to within 1e-9 of a step; raises
    OffLatticeL, naming `a` as `name`, when there is none."""
    m = a / grid.dx
    if not math.isfinite(m) or abs(m - round(m)) > 1e-9:
        raise OffLatticeL(f"{name} = {a} is not an integer multiple of dx = {grid.dx}")
    return int(round(m))


def _circulant_view(c: np.ndarray, shift: int = 0) -> np.ndarray:
    """A read-only strided view of M[a, b] = c[(a - b - shift) mod n], n = len(c): row a
    is a contiguous window of [r, r], r = roll(c, shift) reversed. Only 2n values are
    stored."""
    n = len(c)
    r = np.roll(c, shift)[::-1]
    return np.lib.stride_tricks.sliding_window_view(np.concatenate((r, r)), n)[n - 1::-1]


def circulant(c: np.ndarray, shift: int = 0) -> np.ndarray:
    """The n x n matrix M[a, b] = c[(a - b - shift) mod n] of a length-n vector, as a
    fresh C-contiguous array."""
    return _circulant_view(c, shift).copy()


def to_momentum(psi: WaveFunction) -> MomentumAmplitudes:
    """psi's momentum amplitudes: read-only, and computed once per state."""
    return psi._momentum


def from_momentum(mom: MomentumAmplitudes) -> WaveFunction:
    g = mom.grid
    raw = np.fft.ifftshift(mom.amps * g.origin_phase.conj())
    return WaveFunction(g, _fft.ifft(raw / (g.dx / math.sqrt(2.0 * math.pi * g.hbar))))


def inner(psi: WaveFunction, phi: WaveFunction) -> complex:
    """Discrete inner product sum(conj(psi) * phi) * dx."""
    if psi.grid != phi.grid:
        raise GridMismatch("states live on different grids")
    return complex(np.vdot(psi.amps, phi.amps) * psi.grid.dx)


def _translate_spectral(psi: WaveFunction, a: float) -> WaveFunction:
    g = psi.grid
    phase = np.exp(2j * math.pi * np.fft.fftfreq(g.n, d=g.dx) * a)
    return WaveFunction(g, _fft.ifft(_fft.fft(psi.amps) * phase))


def translate(psi: WaveFunction, a: float) -> WaveFunction:
    """Shift the state: (translate(psi, a))(x) = psi(x + a), periodic wrap.

    Spectrally this multiplies momentum amplitudes by exp(i p a / hbar); when
    a is an integer multiple of dx the result is an exact circular index roll.
    A packet centered at c moves to c - a. A shift that is not a finite number
    of steps dx (NaN, inf, or so large that a/dx overflows) raises ArgumentError.
    """
    if not math.isfinite(a / psi.grid.dx):
        raise ArgumentError(f"shift must be a finite number of steps, got {a}")
    try:
        m = lattice_steps(psi.grid, a)
    except OffLatticeL:
        return _translate_spectral(psi, a)
    return WaveFunction(psi.grid, np.roll(psi.amps, -m))
