"""Exact finite-dimensional operator algebra on the position lattice basis.

The momentum operator is defined by spectral conjugation F* diag(p) F rather
than finite differences, so the kinetic term and lattice translations commute
to machine precision and the nonlocal equation of motion for the translation
operator holds as an exact matrix identity, not a discretization-limited one.
Each such f(p) is a circulant matrix, built from one inverse FFT of f.

Also houses the classical symplectic comparator (where a momentum function
only changes at a point with a force) and the conic identity tying the folded
momentum coordinates of two subsystems with conserved total momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fft
from .errors import DimCap, NonDifferentiableV
from .evolve import PotentialSpec
from .grid import Grid, circulant, lattice_steps
from .observables import MomentSpec

MATRIX_DIM_CAP = 2048


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense operator in the position lattice basis."""

    dim: int
    entries: np.ndarray
    basis: str = "position"
    hermitian: bool = False

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        if e.shape != (self.dim, self.dim):
            raise ValueError(f"expected {(self.dim,) * 2} entries, got {e.shape}")
        if self.hermitian:
            scale = max(float(np.max(np.abs(e))), 1.0)
            if float(np.max(np.abs(e - e.conj().T))) > 1e-12 * scale:
                raise ValueError("entries are not hermitian within 1e-12")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def _check_dim(grid: Grid) -> None:
    if grid.n > MATRIX_DIM_CAP:
        raise DimCap(f"dense matrices capped at dim {MATRIX_DIM_CAP}, grid has {grid.n}")


def _spectral_function(f: np.ndarray) -> np.ndarray:
    """The operator f(p), f given on grid.p, in the position basis: the circulant
    matrix of the inverse DFT of f, since p_j dx / hbar = 2 pi j / n."""
    return circulant(_fft.ifft(np.fft.ifftshift(f)))


def build_x(grid: Grid) -> OperatorMatrix:
    _check_dim(grid)
    return OperatorMatrix(grid.n, np.diag(grid.x.astype(complex)), hermitian=True)


def build_p(grid: Grid) -> OperatorMatrix:
    _check_dim(grid)
    return OperatorMatrix(grid.n, _spectral_function(grid.p), hermitian=True)


def build_translation(grid: Grid, L: float) -> OperatorMatrix:
    """exp(i p L / hbar): shifts states by L; an exact circular index-shift
    permutation when L is a lattice multiple."""
    _check_dim(grid)
    return OperatorMatrix(grid.n, _spectral_function(np.exp(1j * grid.p * L / grid.hbar)))


def eom_identity_residual(
    grid: Grid, V: PotentialSpec, L: float, mass: float = 1.0
) -> float:
    """Max-norm residual of the translation-operator equation of motion,

        (i/hbar) [H, T_L] = (i/hbar) diag(V(x) - V(x+L)) T_L

    with H = P^2/2m + diag(V). The kinetic part commutes with T_L exactly, so
    the return value is pure roundoff.
    """
    m = lattice_steps(grid, L)
    v = V.values(grid)
    p_mat = build_p(grid).entries
    h = p_mat @ p_mat / (2.0 * mass) + np.diag(v.astype(complex))
    t = build_translation(grid, L).entries
    commutator = h @ t - t @ h
    correction = (v - np.roll(v, -m))[:, None] * t
    return float(np.max(np.abs((1j / grid.hbar) * (commutator - correction))))


def weyl_matrix(grid: Grid, n_x: int, m_p: int) -> OperatorMatrix:
    """Symmetrized monomial W(x^n p^m) = 2^-n sum_k C(n,k) X^k P^m X^(n-k)."""
    MomentSpec(n_x, m_p)  # enforces the degree cap
    _check_dim(grid)
    pm = _spectral_function(grid.p**m_p)
    x = grid.x
    acc = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for k in range(n_x + 1):
        acc += math.comb(n_x, k) * (x**k)[:, None] * pm * (x ** (n_x - k))[None, :]
    acc /= 2.0**n_x
    return OperatorMatrix(grid.n, acc, hermitian=True)


@dataclass(frozen=True)
class ClassicalState:
    x: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.p)):
            raise ValueError(f"non-finite classical state ({self.x}, {self.p})")


def _classical_force(V: PotentialSpec, x: float, grid: Grid | None) -> float:
    if V.kind == "zero":
        return 0.0
    if V.kind == "harmonic":
        return -V.k_spring * x
    if V.kind == "sampled":
        if grid is None:
            raise ValueError("sampled potential needs the grid it is sampled on")
        vals = V.values(grid)
        # smooth periodic samples: spectral slope, then linear interpolation
        slope = _fft.ifft(1j * (grid.p_raw / grid.hbar) * _fft.fft(vals)).real
        pos = (x - grid.x0) % grid.length
        return -float(np.interp(pos, grid.x - grid.x0, slope, period=grid.length))
    raise NonDifferentiableV(f"potential kind {V.kind!r} has no usable slope")


def classical_step(
    state: ClassicalState,
    V: PotentialSpec,
    dt: float,
    mass: float = 1.0,
    grid: Grid | None = None,
) -> ClassicalState:
    """One kick-drift-kick leapfrog step; symplectic, O(dt^2) per step."""
    p_half = state.p + 0.5 * dt * _classical_force(V, state.x, grid)
    x_new = state.x + dt * p_half / mass
    p_new = p_half + 0.5 * dt * _classical_force(V, x_new, grid)
    return ClassicalState(x_new, p_new)


def ellipse_check(P_total: float, L: float, hbar: float, samples: int = 64) -> float:
    """Conic identity for u = cos(p1 L/h), v = cos(p2 L/h) with p1 + p2 fixed:

        u^2 + v^2 - 2 u v cos(P L/h) = sin^2(P L/h)

    holds for every split of P_total, so a change in one subsystem's folded
    momentum forces a matching change in the other. Returns the max residual
    over a sweep of p1, which is pure roundoff.
    """
    if samples < 16:
        raise ValueError(f"samples must be >= 16, got {samples}")
    p1 = (2.0 * math.pi * hbar / L) * np.arange(samples) / samples
    u = np.cos(p1 * L / hbar)
    v = np.cos((P_total - p1) * L / hbar)
    c = math.cos(P_total * L / hbar)
    s2 = math.sin(P_total * L / hbar) ** 2
    return float(np.max(np.abs(u**2 + v**2 - 2.0 * u * v * c - s2)))
