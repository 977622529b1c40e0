"""Exact finite-dimensional operator algebra on the position lattice basis.

The momentum operator is defined by spectral conjugation F* diag(p) F rather
than finite differences, so the kinetic term and lattice translations commute
to machine precision and the nonlocal equation of motion for the translation
operator holds as an exact matrix identity, not a discretization-limited one.
Each such f(p) is a circulant matrix, built from one inverse FFT of f; a
symmetrized monomial is the one for p^m times ((x_a + x_b)/2)^n, elementwise.

Also houses the classical symplectic comparator (where a momentum function
only changes at a point with a force) and the conic identity tying the folded
momentum coordinates of two subsystems with conserved total momentum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _fft
from .errors import ArgumentError, DimCap, NonDifferentiableV
from .evolve import PotentialSpec
from .grid import Grid, _circulant_view, lattice_steps
from .observables import MomentSpec

MATRIX_DIM_CAP = 2048
_BLOCK = 64  # rows per block of the Weyl build, the EOM commutator and the guard's scale pass
_TILE = 128  # side of the hermitian guard's square tiles


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense operator in the position lattice basis. `entries` is a read-only view of
    the input, not a copy: the caller must not change that array afterwards.

    The hermitian guard takes gap = max|e_ab - conj(e_ba)| over 128 x 128 tiles on and
    above the diagonal, each tile's transposed partner read into a small buffer, and
    passes when gap <= 1e-12 max(1, max|e|). That bound is never below 1e-12, so a gap
    within 1e-12 passes at once; only a larger gap (or NaN) takes the max|e| pass, by
    64-row blocks."""

    dim: int
    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128).view()
        if e.shape != (self.dim, self.dim):
            raise ArgumentError(f"expected {(self.dim,) * 2} entries, got {e.shape}")
        if self.hermitian:  # np.maximum keeps a NaN
            gap, scale, t = 0.0, 1.0, _TILE
            with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the test below
                for i in range(0, self.dim, t):  # |e_ab - conj(e_ba)| is symmetric in (a, b)
                    for j in range(i, self.dim, t):
                        d = np.subtract(e[i:i + t, j:j + t], e[j:j + t, i:i + t].conj().T)
                        gap = np.maximum(gap, np.max(np.abs(d)))
                if not gap <= 1e-12:
                    for i in range(0, self.dim, _BLOCK):
                        scale = np.maximum(scale, np.max(np.abs(e[i:i + _BLOCK])))
            if not gap <= 1e-12 * scale:
                raise ArgumentError("entries are not hermitian within 1e-12")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def _check_dim(grid: Grid) -> None:
    if grid.n > MATRIX_DIM_CAP:
        raise DimCap(f"dense matrices capped at dim {MATRIX_DIM_CAP}, grid has {grid.n}")


def _spectral_view(f: np.ndarray) -> np.ndarray:
    """The operator f(p), f given on grid.p, in the position basis, as a read-only
    strided view: the circulant matrix of the inverse DFT of f, since
    p_j dx / hbar = 2 pi j / n."""
    return _circulant_view(_fft.ifft(np.fft.ifftshift(f)))


def build_x(grid: Grid) -> OperatorMatrix:
    _check_dim(grid)
    return OperatorMatrix(grid.n, np.diag(grid.x.astype(complex)), hermitian=True)


def build_p(grid: Grid) -> OperatorMatrix:
    _check_dim(grid)
    return OperatorMatrix(grid.n, _spectral_view(grid.p).copy(), hermitian=True)


def build_translation(grid: Grid, L: float) -> OperatorMatrix:
    """exp(i p L / hbar): shifts states by L; an exact circular index-shift
    permutation when L is a lattice multiple."""
    if not math.isfinite(L):
        raise ArgumentError(f"L must be finite, got {L}")
    _check_dim(grid)
    return OperatorMatrix(grid.n, _spectral_view(np.exp(1j * grid.p * L / grid.hbar)).copy())


def eom_identity_residual(
    grid: Grid, V: PotentialSpec, L: float, mass: float = 1.0
) -> float:
    """Max-norm residual of the translation-operator equation of motion,

        (i/hbar) [H, T_L] = (i/hbar) diag(V(x) - V(x+L)) T_L

    with H = P^2/2m + diag(V). The kinetic part commutes with T_L exactly, so
    the return value is pure roundoff.

    Only H and T_L are n x n once P^2 is formed: the commutator is taken 64 rows
    at a time in two block buffers, each block's max|c| folded into a running
    maximum, with the same products and elementwise steps as the whole matrix.
    """
    if not 0.0 < mass < math.inf:  # an inf mass would drop the kinetic term
        raise ArgumentError(f"mass must be positive and finite, got {mass}")
    m = lattice_steps(grid, L)
    _check_dim(grid)
    v = V.values(grid)
    # P (build_p's entries, without its hermitian guard) is freed once squared
    h = np.linalg.matrix_power(_spectral_view(grid.p).copy(), 2)
    h /= 2.0 * mass
    h[np.diag_indices_from(h)] += v
    t = build_translation(grid, L).entries
    dv = v - np.roll(v, -m)
    c, buf = np.empty((2, min(_BLOCK, grid.n), grid.n), complex)
    worst = 0.0  # np.maximum keeps a NaN
    for i in range(0, grid.n, _BLOCK):
        np.matmul(h[i:i + _BLOCK], t, out=c)
        c -= np.matmul(t[i:i + _BLOCK], h, out=buf)
        c -= np.multiply(dv[i:i + _BLOCK, None], t[i:i + _BLOCK], out=buf)
        c *= 1j / grid.hbar
        worst = np.maximum(worst, np.max(np.abs(c)))
    return float(worst)


def weyl_matrix(grid: Grid, n_x: int, m_p: int) -> OperatorMatrix:
    """Symmetrized monomial W(x^n p^m) = 2^-n sum_k C(n,k) X^k P^m X^(n-k); X is
    diagonal, so this is W[a, b] = ((x_a + x_b)/2)^n (P^m)[a, b] (McCoy's midpoint rule).
    Each row block of the result is written once, from a strided view of P^m: only the
    result is n x n."""
    MomentSpec(n_x, m_p)  # enforces the degree cap
    _check_dim(grid)
    view = _spectral_view(grid.p**m_p)
    if not n_x:
        return OperatorMatrix(grid.n, view.copy(), hermitian=True)
    w = np.empty(view.shape, view.dtype)
    for i in range(0, grid.n, _BLOCK):
        mid = np.add.outer(grid.x[i:i + _BLOCK], grid.x)
        mid *= 0.5
        pw = mid if n_x == 1 else mid * mid  # repeated products: ** calls libm pow
        for _ in range(n_x - 2):
            pw *= mid
        np.multiply(view[i:i + _BLOCK], pw, out=w[i:i + _BLOCK])
    return OperatorMatrix(grid.n, w, hermitian=True)


@dataclass(frozen=True)
class ClassicalState:
    x: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.p)):
            raise ArgumentError(f"non-finite classical state ({self.x}, {self.p})")


def _classical_force(V: PotentialSpec, x: float, grid: Grid | None) -> float:
    if V.kind == "zero":
        return 0.0
    if V.kind == "harmonic":
        return -V.k_spring * x
    if V.kind == "sampled":
        if grid is None:
            raise ArgumentError("sampled potential needs the grid it is sampled on")
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
    """One kick-drift-kick leapfrog step; symplectic, O(dt^2) per step. A negative
    dt steps backward; mass must be finite and > 0, and dt finite."""
    if not (0.0 < mass < math.inf and math.isfinite(dt)):
        raise ArgumentError(f"need finite mass > 0 and finite dt; got mass={mass} dt={dt}")
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
    if not isinstance(samples, numbers.Integral) or samples < 16:
        raise ArgumentError(f"samples must be >= 16 and an integer, got {samples!r}")
    if not (math.isfinite(P_total) and 0.0 < L < math.inf and 0.0 < hbar < math.inf):
        raise ArgumentError(
            f"need finite P_total and finite L, hbar > 0; got P_total={P_total} L={L} hbar={hbar}"
        )
    p1 = (2.0 * math.pi * hbar / L) * np.arange(samples) / samples
    u = np.cos(p1 * L / hbar)
    v = np.cos((P_total - p1) * L / hbar)
    c = math.cos(P_total * L / hbar)
    s2 = math.sin(P_total * L / hbar) ** 2
    return float(np.max(np.abs(u**2 + v**2 - 2.0 * u * v * c - s2)))
