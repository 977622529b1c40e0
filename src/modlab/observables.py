"""Measurement layer: translation-operator expectations, the distribution of
momentum modulo a cell, symmetrized position/momentum moments, residuals of
the nonlocal equation of motion for the translation operator, far-field peak
analysis, and the divergent power-series demonstration.

The central quantity is <exp(i k p L / hbar)>: the Fourier coefficients of the
momentum distribution folded into the cell 2*pi*hbar/L. It is evaluated both
as the position-space overlap with the translated state and as a spectral sum;
the two routes must agree or the operation refuses the result.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import _fft
from .errors import (
    ArgumentError,
    DegreeCap,
    DegreeOverflowWarning,
    GridMismatch,
    InternalInconsistency,
    NoPeaks,
    NonUniformSampling,
    PeriodUnderResolved,
)
from .evolve import PotentialSpec
from .grid import (
    MomentumAmplitudes,
    WaveFunction,
    inner,
    lattice_steps,
    to_momentum,
    translate,
)

_CROSS_CHECK_TOL = 1e-11


@dataclass(frozen=True)
class MomentSpec:
    """Monomial degrees for the symmetrized moment <W(x^n_x p^m_p)>."""

    n_x: int
    m_p: int

    def __post_init__(self):
        if not all(isinstance(d, numbers.Integral) and d >= 0 for d in (self.n_x, self.m_p)):
            raise DegreeCap(
                f"degrees must be non-negative integers, got {self.n_x!r}, {self.m_p!r}")
        if self.n_x + self.m_p > 6:
            raise DegreeCap(f"total degree {self.n_x + self.m_p} exceeds the cap of 6")


@dataclass(frozen=True, eq=False)
class ModularDistribution:
    """Distribution of p mod (2*pi*hbar/L): per-bin probabilities over the
    cell [0, period) plus the Fourier coefficients c_k = <exp(i k p L/hbar)>."""

    L: float
    period: float
    bins: int
    density: np.ndarray
    fourier: np.ndarray  # c_k for k = 1..k_max

    def tv_from_uniform(self) -> float:
        return tv_from_uniform(self.density)


def translation_expect(psi: WaveFunction, L: float, k: int = 1) -> complex:
    """<exp(i k p L / hbar)>, cross-checked between representations.

    Computed both as sum(conj(psi(x)) psi(x + kL)) dx and as the spectral sum
    over the momentum density; disagreement beyond 1e-11 * max(1, ||psi||^2)
    signals grid artifacts and raises InternalInconsistency.
    """
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ArgumentError(f"k must be an integer >= 1, got {k!r}")
    g = psi.grid
    pos_val = inner(psi, translate(psi, k * L))
    weights = to_momentum(psi).density() * g.dp
    mom_val = complex(np.sum(weights * np.exp(1j * g.p * k * L / g.hbar)))
    tol = _CROSS_CHECK_TOL * max(1.0, psi.norm() ** 2)
    if not abs(pos_val - mom_val) <= tol:  # a NaN gap fails too
        raise InternalInconsistency(
            f"overlap form {pos_val} and spectral form {mom_val} disagree by "
            f"{abs(pos_val - mom_val):.3g}"
        )
    return pos_val


def fold_density(p: np.ndarray, weights: np.ndarray, period: float, bins: int) -> np.ndarray:
    """Fold lattice momentum probabilities into [0, period) with `bins` bins.

    Every lattice point's full weight lands in the bin containing p mod period;
    the fold is exact, only the binning quantizes. Sites that fall on a bin
    boundary up to roundoff are assigned to the upper bin consistently (the
    1e-9 nudge is far above mod-roundoff and far below any site separation).
    """
    if not 0.0 < period < math.inf:  # NaN fails too
        raise ArgumentError(f"period must be positive and finite, got {period}")
    if not isinstance(bins, numbers.Integral) or bins < 1:
        raise ArgumentError(f"bins must be an integer >= 1, got {bins!r}")
    rel = np.mod(p, period) / period
    idx = np.floor(rel * bins + 1e-9).astype(int) % bins
    return np.bincount(idx, weights=weights, minlength=bins)


def tv_from_uniform(density: np.ndarray) -> float:
    """Total-variation distance between per-bin probabilities and uniform."""
    return 0.5 * float(np.sum(np.abs(density - 1.0 / len(density))))


def modular_distribution(
    psi: WaveFunction, L: float, bins: int = 32, k_max: int = 4
) -> ModularDistribution:
    if not isinstance(bins, numbers.Integral) or bins < 8:
        raise ArgumentError(f"bins must be an integer >= 8, got {bins!r}")
    if not isinstance(k_max, numbers.Integral) or k_max < 0:
        raise ArgumentError(f"k_max must be an integer >= 0, got {k_max!r}")
    g = psi.grid
    period = 2.0 * math.pi * g.hbar / L if L else math.inf
    if not 0.0 < period < math.inf:  # L <= 0, NaN or inf
        raise ArgumentError(f"L = {L} gives no finite positive cell period")
    if period < 4.0 * g.dp:
        raise PeriodUnderResolved(
            f"cell {period:.3g} spans fewer than 4 momentum lattice cells (dp={g.dp:.3g})"
        )
    density = fold_density(g.p, to_momentum(psi).density() * g.dp, period, bins)
    fourier = np.array([translation_expect(psi, L, k) for k in range(1, k_max + 1)])
    return ModularDistribution(L=L, period=period, bins=bins, density=density, fourier=fourier)


def _power(base: np.ndarray, k: int) -> np.ndarray:
    """base**k by repeated multiplication; numpy's ** on floats calls libm pow."""
    out = np.ones_like(base)
    for _ in range(k):
        out *= base
    return out


def weyl_moment(psi: WaveFunction, spec: MomentSpec) -> float:
    """Expectation of the fully symmetrized monomial x^n_x p^m_p.

    Pure powers go through the position/momentum densities. Mixed monomials
    apply the symmetrized operator 2^-n sum_k C(n,k) X^k P^m X^(n-k) in
    factored form (diagonal X powers pointwise, P^m spectrally: one transform
    of the rows x^k psi, each term summed by Parseval), which is the same
    operator the dense matrix engine builds but without the dense product's
    roundoff; the two agree to the engine's noise floor and are cross-checked
    in the test suite.
    """
    g = psi.grid
    if spec.m_p == 0:
        return float(np.sum(psi.position_density() * _power(g.x, spec.n_x)) * g.dx)
    if spec.n_x == 0:
        mom = to_momentum(psi)
        return float(np.sum(mom.density() * _power(g.p, spec.m_p)) * g.dp)
    n = spec.n_x
    p_pow = _power(g.p_raw, spec.m_p)
    rows = np.empty((n + 1, g.n), dtype=complex)  # x^k psi for k = 0..n, by running products
    rows[0] = psi.amps
    for k in range(n):
        np.multiply(g.x, rows[k], out=rows[k + 1])
    F = _fft.fft(rows, axis=-1, overwrite=True)
    acc = 0.0  # P^m is hermitian, so term n - k is the conjugate of term k
    for k in range(n // 2 + 1):
        # Parseval: <x^k psi, P^m x^(n-k) psi> = <F_k, p^m F_(n-k)> / N
        term = math.comb(n, k) * np.vdot(F[k], p_pow * F[n - k]).real * g.dx / g.n
        acc += term if 2 * k == n else 2.0 * term
    return acc / 2.0**n


def eom_residual(
    snapshots: list[WaveFunction],
    V: PotentialSpec,
    L: float,
    dt: float,
    times: np.ndarray | None = None,
) -> np.ndarray:
    """Residual of d/dt <T_L> = (i/hbar) <(V(x) - V(x+L)) T_L> along a trajectory.

    snapshots must share one grid and be uniformly spaced by dt (pass `times`
    to have the spacing verified); dt must be finite and non-zero, and is
    negative for snapshots in reverse time order; L must be a lattice multiple
    so V(x + L) is an exact roll.
    Returns |centered difference - right-hand side| at each interior snapshot.
    """
    if len(snapshots) < 3:
        raise ArgumentError(f"need at least 3 snapshots, got {len(snapshots)}")
    if not (math.isfinite(dt) and dt != 0.0):
        raise ArgumentError(f"dt must be finite and non-zero, got {dt}")
    if times is not None:
        times = np.asarray(times, dtype=float)
        if len(times) != len(snapshots) or not np.allclose(
            np.diff(times), dt, rtol=0.0, atol=1e-12 * max(abs(dt), 1.0)
        ):
            raise NonUniformSampling("snapshot times are not uniformly spaced by dt")
    g = snapshots[0].grid
    if any(wf.grid is not g and wf.grid != g for wf in snapshots):
        raise GridMismatch("snapshots live on different grids")
    m = lattice_steps(g, L) % g.n
    v = V.values(g)
    dv = v - np.roll(v, -m)  # V(x) - V(x + L)

    # each snapshot's two overlaps, as `inner` takes them
    t_vals = np.empty(len(snapshots), dtype=complex)
    rhs = np.empty(len(snapshots), dtype=complex)
    for i, wf in enumerate(snapshots):
        a = wf.amps
        shifted = np.concatenate((a[m:], a[:m]))  # psi(x + L): the index roll `translate` makes
        t_vals[i] = np.vdot(a, shifted) * g.dx
        rhs[i] = np.vdot(a, dv * shifted) * g.dx
    rhs *= 1j / g.hbar
    deriv = (t_vals[2:] - t_vals[:-2]) / (2.0 * dt)
    return np.abs(deriv - rhs[1:-1])


def fringe_peaks(dens: MomentumAmplitudes) -> list[tuple[float, float]]:
    """Local maxima of the momentum density above 10% of the global maximum,
    localized by three-point quadratic interpolation; sorted by p."""
    g = dens.grid
    d = dens.density()
    top = float(np.max(d))
    if top <= 0.0:
        raise NoPeaks("density is identically zero")
    threshold = 0.1 * top
    mid = d[1:-1]
    candidates = np.flatnonzero((mid >= threshold) & (mid > d[:-2]) & (mid >= d[2:])) + 1
    peaks: list[tuple[float, float]] = []
    for j in candidates.tolist():
        denom = d[j - 1] - 2.0 * d[j] + d[j + 1]
        delta = 0.0 if denom == 0.0 else 0.5 * (d[j - 1] - d[j + 1]) / denom
        loc = g.p[j] + delta * g.dp
        height = d[j] - 0.25 * (d[j - 1] - d[j + 1]) * delta
        peaks.append((float(loc), float(height)))
    if not peaks:
        raise NoPeaks("no local maxima above 10% of the global maximum")
    return peaks


def taylor_divergence_demo(psi: WaveFunction, L: float, orders: int = 40) -> np.ndarray:
    """Partial sums sum_{j<=J} (iL/hbar)^j <p^j> / j! for J = 0..orders.

    For two disjoint branches the power series has nothing to do with the
    exact <exp(ipL/hbar)>; for a narrow single packet with small L it
    converges to it. Terms past the representable range are reported via
    DegreeOverflowWarning and the sums truncated there.
    """
    if not isinstance(orders, numbers.Integral) or not 0 <= orders <= 40:
        raise DegreeCap(f"orders must be an integer from 0 to 40, got {orders!r}")
    if not math.isfinite(L):
        raise ArgumentError(f"L must be finite, got {L}")
    g = psi.grid
    weights = to_momentum(psi).density() * g.dp
    sums = []
    total = 0.0 + 0.0j
    coef = 1.0 + 0.0j  # (iL/hbar)^j / j!
    # a running product, not **: numpy's float pow rounds differently under
    # its AVX-512 and AVX2 loops, and the record must not depend on that
    p_j = np.ones_like(g.p)
    for j in range(orders + 1):
        if j > 0:
            coef *= 1j * L / (g.hbar * j)
            p_j *= g.p
        moment = float(np.sum(weights * p_j))
        term = coef * moment
        if not (np.isfinite(term.real) and np.isfinite(term.imag)):
            warnings.warn(
                f"the term (iL/hbar)^{j} <p^{j}> / {j}! exceeds the representable "
                f"range; returning {j} partial sums",
                DegreeOverflowWarning,
                stacklevel=2,
            )
            break
        total += term
        sums.append(total)
    return np.array(sums)
