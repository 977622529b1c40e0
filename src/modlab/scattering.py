"""Exact scattering of a plane wave off an infinitely thin magnetic flux line,
via the partial-wave series in fractional-order Bessel functions:

    psi(r, theta) = sum_n (-i)^|n - alpha| J_|n-alpha|(k r) exp(i n theta),

with (-i)^s = exp(-i pi s / 2) for real s and alpha the enclosed flux in flux
quanta. Acceptance rests on internally verifiable symmetries: integer flux is
pure gauge, |psi| is periodic in alpha with period 1, and reflection maps
alpha -> -alpha, theta -> -theta.

The Bessel evaluator is self-contained: an ascending power series accumulated
in extended precision at small argument, and downward recurrence with
fractional-order normalization (Miller's method) at large argument. The
supporting Gamma function is a Lanczos approximation evaluated in log space so
it stays usable where Gamma itself overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import OutOfEnvelope, TruncationTooSmall

NU_MAX = 200.0
Z_MAX = 500.0
_SERIES_Z_MAX = 15.0  # ascending series below, Miller recurrence above

# Lanczos g=7, 9-term coefficients (Godfrey); relative error ~1e-14
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_sum(s: float) -> tuple[float, float]:
    a = _LANCZOS[0]
    for i in range(1, 9):
        a += _LANCZOS[i] / (s + i)
    return a, s + _LANCZOS_G + 0.5


def gamma(s: float) -> float:
    """Gamma(s) for s > 0 (reflection below 1/2); inf past the float64 range."""
    if s < 0.5:
        return math.pi / (math.sin(math.pi * s) * gamma(1.0 - s))
    a, t = _lanczos_sum(s - 1.0)
    if (s - 0.5) * math.log(t) - t > 709.0:
        return math.inf
    half = t ** (0.5 * (s - 0.5))  # split power keeps intermediates in range
    return math.sqrt(2.0 * math.pi) * half * math.exp(-t) * half * a


def log_gamma(s: float) -> float:
    """log Gamma(s), accurate over (0, 250] and beyond."""
    if s < 0.5:
        return math.log(math.pi / math.sin(math.pi * s)) - log_gamma(1.0 - s)
    a, t = _lanczos_sum(s - 1.0)
    return 0.5 * math.log(2.0 * math.pi) + (s - 0.5) * math.log(t) - t + math.log(a)


def _series_j(nu: float, z: float) -> float:
    """Ascending series sum_k (-1)^k (z/2)^(nu+2k) / (k! Gamma(nu+k+1)).

    Accumulated in long double so the alternating-term cancellation near the
    series/recurrence boundary stays below the 1e-10 envelope."""
    if z == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    log_t0 = nu * math.log(0.5 * z) - log_gamma(nu + 1.0)
    if log_t0 < -745.0:
        return 0.0
    term = np.longdouble(math.exp(log_t0))
    q = np.longdouble(z) * np.longdouble(z) / 4.0
    total = term
    for k in range(1, 400):
        term = -term * q / (np.longdouble(k) * np.longdouble(nu + k))
        total += term
        if abs(term) < 1e-25 * max(abs(total), np.longdouble(1e-30)) and k > z:
            break
    return float(total)


def _miller_j(nu: float, z: float) -> float:
    """Downward recurrence from above the turning point, normalized by

        (z/2)^nu = sum_k (nu + 2k) Gamma(nu + k) / k! J_(nu+2k)(z)

    (the classic 1 = J_0 + 2 J_2 + 2 J_4 + ... when nu is an integer)."""
    frac = nu - math.floor(nu)
    target_j = int(math.floor(nu))
    start = int(max(nu, z)) + 20 + int(2.0 * math.sqrt(52.0 * max(z, 1.0)))
    prev = 0.0  # J at order frac + start + 1 (trial)
    curr = 1e-290
    target = None
    acc = 0.0
    for j in range(start, -1, -1):
        mu = frac + j + 1.0
        prev, curr = curr, (2.0 * mu / z) * curr - prev
        # curr is the trial value at order frac + j
        if j == target_j:
            target = curr
        if j % 2 == 0:
            k = j // 2
            if frac == 0.0:
                coef = 1.0 if k == 0 else 2.0
            else:
                coef = (frac + 2 * k) * math.exp(log_gamma(frac + k) - log_gamma(k + 1.0))
            acc += coef * curr
        if abs(curr) > 1e250:
            prev /= 1e250
            curr /= 1e250
            acc /= 1e250
            if target is not None:
                target /= 1e250
    scale = 1.0 if frac == 0.0 else (0.5 * z) ** frac
    return target * scale / acc


def bessel_j(nu: float, z: float) -> float:
    """J_nu(z) for 0 <= nu <= 200, 0 <= z <= 500; absolute error <= 1e-10."""
    if not (0.0 <= nu <= NU_MAX) or not (0.0 <= z <= Z_MAX):
        raise OutOfEnvelope(
            f"supported envelope is 0 <= nu <= {NU_MAX}, 0 <= z <= {Z_MAX}; "
            f"got nu={nu}, z={z}"
        )
    if z <= _SERIES_Z_MAX:
        return _series_j(nu, z)
    return _miller_j(nu, z)


@dataclass(frozen=True)
class FluxParam:
    """Enclosed flux in flux quanta; only the fractional part affects |psi|."""

    alpha: float

    @cached_property
    def reduced(self) -> float:
        return self.alpha % 1.0


@dataclass(frozen=True)
class ScatterConfig:
    k: float
    r: float
    thetas: tuple[float, ...]
    n_max: int

    def __post_init__(self):
        if not (self.k > 0.0) or not (self.r > 0.0):
            raise ValueError(f"need k > 0 and r > 0, got k={self.k} r={self.r}")
        if self.n_max < math.ceil(self.k * self.r) + 24:
            raise ValueError(
                f"n_max must be >= ceil(k*r) + 24 = {math.ceil(self.k * self.r) + 24}"
            )


class PartialWave(NamedTuple):
    value: complex
    tail_bound: float


def _wave_coefficients(flux: FluxParam, cfg: ScatterConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Angular-harmonic coefficients (-i)^|n-alpha| J_|n-alpha|(k r) and the
    truncation tail estimate from the last 4 orders at each end."""
    z = cfg.k * cfg.r
    ns = np.arange(-cfg.n_max, cfg.n_max + 1)
    orders = np.abs(ns - flux.alpha)
    if float(np.max(orders)) > NU_MAX or z > Z_MAX:
        raise OutOfEnvelope(
            f"partial-wave orders up to {float(np.max(orders)):.1f} at k*r={z:.1f} "
            f"leave the Bessel envelope"
        )
    radial = np.array([bessel_j(float(s), z) for s in orders])
    coefs = np.exp(-0.5j * math.pi * orders) * radial
    tail = float(np.sum(np.abs(radial[:4])) + np.sum(np.abs(radial[-4:])))
    if tail > 1e-8:
        raise TruncationTooSmall(
            f"tail estimate {tail:.3g} exceeds 1e-8; increase n_max"
        )
    return ns, coefs, tail


def partial_wave_psi(flux: FluxParam, cfg: ScatterConfig, theta: float) -> PartialWave:
    """psi(r, theta) from the truncated partial-wave sum, with its tail bound."""
    ns, coefs, tail = _wave_coefficients(flux, cfg)
    value = complex(np.sum(coefs * np.exp(1j * ns * theta)))
    return PartialWave(value=value, tail_bound=tail)


def _profile(flux: FluxParam, cfg: ScatterConfig) -> tuple[list[tuple[float, float]], float]:
    """(theta, |psi(r, theta)|^2) over cfg.thetas, and the series tail bound."""
    ns, coefs, tail = _wave_coefficients(flux, cfg)
    out = []
    for theta in cfg.thetas:
        value = complex(np.sum(coefs * np.exp(1j * ns * theta)))
        out.append((float(theta), abs(value) ** 2))
    return out, tail


def scattering_profile(flux: FluxParam, cfg: ScatterConfig) -> list[tuple[float, float]]:
    """|psi(r, theta)|^2 over cfg.thetas; deterministic and order-independent."""
    return _profile(flux, cfg)[0]
