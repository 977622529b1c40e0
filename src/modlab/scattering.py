"""Exact scattering of a plane wave off an infinitely thin magnetic flux line,
via the partial-wave series in fractional-order Bessel functions:

    psi(r, theta) = sum_n (-i)^|n - alpha| J_|n-alpha|(k r) exp(i n theta),

with (-i)^s = exp(-i pi s / 2) for real s and alpha the enclosed flux in flux
quanta. Acceptance rests on internally verifiable symmetries: integer flux is
pure gauge, |psi| is periodic in alpha with period 1, and reflection maps
alpha -> -alpha, theta -> -theta.

The Bessel evaluator is self-contained: one downward recurrence with
fractional-order normalization (Miller's method) yields a whole order family
frac + j at once, so `bessel_j` and the partial-wave coefficients share it;
below z = 1e-8 the leading series term stands in. The supporting Gamma
function is a Lanczos approximation evaluated in log space so it stays usable
where Gamma itself overflows.
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
    """Gamma(s) off the poles (reflection below 1/2); inf past the float64 range."""
    if s <= 0.0 and s % 1.0 == 0.0:
        raise OutOfEnvelope(f"Gamma has a pole at s={s}")
    if s < 0.5:
        return math.pi / (math.sin(math.pi * s) * gamma(1.0 - s))
    a, t = _lanczos_sum(s - 1.0)
    if (s - 0.5) * math.log(t) - t > 709.0:
        return math.inf
    half = t ** (0.5 * (s - 0.5))  # split power keeps intermediates in range
    return math.sqrt(2.0 * math.pi) * half * math.exp(-t) * half * a


def log_gamma(s: float) -> float:
    """log Gamma(s) for s > 0, accurate over (0, 250] and beyond."""
    if not s > 0.0:
        raise OutOfEnvelope(f"log_gamma needs s > 0, got s={s}")
    if s < 0.5:
        return math.log(math.pi / math.sin(math.pi * s)) - log_gamma(1.0 - s)
    a, t = _lanczos_sum(s - 1.0)
    return 0.5 * math.log(2.0 * math.pi) + (s - 0.5) * math.log(t) - t + math.log(a)


def _miller(frac: float, z: float, top: int) -> np.ndarray:
    """J_(frac+j)(z) for j = 0..top, 0 <= frac < 1, z > 0.

    One downward recurrence from above the turning point yields the whole
    family, normalized by

        (z/2)^frac / Gamma(1 + frac) = sum_k w_k J_(frac+2k)(z),
        w_0 = 1,  w_k = (frac + 2k) Gamma(frac + k) / (k! Gamma(1 + frac))

    (the classic 1 = J_0 + 2 J_2 + 2 J_4 + ... at frac = 0). The weights are
    w_k = c_k (frac + 2k) / (frac + k) with c_k / c_(k-1) = (frac + k) / k.
    Below z = 1e-8 the leading series term (relative error <= z^2/4) replaces
    the recurrence, whose per-step growth 2(frac + j)/z would overflow."""
    if z < 1e-8:
        ratios = 0.5 * z / (frac + np.arange(1, top + 1))  # J_(nu+1) / J_nu
        first = math.exp(frac * math.log(0.5 * z) - log_gamma(1.0 + frac))
        return first * np.cumprod(np.concatenate(([1.0], ratios)))
    start = int(max(frac + top, z)) + 20 + int(2.0 * math.sqrt(52.0 * max(z, 1.0)))
    trial = [0.0] * (start + 2)  # trial[j] is proportional to J_(frac+j)
    trial[start] = 1e-290
    two_over_z = 2.0 / z
    for j in range(start, 0, -1):
        trial[j - 1] = two_over_z * (frac + j) * trial[j] - trial[j + 1]
        if abs(trial[j - 1]) > 1e250:
            trial[j - 1:] = [t * 1e-250 for t in trial[j - 1:]]
    k = np.arange(1, start // 2 + 1)
    c = np.cumprod((frac + k) / k)
    weights = np.concatenate(([1.0], c * (frac + 2 * k) / (frac + k)))
    trial = np.array(trial[:-1])
    scale = (0.5 * z) ** frac / (gamma(1.0 + frac) * float(weights @ trial[0::2]))
    return trial[: top + 1] * scale


def bessel_j(nu: float, z: float) -> float:
    """J_nu(z) for 0 <= nu <= 200, 0 <= z <= 500; absolute error <= 1e-10."""
    if not (0.0 <= nu <= NU_MAX) or not (0.0 <= z <= Z_MAX):
        raise OutOfEnvelope(
            f"supported envelope is 0 <= nu <= {NU_MAX}, 0 <= z <= {Z_MAX}; "
            f"got nu={nu}, z={z}"
        )
    if z == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    top = math.floor(nu)
    return float(_miller(nu - top, z, top)[top])


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
        n_floor = math.ceil(self.k * self.r) + 24
        if self.n_max < n_floor:
            raise ValueError(f"n_max must be >= ceil(k*r) + 24 = {n_floor}")


class PartialWave(NamedTuple):
    value: complex
    tail_bound: float


def _wave_coefficients(flux: FluxParam, cfg: ScatterConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Angular-harmonic coefficients (-i)^|n-alpha| J_|n-alpha|(k r) and the
    truncation tail estimate from the last 4 orders at each end. The orders
    form two families, ceil(alpha) - alpha + (n - ceil(alpha)) for n >= ceil(alpha)
    and alpha - floor(alpha) + (floor(alpha) - n) below; one `_miller` call each."""
    z = cfg.k * cfg.r
    max_order = cfg.n_max + abs(flux.alpha)
    if not (max_order <= NU_MAX) or not (z <= Z_MAX):
        raise OutOfEnvelope(
            f"partial-wave orders up to {max_order:.1f} at k*r={z:.1f} "
            f"leave the Bessel envelope"
        )
    lo, hi = math.floor(flux.alpha), math.ceil(flux.alpha)
    ns = np.arange(-cfg.n_max, cfg.n_max + 1)
    upper = ns >= hi
    radial = np.empty(ns.size)
    radial[upper] = _miller(hi - flux.alpha, z, max(cfg.n_max - hi, 0))[ns[upper] - hi]
    radial[~upper] = _miller(flux.alpha - lo, z, max(cfg.n_max + lo, 0))[lo - ns[~upper]]
    coefs = np.exp(-0.5j * math.pi * np.abs(ns - flux.alpha)) * radial
    tail = float(np.sum(np.abs(radial[:4])) + np.sum(np.abs(radial[-4:])))
    if tail > 1e-8:
        raise TruncationTooSmall(
            f"tail estimate {tail:.3g} exceeds 1e-8; increase n_max"
        )
    return ns, coefs, tail


def _psi(flux: FluxParam, cfg: ScatterConfig, thetas) -> tuple[np.ndarray, float]:
    """psi(r, theta) at each of thetas, and the series tail bound."""
    ns, coefs, tail = _wave_coefficients(flux, cfg)
    thetas = np.asarray(thetas, dtype=float)
    blocks = np.array_split(thetas, thetas.size // 1024 + 1)  # memory O(1024 * n_max)
    values = [np.sum(coefs * np.exp(1j * np.multiply.outer(b, ns)), axis=-1) for b in blocks]
    return np.concatenate(values), tail


def partial_wave_psi(flux: FluxParam, cfg: ScatterConfig, theta: float) -> PartialWave:
    """psi(r, theta) from the truncated partial-wave sum, with its tail bound."""
    values, tail = _psi(flux, cfg, (theta,))
    return PartialWave(value=complex(values[0]), tail_bound=tail)


def scattering_profile(flux: FluxParam, cfg: ScatterConfig) -> list[tuple[float, float]]:
    """|psi(r, theta)|^2 over cfg.thetas; deterministic and order-independent."""
    values, _ = _psi(flux, cfg, cfg.thetas)
    return list(zip(map(float, cfg.thetas), (np.abs(values) ** 2).tolist()))
