"""Exact scattering of a plane wave off an infinitely thin magnetic flux line,
via the partial-wave series in fractional-order Bessel functions:

    psi(r, theta) = sum_n (-i)^|n - alpha| J_|n-alpha|(k r) exp(i n theta),

with (-i)^s = exp(-i pi s / 2) for real s and alpha the enclosed flux in flux
quanta. Integer flux is pure gauge, psi_(alpha+m) = exp(i m theta) psi_alpha,
so the series is summed once at the reduced flux alpha mod 1 and its
harmonics are shifted by m: |psi| has period 1 in alpha by construction, up
to the rounding of the phases. The independent checks are the reflection
alpha -> -alpha, theta -> -theta, the closed form at alpha = 1/2 and an mpmath
sum at general alpha (the tests).

The Bessel evaluator is self-contained: one downward recurrence with
fractional-order normalization (Miller's method) yields a whole order family
frac + j at once, so `bessel_j` and the partial-wave coefficients share it;
below z = 1e-8 the leading series term stands in. Gamma comes from the
standard library.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, OutOfEnvelope, TruncationTooSmall

NU_MAX = 200.0
Z_MAX = 500.0


def gamma(s: float) -> float:
    """Gamma(s) off the poles and NaN; +-inf past the float64 range."""
    if math.isnan(s):
        raise OutOfEnvelope("Gamma is undefined at s=nan")
    try:
        return math.gamma(s)
    except ValueError:  # the stdlib's poles: s = 0, -1, -2, ... and -inf
        raise OutOfEnvelope(f"Gamma has a pole at s={s}") from None
    except OverflowError:
        return math.copysign(math.inf, s)


def log_gamma(s: float) -> float:
    """log Gamma(s) for s > 0."""
    if not s > 0.0:
        raise OutOfEnvelope(f"log_gamma needs s > 0, got s={s}")
    return math.lgamma(s)


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
        first = (0.5 * z) ** frac / gamma(1.0 + frac)
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
    top = math.floor(nu)
    return float(_miller(nu - top, z, top)[top])


@dataclass(frozen=True)
class FluxParam:
    """Enclosed flux in flux quanta; only the fractional part affects |psi|."""

    alpha: float

    @cached_property
    def reduced(self) -> float:
        """alpha mod 1 in [0, 1); a tiny negative alpha, whose float mod
        rounds up to 1.0, reduces to 0.0."""
        b = self.alpha % 1.0
        return 0.0 if b == 1.0 else b


def _checked_kr(k: float, r: float) -> float:
    """k*r; ArgumentError unless k > 0 and r > 0 and their product neither
    overflows to inf nor underflows to 0."""
    if not (k > 0.0 and r > 0.0 and 0.0 < k * r < math.inf):
        raise ArgumentError(f"need k > 0, r > 0 and 0 < k*r < inf, got k={k} r={r}")
    return k * r


@dataclass(frozen=True)
class ScatterConfig:
    k: float
    r: float
    thetas: tuple[float, ...]
    n_max: int

    def __post_init__(self):
        n_floor = math.ceil(_checked_kr(self.k, self.r)) + 24
        if not isinstance(self.n_max, numbers.Integral) or self.n_max < n_floor:
            raise ArgumentError(
                f"n_max must be an integer >= ceil(k*r) + 24 = {n_floor}, got {self.n_max!r}")


class PartialWave(NamedTuple):
    value: complex
    tail_bound: float


def _wave_coefficients(flux: FluxParam, cfg: ScatterConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Angular harmonics n, their coefficients (-i)^|n-alpha| J_|n-alpha|(k r),
    and the truncation tail estimate from the last 4 orders at each end. The
    series runs at the reduced flux b over n - m = -n_max..n_max, m = floor(alpha);
    its orders form two families, b + j below n = m + ceil(b) and ceil(b) - b + j
    from there, one `_miller` call each."""
    b = flux.reduced
    z = cfg.k * cfg.r
    max_order = cfg.n_max + b
    if not (max_order <= NU_MAX) or not (z <= Z_MAX):
        raise OutOfEnvelope(
            f"partial-wave orders up to {max_order:.1f} at k*r={z:.1f} "
            f"leave the Bessel envelope"
        )
    m = round(flux.alpha - b)
    if abs(m) > 2**16:  # the phases (n + m) theta round to ~1e-16 |m| each
        raise OutOfEnvelope(f"alpha={flux.alpha}: |floor(alpha)| exceeds 2**16 flux quanta")
    hi = math.ceil(b)
    ns = np.arange(-cfg.n_max, cfg.n_max + 1)
    upper = ns >= hi
    radial = np.empty(ns.size)
    radial[upper] = _miller(hi - b, z, cfg.n_max - hi)[ns[upper] - hi]
    radial[~upper] = _miller(b, z, cfg.n_max)[-ns[~upper]]
    coefs = np.exp(-0.5j * math.pi * np.abs(ns - b)) * radial
    tail = float(np.sum(np.abs(radial[:4])) + np.sum(np.abs(radial[-4:])))
    if tail > 1e-8:
        raise TruncationTooSmall(
            f"tail estimate {tail:.3g} exceeds 1e-8; increase n_max"
        )
    return ns + m, coefs, tail


def _psi(flux: FluxParam, cfg: ScatterConfig, thetas) -> tuple[np.ndarray, float]:
    """psi(r, theta) at each of thetas, and the series tail bound."""
    thetas = np.asarray(thetas, dtype=float)
    if not np.all(np.isfinite(thetas)):
        raise ArgumentError("every theta must be finite")
    ns, coefs, tail = _wave_coefficients(flux, cfg)
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
