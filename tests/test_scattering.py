import cmath
import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import erf, jv

from modlab import (
    FluxParam,
    ScatterConfig,
    bessel_j,
    gamma,
    log_gamma,
    partial_wave_psi,
    scattering_profile,
)
from modlab.errors import ArgumentError, OutOfEnvelope, TruncationTooSmall
from modlab.scattering import _psi, _wave_coefficients

# oracle values frozen from an extended-precision evaluation (40 digits)
J_ONE_THIRD_AT_2 = 0.4429398181485762122504
J_HALF_AT_PI_HALF = 0.6366197723675813430755  # = 2/pi
MILLER_ORACLES = [
    (2.5, 7.7, -0.2869407674251936258813),
    (0.0, 10.0, -0.2459357644513483351978),
    (0.75, 25.0, -0.0791889738801806566301),
    (10.5, 400.0, 0.03650518806158981541125),
    (150.25, 180.0, -0.0226983309999267376238),
]


# --- gamma -------------------------------------------------------------------

def test_gamma_half_is_sqrt_pi():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), abs=1e-14)


def test_gamma_recurrence():
    for s in np.linspace(0.05, 170.0, 257):
        s = float(s)
        assert gamma(s + 1.0) == pytest.approx(s * gamma(s), rel=1e-12)


def test_gamma_small_integers():
    for n, expected in ((1, 1.0), (2, 1.0), (3, 2.0), (5, 24.0), (7, 720.0)):
        assert gamma(float(n)) == pytest.approx(expected, rel=1e-13)


def test_gamma_overflows_to_inf():
    assert gamma(250.0) == math.inf
    assert gamma(math.inf) == math.inf


def test_gamma_raises_at_poles():
    for s in (0.0, -1.0, -2.0, -7.0, -math.inf, math.nan):
        with pytest.raises(OutOfEnvelope):
            gamma(s)
    assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


def test_log_gamma_rejects_non_positive():
    for s in (0.0, -0.5, -3.0, math.nan):
        with pytest.raises(OutOfEnvelope):
            log_gamma(s)


def test_log_gamma_against_stdlib():
    for s in np.linspace(0.01, 250.0, 499):
        s = float(s)
        assert log_gamma(s) == pytest.approx(math.lgamma(s), rel=1e-12, abs=1e-12)


# --- bessel_j ------------------------------------------------------------------

def test_bessel_at_zero_argument():
    assert bessel_j(0.0, 0.0) == 1.0
    for nu in (0.5, 1.0, 3.25, 120.0):
        assert bessel_j(nu, 0.0) == 0.0


def test_bessel_half_order_closed_form():
    # J_{1/2}(z) = sqrt(2/(pi z)) sin z, from small argument to the envelope edge
    assert bessel_j(0.5, math.pi / 2.0) == pytest.approx(J_HALF_AT_PI_HALF, abs=1e-12)
    for z in (0.5, 2.0, 7.5, 14.9, 16.0, 25.0, 120.0, 480.0):
        expected = math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
        assert bessel_j(0.5, z) == pytest.approx(expected, abs=1e-12)


def test_bessel_fractional_series_oracle():
    assert bessel_j(1.0 / 3.0, 2.0) == pytest.approx(J_ONE_THIRD_AT_2, abs=1e-10)


def test_bessel_miller_regime_oracles():
    for nu, z, expected in MILLER_ORACLES:
        assert bessel_j(nu, z) == pytest.approx(expected, abs=1e-10)


def test_bessel_three_term_recurrence():
    for nu in (1.2, 1.5, 10.25, 40.5, 120.75, 199.0):
        for z in (0.5, 3.0, 15.0, 40.0, 200.0, 500.0):
            lhs = bessel_j(nu - 1.0, z) + bessel_j(nu + 1.0, z)
            rhs = (2.0 * nu / z) * bessel_j(nu, z)
            assert abs(lhs - rhs) < 1e-9


def test_bessel_envelope_sweep_against_scipy_and_mpmath():
    rng = np.random.default_rng(20261018)
    points = [(float(nu), float(z)) for nu, z in
              zip(rng.uniform(0.0, 200.0, 1200), rng.uniform(0.0, 500.0, 1200))]
    points += [(float(nu), float(z)) for nu, z in
               zip(rng.uniform(0.0, 200.0, 300), 10.0 ** rng.uniform(-12.0, 1.5, 300))]
    # exact zero, the smallest subnormal (z/2 rounds to 0), tiny arguments
    # either side of the leading-term threshold, the former series/recurrence
    # switch at z = 15, and the envelope corners
    edges = (0.0, 5e-324, 1e-300, 1e-60, 0.99e-8, 1e-8, 1.01e-8, 14.99, 15.0, 15.01, 500.0)
    points += [(nu, z) for nu in (0.0, 0.37, 1.0, 2.5, 99.99, 200.0) for z in edges]
    values = np.array([bessel_j(nu, z) for nu, z in points])
    nus, zs = np.array(points).T
    assert np.max(np.abs(values - jv(nus, zs))) <= 1e-10
    for i in rng.choice(len(points), 40, replace=False):
        exact = float(mpmath.besselj(mpmath.mpf(nus[i]), mpmath.mpf(zs[i])))
        assert abs(values[i] - exact) <= 1e-10


def test_bessel_envelope():
    with pytest.raises(OutOfEnvelope):
        bessel_j(-0.5, 1.0)
    with pytest.raises(OutOfEnvelope):
        bessel_j(201.0, 1.0)
    with pytest.raises(OutOfEnvelope):
        bessel_j(1.0, 501.0)


# --- partial waves ---------------------------------------------------------------

def config(k=1.0, r=10.0, n_max=40, thetas=()):
    return ScatterConfig(k=k, r=r, thetas=tuple(thetas), n_max=n_max)


def test_config_truncation_floor():
    with pytest.raises(ValueError):
        ScatterConfig(k=1.0, r=10.0, thetas=(), n_max=30)


def test_zero_flux_is_plane_wave():
    cfg = config()
    for theta in np.linspace(-math.pi, math.pi, 9):
        value, _ = partial_wave_psi(FluxParam(0.0), cfg, float(theta))
        assert abs(abs(value) - 1.0) < 1e-8
        # the resummed series is exp(-i k r cos(theta))
        assert abs(value - cmath.exp(-1j * 10.0 * math.cos(theta))) < 1e-8


def test_integer_flux_is_pure_gauge():
    cfg = config(n_max=44)
    for alpha in (1.0, 2.0):
        for theta in np.linspace(-math.pi, math.pi, 7):
            value, _ = partial_wave_psi(FluxParam(alpha), cfg, float(theta))
            assert abs(abs(value) - 1.0) < 1e-8


def test_flux_periodicity_of_modulus():
    cfg = config(n_max=44)
    for theta in (0.3, 1.2, -2.0):
        a = partial_wave_psi(FluxParam(0.3), cfg, theta).value
        b = partial_wave_psi(FluxParam(1.3), cfg, theta).value
        assert abs(abs(a) - abs(b)) < 1e-9


def test_reflection_symmetry():
    cfg = config(n_max=44)
    for alpha, theta in ((0.5, math.pi / 3.0), (0.27, 1.1), (0.8, -0.4)):
        a = partial_wave_psi(FluxParam(alpha), cfg, theta).value
        b = partial_wave_psi(FluxParam(-alpha), cfg, -theta).value
        assert abs(abs(a) - abs(b)) < 1e-9


def test_half_flux_reflection_pairing():
    # |psi_alpha(r, theta)| = |psi_(1-alpha)(r, -theta)| via period 1 + reflection
    cfg = config(n_max=44)
    alpha, theta = 0.5, math.pi / 3.0
    a = partial_wave_psi(FluxParam(alpha), cfg, theta).value
    b = partial_wave_psi(FluxParam(1.0 - alpha), cfg, -theta).value
    assert abs(abs(a) - abs(b)) < 1e-9


def test_wave_coefficients_match_scipy():
    # the two order families |n - alpha| map back onto the right harmonics n
    for kr in (10.0, 100.0):
        for alpha in (0.0, 0.37, 1.0, -0.25, 2.5, 7.0):
            cfg = config(r=kr, n_max=math.ceil(kr) + 50)
            ns, coefs, _ = _wave_coefficients(FluxParam(alpha), cfg)
            orders = np.abs(ns - alpha)
            expected = jv(orders, kr) * np.exp(-0.5j * math.pi * orders)
            assert np.max(np.abs(coefs - expected)) <= 1e-12


@pytest.mark.parametrize("kr", [0.3, 10.0, 40.0, 100.0, 150.0])
def test_half_flux_series_meets_closed_form(kr):
    # at alpha = 1/2 the series sums to
    # e^{i theta/2} e^{-i kr cos theta} erf(e^{-i pi/4} sqrt(2 kr) cos(theta/2))
    # (Aharonov & Bohm 1959); with the experiment's default n_max the error
    # stays under the tail estimate, plus roundoff, which dominates at kr <= 40
    thetas = -math.pi + 2.0 * math.pi * np.arange(64) / 64
    cfg = ScatterConfig(k=1.0, r=kr, thetas=tuple(thetas), n_max=math.ceil(kr) + 40)
    values, tail = _psi(FluxParam(0.5), cfg, thetas)
    closed = (np.exp(0.5j * thetas - 1j * kr * np.cos(thetas))
              * erf(np.exp(-0.25j * math.pi) * math.sqrt(2.0 * kr) * np.cos(thetas / 2.0)))
    assert np.max(np.abs(values - closed)) <= tail + 1e-12


@functools.lru_cache(maxsize=None)
def _mp_coefficient(order, kr):
    """(-i)^order J_order(kr) at 30 digits, from the defining series
    J_nu(z) = (z/2)^nu / Gamma(nu + 1) 0F1(; nu + 1; -z^2/4). `mpmath.besselj`
    sums the same series (they agree to 1e-31 here), but only after trying an
    asymptotic expansion that costs about as much again at kr = 100."""
    with mpmath.workdps(30):
        z = mpmath.mpf(kr)
        bessel = ((z / 2) ** order / mpmath.gamma(order + 1)
                  * mpmath.hyp0f1(order + 1, -z * z / 4, force_series=True))
        return complex(mpmath.expj(-0.5 * mpmath.pi * order) * bessel)


def _mpmath_psi(alpha, kr, thetas):
    """The partial-wave sum straight from its definition over the window
    floor(alpha) +- (ceil(kr) + 50), 10 orders past the default n_max. Each
    distinct order is evaluated once for all angles and all tests: the orders
    are exact at 30 digits, so alpha = 0.37 and -0.63 share theirs."""
    ns = np.arange(-math.ceil(kr) - 50, math.ceil(kr) + 51) + math.floor(alpha)
    with mpmath.workdps(30):
        orders = [abs(mpmath.mpf(int(n)) - mpmath.mpf(alpha)) for n in ns]
    coefs = np.array([_mp_coefficient(order, kr) for order in orders])
    return np.exp(1j * np.multiply.outer(thetas, ns)) @ coefs


@pytest.mark.parametrize("kr", [10.0, 100.0, 150.0])
@pytest.mark.parametrize("alpha", [0.37, 2.91, -0.63])
def test_series_meets_mpmath_at_general_flux(alpha, kr):
    # with the experiment's default n_max the error stays under the tail
    # estimate plus roundoff, whatever the integer part of alpha
    thetas = -math.pi + 2.0 * math.pi * np.arange(16) / 16
    cfg = ScatterConfig(k=1.0, r=kr, thetas=tuple(thetas), n_max=math.ceil(kr) + 40)
    values, tail = _psi(FluxParam(alpha), cfg, thetas)
    assert np.max(np.abs(values - _mpmath_psi(alpha, kr, thetas))) <= tail + 1e-12


def test_flux_period_one_holds_to_roundoff():
    thetas = -math.pi + 2.0 * math.pi * np.arange(64) / 64
    cfg = ScatterConfig(k=1.0, r=100.0, thetas=tuple(thetas), n_max=140)
    base = np.abs(_psi(FluxParam(0.37), cfg, thetas)[0]) ** 2
    for m in (-3, 1, 3):
        shifted = np.abs(_psi(FluxParam(0.37 + m), cfg, thetas)[0]) ** 2
        assert np.max(np.abs(shifted - base)) <= 1e-13


def test_wave_coefficients_envelope_rejects_non_finite_flux():
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfEnvelope):
            _wave_coefficients(FluxParam(alpha), config())


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_is_an_argument_error(theta):
    with pytest.raises(ArgumentError):
        partial_wave_psi(FluxParam(0.5), config(), theta)
    with pytest.raises(ArgumentError):
        scattering_profile(FluxParam(0.5), config(thetas=(0.0, theta)))


def test_flux_beyond_n_max_sums_at_the_reduced_flux():
    # the series runs at alpha mod 1 whatever alpha is, so a flux past n_max
    # keeps both order families
    cfg = config(n_max=50)
    for theta in np.linspace(-math.pi, math.pi, 7):
        theta = float(theta)
        gauge = partial_wave_psi(FluxParam(60.0), cfg, theta).value
        assert abs(abs(gauge) - 1.0) < 1e-8
        half = partial_wave_psi(FluxParam(0.5), cfg, theta).value
        shifted = partial_wave_psi(FluxParam(-60.5), cfg, theta).value
        assert abs(abs(shifted) - abs(half)) < 1e-12


def test_flux_past_the_gauge_phase_range_is_out_of_envelope():
    # harmonics shifted by floor(alpha) keep their phases to ~1e-16 |alpha|
    # only up to 2**16 flux quanta
    flux, thetas = FluxParam(2.0**16 + 0.37), (0.3, -2.0)
    far, _ = _psi(flux, config(), thetas)
    near, _ = _psi(FluxParam(flux.reduced), config(), thetas)
    assert np.max(np.abs(np.abs(far) - np.abs(near))) < 1e-10
    for alpha in (2.0**16 + 1.0, -2.0**16 - 0.5, 1e19, -1e300):
        with pytest.raises(OutOfEnvelope):
            _wave_coefficients(FluxParam(alpha), config())


def test_truncation_convergence():
    flux = FluxParam(0.37)
    theta = 0.9
    small = partial_wave_psi(flux, config(n_max=40), theta)
    large = partial_wave_psi(flux, config(n_max=80), theta)
    assert abs(small.value - large.value) <= small.tail_bound + 1e-12


def test_truncation_guard_fires():
    cfg = ScatterConfig(k=10.0, r=10.0, thetas=(), n_max=124)  # margin 24 at k*r = 100
    with pytest.raises(TruncationTooSmall):
        partial_wave_psi(FluxParam(0.5), cfg, 0.0)


def test_profile_flat_at_zero_flux():
    thetas = np.linspace(-math.pi, math.pi, 32, endpoint=False)
    prof = scattering_profile(FluxParam(0.0), config(thetas=thetas))
    for _, intensity in prof:
        assert abs(intensity - 1.0) < 1e-8


def test_profile_half_flux_maximal_deviation():
    thetas = np.linspace(-math.pi, math.pi, 64, endpoint=False)
    cfg = config(n_max=44, thetas=thetas)

    def deviation(alpha):
        prof = scattering_profile(FluxParam(alpha), cfg)
        return max(abs(v - 1.0) for _, v in prof)

    devs = {a: deviation(a) for a in np.arange(0.0, 1.0, 0.1)}
    assert max(devs, key=devs.get) == pytest.approx(0.5)
    assert devs[0.0] < 1e-8


def test_profile_flux_periodicity_by_three():
    thetas = np.linspace(-math.pi, math.pi, 16, endpoint=False)
    cfg = config(n_max=48, thetas=thetas)
    a = scattering_profile(FluxParam(0.4), cfg)
    b = scattering_profile(FluxParam(3.4), cfg)
    for (_, ia), (_, ib) in zip(a, b):
        assert abs(ia - ib) < 1e-9


def test_reduced_flux():
    assert FluxParam(3.4).reduced == pytest.approx(0.4)
    assert FluxParam(-0.25).reduced == pytest.approx(0.75)
    assert 0.0 <= FluxParam(-7.0).reduced < 1.0
    assert FluxParam(-1e-20).reduced == 0.0
