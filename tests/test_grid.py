import math
import warnings

import numpy as np
import pytest
import scipy.fft

from modlab import (
    MomentumAmplitudes,
    PacketSpec,
    WaveFunction,
    from_momentum,
    inner,
    make_grid,
    make_packet,
    to_momentum,
    translate,
)
from modlab import _fft
from modlab.errors import ArgumentError, GridMismatch, NonPositiveDomain, NonPowerOfTwo, ZeroState
from modlab.grid import _translate_spectral, circulant

# frozen oracle: 2*pi/128 evaluated in extended precision
PI_OVER_64 = 0.04908738521234051935098


def test_make_grid_basic_lattice():
    g = make_grid(8, 0.0, 8.0, 1.0)
    assert g.dx == 1.0
    assert g.dp == pytest.approx(math.pi / 4.0, abs=1e-16)
    assert np.allclose(g.p, g.dp * np.arange(-4, 4))


def test_make_grid_frozen_dp():
    g = make_grid(256, -64.0, 128.0, 1.0)
    assert g.dx == 0.5
    assert g.dp == pytest.approx(PI_OVER_64, abs=1e-16)


def test_make_grid_rejects_bad_n():
    with pytest.raises(NonPowerOfTwo):
        make_grid(7, 0.0, 8.0)
    with pytest.raises(NonPowerOfTwo):
        make_grid(12, 0.0, 8.0)
    with pytest.raises(NonPowerOfTwo):
        make_grid(4, 0.0, 8.0)


def test_make_grid_accepts_a_numpy_integer_n():
    assert make_grid(np.int64(16), 0.0, 8.0).p.shape == (16,)


def test_make_grid_rejects_bad_domain():
    with pytest.raises(NonPositiveDomain):
        make_grid(8, 0.0, 0.0)
    with pytest.raises(NonPositiveDomain):
        make_grid(8, 0.0, 8.0, hbar=-1.0)


def test_make_grid_rejects_steps_out_of_float_range():
    # dx underflows to 0; dp overflows to inf; dp underflows to 0
    for length, hbar in ((5e-324, 1.0), (1e-300, 1e300), (1e10, 5e-324)):
        with pytest.raises(NonPositiveDomain):
            make_grid(8, 0.0, length, hbar)


def test_grid_derived_quantities_consistent():
    g = make_grid(64, -3.0, 21.0, 0.7)
    assert g.dx * g.n == pytest.approx(g.length, rel=1e-15)
    # momentum lattice symmetric about 0 up to the single Nyquist point
    assert g.p[g.n // 2] == 0.0
    assert np.allclose(g.p[g.n // 2 + 1 :], -g.p[1 : g.n // 2][::-1])


def test_to_momentum_plane_wave():
    # with length = 2*pi*hbar the lattice amplitude of a plane wave is exactly 1
    g = make_grid(64, 0.0, 2.0 * math.pi, 1.0)
    j = 5
    target = g.p[g.n // 2 + j]
    psi = WaveFunction(g, np.exp(1j * target * g.x / g.hbar) / math.sqrt(g.length))
    amps = to_momentum(psi).amps
    assert abs(amps[g.n // 2 + j] - 1.0) < 1e-12
    mask = np.ones(g.n, dtype=bool)
    mask[g.n // 2 + j] = False
    assert np.max(np.abs(amps[mask])) < 1e-12


def test_to_momentum_gaussian_width():
    g = make_grid(1024, -64.0, 128.0, 1.0)
    sigma = 1.0
    psi = make_packet(g, PacketSpec("gaussian", 0.0, sigma))
    mom = to_momentum(psi)
    dens = mom.density()
    sigma_p = math.sqrt(float(np.sum(dens * mom.grid.p**2) * g.dp))
    assert sigma_p == pytest.approx(g.hbar / (2.0 * sigma), rel=0.01)


def test_to_momentum_is_the_explicit_expression():
    g = make_grid(256, -10.0, 40.0, 0.7)
    rng = np.random.default_rng(13)
    psi = WaveFunction(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    expected = (np.fft.fftshift(scipy.fft.fftn(psi.amps)) * np.exp(-1j * g.p * g.x0 / g.hbar)
                * (g.dx / math.sqrt(2.0 * math.pi * g.hbar)))
    assert np.array_equal(to_momentum(psi).amps, expected)
    with pytest.raises(ValueError):
        g.origin_phase[0] = 1.0


def test_to_momentum_is_kept_per_state():
    g = make_grid(256, -10.0, 40.0, 0.7)
    rng = np.random.default_rng(17)
    psi = WaveFunction(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    mom = to_momentum(psi)
    assert to_momentum(psi) is mom
    fresh = to_momentum(WaveFunction(g, psi.amps.copy()))
    assert fresh is not mom
    assert np.array_equal(mom.amps, fresh.amps)
    with pytest.raises(ValueError):
        mom.amps[0] = 1.0


@pytest.mark.parametrize("x0,length,hbar", [
    (-8.0, 16.0, 1.0), (-10.0, 40.0, 0.7), (-10.0, 40.0, 2.0), (-32.0, 64.0, 0.5),
])
def test_from_momentum_is_the_explicit_expression(x0, length, hbar):
    g = make_grid(256, x0, length, hbar)
    rng = np.random.default_rng(17)
    mom = MomentumAmplitudes(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    raw = (np.fft.ifftshift(mom.amps * np.exp(1j * g.p * g.x0 / g.hbar))
           / (g.dx / math.sqrt(2.0 * math.pi * g.hbar)))
    assert np.array_equal(from_momentum(mom).amps, scipy.fft.ifftn(raw))


@pytest.mark.parametrize("shape", [(8, 32), (85, 256)])
@pytest.mark.parametrize("axis", [0, -1])
@pytest.mark.parametrize("overwrite", [False, True])
def test_fft_along_one_axis_matches_scipy(shape, axis, overwrite):
    # the in-place row transforms of the two-particle stepper: axis 0 into
    # sectors, axis -1 at every step
    rng = np.random.default_rng(shape[0])
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert np.array_equal(_fft.fft(a.copy(), axis=axis, overwrite=overwrite),
                          scipy.fft.fft(a.copy(), axis=axis))
    assert np.array_equal(_fft.ifft(a.copy(), axis=axis, overwrite=overwrite),
                          scipy.fft.ifft(a.copy(), axis=axis))


@pytest.mark.parametrize("n", [8, 256, 2048])
def test_fft_of_a_row_matches_the_nd_entry(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.array_equal(_fft.fft(a), scipy.fft.fftn(a))
    assert np.array_equal(_fft.ifft(a), scipy.fft.ifftn(a))
    assert np.array_equal(_fft.fft(a.copy(), overwrite=True), scipy.fft.fftn(a))
    assert np.array_equal(_fft.ifft(a.copy(), overwrite=True), scipy.fft.ifftn(a))
    b = a.reshape(8, -1)  # axis 0, then axis -1: the 2-D transform of translation_expect_two
    assert np.array_equal(_fft.fft(_fft.fft(b, axis=0)), scipy.fft.fftn(b))


def test_momentum_round_trip():
    g = make_grid(256, -10.0, 40.0, 2.0)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    psi = WaveFunction(g, amps / math.sqrt(np.sum(np.abs(amps) ** 2) * g.dx))
    back = from_momentum(to_momentum(psi))
    assert np.max(np.abs(back.amps - psi.amps)) < 1e-13


def test_parseval():
    g = make_grid(512, -32.0, 64.0, 0.5)
    psi = make_packet(g, PacketSpec("gaussian", 1.0, 2.0, p0=0.7))
    mom = to_momentum(psi)
    assert abs(np.sum(mom.density()) * g.dp - 1.0) < 1e-12


def test_momentum_norm_matches_position_norm():
    g = make_grid(256, -32.0, 64.0)
    psi = WaveFunction(g, 3.0 * make_packet(g, PacketSpec("gaussian", 1.0, 2.0, p0=0.5)).amps)
    assert to_momentum(psi).norm() == pytest.approx(psi.norm(), rel=1e-12)


def test_normalize_zero_state_raises():
    g = make_grid(64, -8.0, 16.0)
    with pytest.raises(ZeroState):
        WaveFunction(g, np.zeros(g.n)).normalized()


def test_inner_normalization_and_mismatch():
    g = make_grid(256, -32.0, 64.0)
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 2.0))
    assert inner(psi, psi) == pytest.approx(1.0, abs=1e-13)
    other = make_packet(make_grid(128, -32.0, 64.0), PacketSpec("gaussian", 0.0, 2.5))
    with pytest.raises(GridMismatch):
        inner(psi, other)


def test_inner_disjoint_bumps_exactly_zero():
    g = make_grid(512, -32.0, 64.0)
    a = make_packet(g, PacketSpec("bump", -8.0, 2.0))
    b = make_packet(g, PacketSpec("bump", 8.0, 2.0))
    assert abs(inner(a, b)) <= 1e-15


def test_inner_gaussian_overlap_oracle():
    # analytic overlap of unit gaussians separated by L: exp(-L^2 / (8 sigma^2))
    expected = 3.726653172078671e-06  # exp(-12.5), frozen
    g = make_grid(2048, -64.0, 128.0)
    a = make_packet(g, PacketSpec("gaussian", -5.0, 1.0))
    b = make_packet(g, PacketSpec("gaussian", 5.0, 1.0))
    got = abs(inner(a, b))
    assert expected / 2.0 < got < expected * 2.0


def test_translate_identity_and_full_period():
    g = make_grid(256, -16.0, 32.0)
    psi = make_packet(g, PacketSpec("bump", 0.0, 2.0, p0=1.0))
    assert np.max(np.abs(translate(psi, 0.0).amps - psi.amps)) < 1e-15
    assert np.max(np.abs(translate(psi, g.length).amps - psi.amps)) < 1e-13
    assert np.max(np.abs(_translate_spectral(psi, g.length).amps - psi.amps)) < 1e-13


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 1e308])  # 1e308 / dx overflows
def test_translate_refuses_a_non_finite_shift(a):
    psi = make_packet(make_grid(256, -16.0, 32.0), PacketSpec("bump", 0.0, 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError):
            translate(psi, a)


def test_translate_spectral_matches_index_roll():
    g = make_grid(512, -16.0, 32.0)
    psi = make_packet(g, PacketSpec("bump", 2.0, 1.5))
    m = 48
    rolled = np.roll(psi.amps, -m)  # independent oracle
    spectral = _translate_spectral(psi, m * g.dx).amps
    assert np.max(np.abs(spectral - rolled)) < 1e-13


def test_translate_moves_expectation_backwards():
    # e^{ipa/hbar} psi(x) = psi(x + a): a > 0 moves <x> by -a
    g = make_grid(512, -32.0, 64.0)
    psi = make_packet(g, PacketSpec("gaussian", 3.0, 1.5))
    a = 4.7
    shifted = translate(psi, a)
    x_mean = float(np.sum(shifted.position_density() * g.x) * g.dx)
    assert x_mean == pytest.approx(3.0 - a, abs=1e-9)


def test_translate_composition_and_unitarity():
    g = make_grid(256, -16.0, 32.0)
    psi = make_packet(g, PacketSpec("gaussian", -1.0, 1.0, p0=0.5))
    a, b = 1.3, -2.451
    once = translate(translate(psi, a), b)
    direct = translate(psi, a + b)
    assert np.max(np.abs(once.amps - direct.amps)) < 1e-12
    assert abs(once.norm() - 1.0) < 1e-12
    assert abs(to_momentum(psi).grid.dp * np.sum(to_momentum(psi).density()) - 1) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 7, 8])
@pytest.mark.parametrize("shift", [-2, 0, 1, 3, 9])
def test_circulant_is_the_index_gather(n, shift):
    c = np.arange(n) + 1j * np.arange(n, 2 * n)
    a = np.arange(n)
    m = circulant(c, shift)
    assert np.array_equal(m, c[(a[:, None] - a[None, :] - shift) % n])
    assert m.flags.writeable and m.flags.c_contiguous
