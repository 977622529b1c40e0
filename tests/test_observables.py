import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from modlab import (
    MomentSpec,
    MomentumAmplitudes,
    PacketSpec,
    PotentialSpec,
    PropagatorConfig,
    WaveFunction,
    eom_residual,
    fringe_peaks,
    inner,
    make_grid,
    make_packet,
    make_two_slit,
    modular_distribution,
    propagate,
    taylor_divergence_demo,
    to_momentum,
    translate,
    translation_expect,
    tv_from_uniform,
    weyl_moment,
)
from modlab import _fft, observables
from modlab.errors import (
    ArgumentError,
    DegreeCap,
    DegreeOverflowWarning,
    GridMismatch,
    InternalInconsistency,
    NonUniformSampling,
    NoPeaks,
    OffLatticeL,
    PeriodUnderResolved,
)


def grid_for_bumps(n=2048, length=128.0):
    return make_grid(n, -length / 2.0, length)


def two_bumps(g, L=8.0, width=1.5, alpha=0.0):
    return make_two_slit(g, L, PacketSpec("bump", -L / 2.0, width), alpha)


# --- translation_expect -----------------------------------------------------

def test_translation_expect_two_branch_values():
    g = grid_for_bumps()
    assert translation_expect(two_bumps(g, alpha=0.0), 8.0) == pytest.approx(0.5, abs=1e-10)
    assert translation_expect(two_bumps(g, alpha=math.pi), 8.0) == pytest.approx(-0.5, abs=1e-10)


def test_translation_expect_phase_regression():
    # frozen sign convention: arg <e^{ipL/hbar}> = +alpha for the branch at +L
    g = grid_for_bumps()
    for alpha in (0.3, 1.7, -0.9):
        c1 = translation_expect(two_bumps(g, alpha=alpha), 8.0)
        assert abs(c1) == pytest.approx(0.5, abs=1e-10)
        assert math.atan2(c1.imag, c1.real) == pytest.approx(alpha, abs=1e-10)


def test_translation_expect_cross_check_scales_with_norm():
    # ||psi||^2 = 1e6: the two routes differ by ~1e-10 absolute, ~1e-16 relative
    g = make_grid(2048, -64.0, 128.0)
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 2.0, p0=1.0))
    big = WaveFunction(g, psi.amps * 1e3)
    for L in (0.3, 1.0, 3.0):
        assert translation_expect(big, L) == pytest.approx(1e6 * translation_expect(psi, L),
                                                           rel=1e-12)


def test_translation_expect_localized_state_vanishes():
    g = grid_for_bumps()
    psi = make_packet(g, PacketSpec("bump", 0.0, 2.0))
    for k in (1, 2, 3, 4):
        assert abs(translation_expect(psi, 8.0, k)) < 1e-13


def test_translation_expect_rejects_bad_k():
    g = grid_for_bumps()
    with pytest.raises(ValueError):
        translation_expect(two_bumps(g), 8.0, k=0)


def test_translation_expect_off_lattice_shift():
    # spectral path must agree with the overlap form off-lattice too
    # (the cross-check inside the call raises on disagreement)
    g = grid_for_bumps()
    psi = make_two_slit(g, 8.0, PacketSpec("gaussian", -4.0, 1.0), 0.5)
    val = translation_expect(psi, 8.0 + 0.3 * g.dx)
    assert abs(val) <= 1.0 + 1e-12


def test_translation_expect_refuses_routes_that_disagree(monkeypatch):
    # an overlap route that shifts one lattice step too far must not pass
    # the cross-check against the spectral route
    g = make_grid(2048, -64.0, 128.0)
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 2.0, p0=1.0))
    monkeypatch.setattr(observables, "translate", lambda psi, a: translate(psi, a + g.dx))
    with pytest.raises(InternalInconsistency):
        translation_expect(psi, 1.0)


@pytest.mark.parametrize("scale, gap, refused", [
    (1.0, 1.5, True),  # the tolerance is 1e-11 at unit norm
    (3.0, 0.8, False),  # 1e-11 ||psi||^2 = 9e-11
    (0.5, 0.8, False),  # never below 1e-11
])
def test_translation_expect_tolerance_is_norm_squared(monkeypatch, scale, gap, refused):
    # a spectral route stretched to sit `gap` tolerances 1e-11 max(1, ||psi||^2)
    # from the overlap route is refused only past one tolerance
    g = make_grid(512, -32.0, 64.0)
    psi = WaveFunction(g, scale * make_packet(g, PacketSpec("gaussian", 0.0, 2.0, p0=1.0)).amps)
    exact = translation_expect(psi, 1.0)
    stretch = math.sqrt(1.0 + gap * 1e-11 * max(1.0, scale**2) / abs(exact))
    monkeypatch.setattr(observables, "to_momentum",
                        lambda s: MomentumAmplitudes(g, to_momentum(s).amps * stretch))
    if refused:
        with pytest.raises(InternalInconsistency):
            translation_expect(psi, 1.0)
    else:
        assert translation_expect(psi, 1.0) == exact


@pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf])
def test_translation_expect_refuses_a_non_finite_length(L):
    psi = two_bumps(grid_for_bumps())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError):
            translation_expect(psi, L)


def test_translation_expect_refuses_a_nan_state():
    # a NaN gap between the routes fails the cross-check rather than passing it
    g = make_grid(256, -16.0, 32.0)
    amps = make_packet(g, PacketSpec("gaussian", 0.0, 1.0)).amps.copy()
    amps[100] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InternalInconsistency):
            translation_expect(WaveFunction(g, amps), 2.0)


# --- modular_distribution ----------------------------------------------------

def test_modular_distribution_localized_uniform():
    g = make_grid(4096, -64.0, 128.0)
    L, bins = 2.0, 32
    psi = make_packet(g, PacketSpec("bump", 0.0, 0.8))
    md = modular_distribution(psi, L, bins=bins)
    assert abs(np.sum(md.density) - 1.0) < 1e-12
    assert md.tv_from_uniform() < 1.0 / (2.0 * bins) + 1e-10
    assert np.all(np.abs(md.fourier) < 1e-12)


def test_modular_distribution_two_slit_coefficient():
    g = grid_for_bumps()
    md = modular_distribution(two_bumps(g), 8.0)
    assert abs(md.fourier[0]) == pytest.approx(0.5, abs=1e-10)
    assert np.all(np.abs(md.fourier) <= 1.0 + 1e-12)


def test_modular_distribution_plane_wave_single_bin():
    g = make_grid(512, 0.0, 2.0 * math.pi)
    j = 17
    target = g.p[g.n // 2 + j]
    psi = WaveFunction(g, np.exp(1j * target * g.x) / math.sqrt(g.length))
    md = modular_distribution(psi, g.length / 8.0, bins=16)
    assert np.max(md.density) > 1.0 - 1e-10


def test_modular_distribution_under_resolved():
    g = grid_for_bumps()
    with pytest.raises(PeriodUnderResolved):
        modular_distribution(two_bumps(g), g.length / 2.0)
    with pytest.raises(ValueError):
        modular_distribution(two_bumps(g), 8.0, bins=4)


def test_modular_distribution_accepts_eight_bins():
    md = modular_distribution(two_bumps(grid_for_bumps()), 8.0, bins=8)
    assert md.bins == 8 and md.density.shape == (8,)
    assert abs(np.sum(md.density) - 1.0) < 1e-12


@pytest.mark.parametrize("L", [math.nan, 0.0, -8.0])
def test_modular_distribution_refuses_a_non_finite_period(L):
    psi = two_bumps(grid_for_bumps())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError):
            modular_distribution(psi, L)


def test_fold_consistency_reconstructs_coefficients():
    g = grid_for_bumps()
    L, bins = 8.0, 64
    psi = two_bumps(g, L=L, alpha=0.9)
    md = modular_distribution(psi, L, bins=bins, k_max=3)
    centers = (np.arange(bins) + 0.5) / bins
    for k in (1, 2, 3):
        from_bins = np.sum(md.density * np.exp(2j * math.pi * k * centers))
        assert abs(from_bins - md.fourier[k - 1]) <= k * math.pi / bins + 1e-10


# --- weyl_moment --------------------------------------------------------------

def test_weyl_moment_pure_momentum():
    g = grid_for_bumps()
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 1.0, p0=2.0))
    assert weyl_moment(psi, MomentSpec(0, 1)) == pytest.approx(2.0, abs=1e-8)


def test_weyl_moment_mixed_parity_zero():
    g = make_grid(512, -32.0, 64.0)
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 1.5))
    assert abs(weyl_moment(psi, MomentSpec(1, 1))) < 1e-10


def test_weyl_moment_caps():
    with pytest.raises(DegreeCap):
        MomentSpec(4, 3)
    with pytest.raises(DegreeCap):
        MomentSpec(-1, 0)


def test_weyl_moment_agrees_with_matrix_engine():
    # dual route: the factored application must match the dense operator
    # matrix up to the dense engine's roundoff
    from modlab import weyl_matrix

    g = make_grid(256, -16.0, 32.0)
    psi = make_packet(g, PacketSpec("gaussian", 1.0, 1.2, p0=0.8))
    for n_x, m_p in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 3)):
        w = weyl_matrix(g, n_x, m_p).entries
        via_matrix = float((np.vdot(psi.amps, w @ psi.amps) * g.dx).real)
        assert weyl_moment(psi, MomentSpec(n_x, m_p)) == pytest.approx(
            via_matrix, abs=1e-10, rel=1e-10
        )


def test_weyl_moment_matches_binomial_sum_every_degree():
    # every one of the n + 1 terms of 2^-n sum_k C(n,k) <X^k psi, P^m X^(n-k) psi>,
    # on an asymmetric complex state so that no term vanishes by symmetry
    g = make_grid(1024, -24.0, 48.0)
    rng = np.random.default_rng(23)
    a = make_packet(g, PacketSpec("gaussian", rng.uniform(-5.0, -2.0), rng.uniform(0.8, 1.2),
                                  p0=rng.uniform(0.5, 2.0))).amps
    b = make_packet(g, PacketSpec("gaussian", rng.uniform(2.0, 5.0), rng.uniform(0.5, 0.7),
                                  p0=rng.uniform(-1.0, -0.3))).amps
    amps = a + rng.uniform(0.3, 0.7) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * b
    psi = WaveFunction(g, amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)) * g.dx))
    for n_x in range(7):
        for m_p in range(7 - n_x):
            terms = [
                math.comb(n_x, k) * np.vdot(
                    g.x**k * psi.amps,
                    np.fft.ifft(g.p_raw**m_p * np.fft.fft(g.x ** (n_x - k) * psi.amps)),
                ) * g.dx
                for k in range(n_x + 1)
            ]
            want = (sum(terms) / 2.0**n_x).real
            got = weyl_moment(psi, MomentSpec(n_x, m_p))
            assert abs(got - want) < 1e-12 * max(1.0, abs(want)), (n_x, m_p, got, want)


def test_weyl_moment_dichotomy_compact():
    # disjoint branches: symmetrized moments blind to alpha, c_1 is not
    g = make_grid(2048, -30.5, 61.0)
    L = round(10.625 / g.dx) * g.dx
    vals = {}
    for alpha in (0.0, 1.1, math.pi, 4.4):
        psi = make_two_slit(g, L, PacketSpec("bump", -L / 2.0, 5.0), alpha)
        for spec in (MomentSpec(0, 6), MomentSpec(6, 0), MomentSpec(1, 1), MomentSpec(2, 2)):
            vals.setdefault((spec.n_x, spec.m_p), []).append(weyl_moment(psi, spec))
        c1 = translation_expect(psi, L)
        assert abs(abs(c1) - 0.5) < 1e-8
        assert math.atan2(c1.imag, c1.real) == pytest.approx(
            math.atan2(math.sin(alpha), math.cos(alpha)), abs=1e-8
        )
    for key, series in vals.items():
        assert max(series) - min(series) < 1e-10, key


# --- eom_residual --------------------------------------------------------------

def test_eom_residual_free_particle():
    g = make_grid(512, -32.0, 64.0)
    psi = make_two_slit(g, 8.0, PacketSpec("bump", -4.0, 1.5), 0.0)
    snaps = propagate(psi, PotentialSpec.zero(), PropagatorConfig(dt=1e-3, steps=8))
    res = eom_residual(snaps, PotentialSpec.zero(), 8.0, 1e-3)
    assert np.max(res) < 1e-12


def test_eom_residual_second_order_in_dt():
    g = make_grid(1024, -32.0, 64.0)
    L = round(8.0 / g.dx) * g.dx
    psi = make_two_slit(g, L, PacketSpec("bump", -L / 2.0, 1.5), 0.0)
    barrier = PotentialSpec.barrier(2.0, L / 2.0 - 1.5, L / 2.0 + 1.5)
    maxima = []
    for level in range(2):
        dt = 1e-3 / 2**level
        snaps = propagate(psi, barrier, PropagatorConfig(dt=dt, steps=40 * 2**level))
        maxima.append(float(np.max(eom_residual(snaps, barrier, L, dt))))
    assert 3.5 < maxima[0] / maxima[1] < 4.5


def test_eom_residual_periodic_potential_conserves():
    # V(x) = V(x+L) makes the right-hand side vanish identically
    g = make_grid(1024, -32.0, 64.0)
    L = 8.0
    psi = make_two_slit(g, L, PacketSpec("bump", -L / 2.0, 1.5), 0.7)
    v = PotentialSpec.sampled(0.8 * np.sin(2.0 * math.pi * g.x / L))
    snaps = propagate(psi, v, PropagatorConfig(dt=1e-3, steps=40))
    res = eom_residual(snaps, v, L, 1e-3)
    assert np.max(res) < 1e-10


def test_eom_residual_guards():
    g = make_grid(512, -32.0, 64.0)
    psi = make_two_slit(g, 8.0, PacketSpec("bump", -4.0, 1.5), 0.0)
    snaps = propagate(psi, PotentialSpec.zero(), PropagatorConfig(dt=1e-3, steps=4))
    with pytest.raises(OffLatticeL):
        eom_residual(snaps, PotentialSpec.zero(), 8.0 + 0.3 * g.dx, 1e-3)
    with pytest.raises(NonUniformSampling):
        eom_residual(snaps, PotentialSpec.zero(), 8.0, 1e-3,
                     times=np.array([0.0, 1e-3, 2.5e-3, 3e-3, 4e-3]))
    with pytest.raises(ValueError):
        eom_residual(snaps[:2], PotentialSpec.zero(), 8.0, 1e-3)


@pytest.mark.parametrize("dt", [0.0, math.nan, math.inf, -math.inf])
def test_eom_residual_refuses_an_unusable_time_step(dt):
    g = make_grid(512, -32.0, 64.0)
    psi = make_two_slit(g, 8.0, PacketSpec("bump", -4.0, 1.5), 0.0)
    snaps = propagate(psi, PotentialSpec.zero(), PropagatorConfig(dt=1e-3, steps=4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match="dt must be finite and non-zero"):
            eom_residual(snaps, PotentialSpec.zero(), 8.0, dt)


def test_eom_residual_takes_reversed_snapshots_with_a_negative_time_step():
    g = make_grid(512, -32.0, 64.0)
    L = 8.0
    psi = make_two_slit(g, L, PacketSpec("bump", -L / 2.0, 1.5), 0.0)
    barrier = PotentialSpec.barrier(2.0, L / 2.0 - 1.5, L / 2.0 + 1.5)
    snaps = propagate(psi, barrier, PropagatorConfig(dt=1e-3, steps=8))
    forward = eom_residual(snaps, barrier, L, 1e-3)
    assert np.array_equal(eom_residual(snaps[::-1], barrier, L, -1e-3), forward[::-1])


def test_eom_residual_matches_the_per_snapshot_expression():
    g = make_grid(256, -10.0, 40.0, 0.7)  # dx = 5/32, so m * dx is exact
    rng = np.random.default_rng(12)
    V = PotentialSpec.sampled(rng.normal(size=g.n))
    snaps = [WaveFunction(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
             for _ in range(6)]
    dt = 1e-3
    for m in (0, 1, 8, -8, g.n - 1, g.n, g.n + 8, -300):
        L = m * g.dx
        v = V.values(g)
        dv = v - np.roll(v, -m)
        t_vals, rhs = [], []
        for wf in snaps:
            shifted = translate(wf, L)
            t_vals.append(inner(wf, shifted))
            rhs.append((1j / g.hbar) * inner(wf, WaveFunction(g, dv * shifted.amps)))
        t_vals, rhs = np.array(t_vals), np.array(rhs)
        expected = np.abs((t_vals[2:] - t_vals[:-2]) / (2.0 * dt) - rhs[1:-1])
        assert np.array_equal(eom_residual(snaps, V, L, dt), expected), m
    other = make_grid(256, -10.0, 40.0, 0.5)
    mixed = snaps[:3] + [WaveFunction(other, snaps[3].amps)]
    with pytest.raises(GridMismatch):
        eom_residual(mixed, V, 8 * g.dx, dt)


# --- fringe_peaks ---------------------------------------------------------------

def test_fringe_peaks_single_packet():
    g = make_grid(1024, -64.0, 128.0)
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 1.0, p0=1.5))
    peaks = fringe_peaks(to_momentum(psi))
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(1.5, abs=g.dp)


def test_fringe_peaks_flat_density_has_none():
    g = make_grid(256, -16.0, 32.0)
    amps = np.zeros(g.n, dtype=complex)
    amps[g.n // 2] = 1.0 / math.sqrt(g.dx)
    psi = WaveFunction(g, amps)  # position spike: flat momentum density
    with pytest.raises(NoPeaks):
        fringe_peaks(to_momentum(psi))


def _fringe_peaks_by_index(dens):
    """fringe_peaks' rule, tested one index at a time."""
    g, d = dens.grid, dens.density()
    threshold = 0.1 * float(np.max(d))
    peaks = []
    for j in range(1, g.n - 1):
        if d[j] >= threshold and d[j] > d[j - 1] and d[j] >= d[j + 1]:
            denom = d[j - 1] - 2.0 * d[j] + d[j + 1]
            delta = 0.0 if denom == 0.0 else 0.5 * (d[j - 1] - d[j + 1]) / denom
            peaks.append((float(g.p[j] + delta * g.dp),
                          float(d[j] - 0.25 * (d[j - 1] - d[j + 1]) * delta)))
    return peaks


def test_fringe_peaks_match_the_per_index_rule():
    g = make_grid(32, -4.0, 8.0)
    d = np.zeros(g.n)
    d[3:6] = [1.0, 7.0, 2.0]  # a peak below the threshold
    d[8:13] = [3.0, 50.0, 50.0, 50.0, 4.0]  # a plateau: its first point counts
    d[15:18] = [40.0, 40.0, 6.0]  # a left tie: not a peak
    d[20:23] = [9.0, 500.0, 1.0]  # the top, which sets the threshold at 50
    d[25:28] = [0.5, 0.1 * 500.0, 0.5]  # exactly at the threshold: a peak
    d[29:32] = [2.0, 49.0, 2.0]  # just below it
    assert 0.1 * 500.0 == 50.0
    dens = SimpleNamespace(grid=g, density=lambda: d)
    peaks = fringe_peaks(dens)
    assert peaks == _fringe_peaks_by_index(dens)
    assert np.all(np.abs(np.array(peaks)[:, 0] - g.p[[9, 21, 26]]) <= 0.5 * g.dp)


# --- taylor_divergence_demo -------------------------------------------------------

def test_taylor_partial_sums_start_at_one():
    g = grid_for_bumps()
    sums = taylor_divergence_demo(two_bumps(g), 8.0, orders=5)
    assert sums[0] == pytest.approx(1.0, abs=1e-12)


def test_taylor_series_diverges_for_disjoint_branches():
    g = make_grid(2048, -32.0, 64.0)
    L = 8.0
    psi = make_two_slit(g, L, PacketSpec("bump", -L / 2.0, 2.0), 0.0)
    exact = translation_expect(psi, L)
    sums = taylor_divergence_demo(psi, L, orders=40)
    assert np.min(np.abs(sums - exact)) > 1e-2


def test_taylor_series_converges_for_analytic_state():
    g = make_grid(1024, -64.0, 128.0)
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 2.0))
    L = 0.5
    exact = translation_expect(psi, L)
    sums = taylor_divergence_demo(psi, L, orders=40)
    assert abs(sums[-1] - exact) < 1e-6


def test_taylor_warns_where_a_term_overflows():
    # every moment <p^j> is finite here; the term (iL/hbar)^j <p^j> / j! is
    # past the float range from j = 33 on
    g = make_grid(2048, -5e-3, 1e-2)
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 2e-4, 3e5))
    with pytest.warns(DegreeOverflowWarning, match=r"\(iL/hbar\)\^33 <p\^33> / 33!") as caught:
        sums = taylor_divergence_demo(psi, 1e5, orders=40)
    assert len(caught) == 1
    assert len(sums) == 33
    assert np.all(np.isfinite(sums))


def test_taylor_orders_cap():
    g = grid_for_bumps()
    with pytest.raises(DegreeCap):
        taylor_divergence_demo(two_bumps(g), 8.0, orders=41)


def test_tv_from_uniform_uniform_is_zero():
    assert tv_from_uniform(np.full(16, 1.0 / 16.0)) == 0.0
    assert tv_from_uniform(np.array([1.0, 0.0])) == pytest.approx(0.5)


def test_momentum_observables_of_one_state_share_one_transform(monkeypatch):
    g = make_grid(256, -16.0, 32.0)
    L = 64 * g.dx
    psi = make_two_slit(g, L, PacketSpec("bump", -L / 2.0, 1.5), 0.9)
    fft, forward = _fft.fft, []

    def counting(a, axis=-1, overwrite=False):
        forward.append(a.shape)
        return fft(a, axis=axis, overwrite=overwrite)

    monkeypatch.setattr(_fft, "fft", counting)
    moments = [weyl_moment(psi, MomentSpec(0, m)) for m in range(1, 7)]
    c1 = translation_expect(psi, L)
    assert forward == [(g.n,)]
    monkeypatch.undo()
    fresh = WaveFunction(g, psi.amps.copy())
    assert moments == [weyl_moment(fresh, MomentSpec(0, m)) for m in range(1, 7)]
    assert c1 == translation_expect(fresh, L)


def test_mixed_moment_takes_one_forward_transform_and_no_inverse(monkeypatch):
    g = make_grid(256, -16.0, 32.0)
    L = 64 * g.dx
    psi = make_two_slit(g, L, PacketSpec("bump", -L / 2.0, 1.5), 0.9)
    fft, ifft, calls = _fft.fft, _fft.ifft, []

    def counting(a, axis=-1, overwrite=False):
        calls.append(("fft", a.shape))
        return fft(a, axis=axis, overwrite=overwrite)

    def counting_inverse(a, axis=-1, overwrite=False):
        calls.append(("ifft", a.shape))
        return ifft(a, axis=axis, overwrite=overwrite)

    monkeypatch.setattr(_fft, "fft", counting)
    monkeypatch.setattr(_fft, "ifft", counting_inverse)
    for n_x in range(1, 6):
        for m_p in range(1, 7 - n_x):
            calls.clear()
            weyl_moment(psi, MomentSpec(n_x, m_p))
            assert calls == [("fft", (n_x + 1, g.n))], (n_x, m_p)
