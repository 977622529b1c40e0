import functools
import math
import warnings

import numpy as np
import pytest

from modlab import (
    PacketSpec,
    PotentialSpec,
    PropagatorConfig,
    TwoParticleState,
    WaveFunction,
    free_far_field,
    make_grid,
    make_packet,
    make_two_slit,
    product_state,
    propagate,
    propagate_two,
    to_momentum,
    translate,
    translation_expect,
    translation_expect_two,
)
from modlab.errors import (
    ArgumentError,
    GridMismatch,
    NonFiniteAmplitude,
    OffLatticeL,
    PhaseWrapWarning,
    ZeroState,
)
from modlab import _fft
from modlab.evolve import (
    SECTOR_WEIGHT_FLOOR,
    _check_finite,
    _sector_translations,
    _strang,
    _two_particle_potential,
)


def test_free_particle_drift():
    g = make_grid(1024, -64.0, 128.0)
    p0, mass = 1.0, 1.0
    psi = make_packet(g, PacketSpec("gaussian", -4.0, 2.0, p0=p0))
    cfg = PropagatorConfig(dt=0.005, steps=400, mass=mass)
    snaps = propagate(psi, PotentialSpec.zero(), cfg, snapshot_every=100)
    for i, wf in enumerate(snaps):
        t = i * 100 * cfg.dt
        x_mean = float(np.sum(wf.position_density() * g.x) * g.dx)
        assert x_mean == pytest.approx(-4.0 + p0 * t / mass, abs=1e-8)


def test_free_particle_momentum_density_static():
    g = make_grid(512, -32.0, 64.0)
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 1.5, p0=0.8))
    d0 = to_momentum(psi).density()
    snaps = propagate(psi, PotentialSpec.zero(), PropagatorConfig(dt=0.004, steps=200))
    d1 = to_momentum(snaps[-1]).density()
    assert np.max(np.abs(d1 - d0)) < 1e-12


def test_harmonic_oscillator_period():
    k, mass = 1.0, 1.0
    period = 2.0 * math.pi * math.sqrt(mass / k)
    g = make_grid(512, -32.0, 64.0)
    psi = make_packet(g, PacketSpec("gaussian", 4.0, 1.0))
    dt = period / 1000.0
    snaps = propagate(psi, PotentialSpec.harmonic(k), PropagatorConfig(dt=dt, steps=1100))
    x_means = np.array([float(np.sum(s.position_density() * g.x) * g.dx) for s in snaps])
    # locate the first return maximum of <x>(t) by quadratic interpolation
    window = np.arange(900, 1100)
    j = window[np.argmax(x_means[window])]
    denom = x_means[j - 1] - 2.0 * x_means[j] + x_means[j + 1]
    delta = 0.5 * (x_means[j - 1] - x_means[j + 1]) / denom
    measured = (j + delta) * dt
    assert abs(measured - period) / period < 1e-3


def test_norm_preserved_per_1000_steps():
    g = make_grid(512, -32.0, 64.0)
    psi = make_packet(g, PacketSpec("gaussian", -5.0, 1.5, p0=1.0))
    barrier = PotentialSpec.barrier(1.5, 0.0, 2.0)
    snaps = propagate(psi, barrier, PropagatorConfig(dt=0.002, steps=1000), snapshot_every=500)
    assert abs(snaps[-1].norm() - 1.0) < 1e-12


def test_second_order_convergence():
    g = make_grid(512, -32.0, 64.0)
    psi = make_packet(g, PacketSpec("gaussian", 2.0, 1.0))
    v = PotentialSpec.harmonic(1.0)
    total = 0.5

    def final_state(steps):
        cfg = PropagatorConfig(dt=total / steps, steps=steps)
        return propagate(psi, v, cfg, snapshot_every=steps)[-1].amps

    ref = final_state(1024)
    err_coarse = np.max(np.abs(final_state(128) - ref))
    err_fine = np.max(np.abs(final_state(256) - ref))
    assert 3.5 < err_coarse / err_fine < 4.5


def test_free_evolution_preserves_modular_coefficients():
    g = make_grid(2048, -64.0, 128.0)
    L = 8.0
    psi = make_two_slit(g, L, PacketSpec("bump", -4.0, 1.5), 0.6)
    before = [translation_expect(psi, L, k) for k in (1, 2, 3)]
    snaps = propagate(psi, PotentialSpec.zero(), PropagatorConfig(dt=0.002, steps=250), snapshot_every=250)
    after = [translation_expect(snaps[-1], L, k) for k in (1, 2, 3)]
    for b, a in zip(before, after):
        assert abs(a - b) < 1e-12


@pytest.mark.parametrize("bad, fragment", [
    ({"dt": math.inf}, "dt must be positive and finite"),
    ({"mass": math.inf}, "mass must be positive and finite"),
    ({"steps": 600.0}, "steps must be an integer"),
    ({"steps": 2.5}, "steps must be an integer"),
], ids=["dt-inf", "mass-inf", "steps-600.0", "steps-2.5"])
def test_propagator_config_refuses_a_bad_value(bad, fragment):
    # refused by name on construction, before any stepping arithmetic
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match=fragment):
            PropagatorConfig(**{"dt": 0.005, "steps": 600, **bad})


def test_phase_wrap_warning():
    g = make_grid(256, -16.0, 32.0)
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 1.0))
    with pytest.warns(PhaseWrapWarning):
        propagate(psi, PotentialSpec.zero(), PropagatorConfig(dt=1.0, steps=1))


def test_phase_wrap_warning_two_particle():
    # a 1-D step advances at most 0.6 pi here, but p1^2 + p2^2 reaches twice
    # that at the corners, where a broad two-particle state has weight
    g = make_grid(128, -16.0, 32.0)
    dt = 1.2 * math.pi / float(np.max(g.p_raw**2))
    rng = np.random.default_rng(11)
    amps = rng.standard_normal((g.n, g.n)) + 1j * rng.standard_normal((g.n, g.n))
    state = TwoParticleState(g, amps).normalized()
    with pytest.warns(PhaseWrapWarning):
        propagate_two(state, PotentialSpec.zero(), PropagatorConfig(dt=dt, steps=1))


def test_phase_wrap_guard_scales_with_mass():
    # mass x 4 with dt x 4 keeps the phase per step p^2 dt/2m hbar, here at most
    # 0.9 pi on a state with weight at every momentum; dt x 4 alone wraps it
    g = make_grid(128, -16.0, 32.0)
    dt = 1.8 * math.pi / float(np.max(g.p_raw**2))
    rng = np.random.default_rng(5)
    psi = WaveFunction(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)).normalized()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mass in (1.0, 4.0):
            propagate(psi, PotentialSpec.zero(), PropagatorConfig(dt=mass * dt, steps=1, mass=mass))
    with pytest.warns(PhaseWrapWarning):
        propagate(psi, PotentialSpec.zero(), PropagatorConfig(dt=4.0 * dt, steps=1))


@pytest.mark.parametrize("eps, warns", [(1e-3, True), (1e-6, False)])
def test_phase_wrap_guard_at_hbar_half(eps, warns):
    # 1 + eps (-1)^j puts a probability share eps^2 / (1 + eps^2) on the
    # lattice's largest |p|, whose phase per step p^2 dt/2m hbar is 1.2 pi at
    # hbar = 1/2 (0.3 pi with hbar in the numerator). A share of 1e-6 warns;
    # 1e-12 does not, though its amplitude share, 1e-6, would, and so would a
    # threshold of 1e-8 divided by the FFT weights' total, 512 here
    g = make_grid(128, -16.0, 32.0, 0.5)
    dt = 1.2 * math.pi * 2.0 * g.hbar / float(np.max(g.p_raw**2))
    psi = WaveFunction(g, 1.0 + eps * (-1.0) ** np.arange(g.n)).normalized()
    cfg = PropagatorConfig(dt=dt, steps=1)
    if warns:
        with pytest.warns(PhaseWrapWarning):
            propagate(psi, PotentialSpec.zero(), cfg)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            propagate(psi, PotentialSpec.zero(), cfg)


def test_non_finite_amplitude_detected():
    g = make_grid(256, -16.0, 32.0)
    amps = np.full(g.n, np.nan, dtype=complex)
    bad = WaveFunction(g, amps)
    with pytest.raises(NonFiniteAmplitude):
        propagate(bad, PotentialSpec.zero(), PropagatorConfig(dt=1e-3, steps=1))


@pytest.mark.parametrize("shape", [(256,), (85, 256)])
def test_check_finite_passes_finite_amplitudes_whose_sum_overflows(shape):
    amps = np.full(shape, 1e308 - 1e308j)
    amps.flat[::7] = -1e308 + 1e308j
    _check_finite(amps)
    with np.errstate(over="raise", invalid="raise"):
        _check_finite(amps)


@pytest.mark.parametrize("shape", [(256,), (85, 256)])
@pytest.mark.parametrize("bad", [
    {(3, "imag"): np.nan},
    {(5, "real"): np.inf},
    {(5, "imag"): -np.inf},
    {(2, "real"): np.inf, (9, "real"): -np.inf},  # their sum is NaN
])
def test_check_finite_raises_on_any_non_finite_part(shape, bad):
    amps = np.full(shape, 0.5 - 0.25j)
    flat = amps.reshape(-1)
    for (i, part), value in bad.items():
        setattr(flat[i:i + 1], part, value)
    with pytest.raises(NonFiniteAmplitude):
        _check_finite(amps)
    with np.errstate(over="raise", invalid="raise"), pytest.raises(NonFiniteAmplitude):
        _check_finite(amps)


def test_snapshot_cadence_must_divide():
    g = make_grid(256, -16.0, 32.0)
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 1.0))
    with pytest.raises(ValueError):
        propagate(psi, PotentialSpec.zero(), PropagatorConfig(dt=1e-3, steps=10), snapshot_every=3)


def test_potential_spec_values():
    g = make_grid(64, -8.0, 16.0)
    assert np.all(PotentialSpec.zero().values(g) == 0.0)
    vh = PotentialSpec.harmonic(2.0).values(g)
    assert vh[0] == pytest.approx(0.5 * 2.0 * 64.0)
    vb = PotentialSpec.barrier(3.0, 0.0, 1.0).values(g)
    assert vb[(g.x >= 0.0) & (g.x < 1.0)].min() == 3.0
    assert vb[g.x < 0].max() == 0.0
    with pytest.raises(ValueError):
        PotentialSpec.sampled([np.inf] * g.n)
    with pytest.raises(GridMismatch):
        PotentialSpec.sampled([0.0] * 32).values(g)


def two_particle_setup(p0=2.0, depth=4.0):
    g = make_grid(256, -16.0, 32.0)
    a = make_packet(g, PacketSpec("gaussian", -3.0, 1.0, p0))
    b = make_packet(g, PacketSpec("gaussian", 3.0, 1.0, -p0))
    well = PotentialSpec.sampled(-depth * np.exp(-(g.x**2) / 2.0))
    return g, product_state(a, b), well


def test_two_particle_free_marginals_static():
    g, state, _ = two_particle_setup()
    snaps = propagate_two(state, PotentialSpec.zero(), PropagatorConfig(dt=0.005, steps=60), snapshot_every=30)

    def marginal(s):
        spec = np.abs(np.fft.fft2(s.amps)) ** 2
        return np.sum(spec, axis=1) / np.sum(spec)

    assert np.max(np.abs(marginal(snaps[-1]) - marginal(snaps[0]))) < 1e-12


def test_two_particle_free_evolution_is_outer_product_of_1d():
    # with no interaction the 2-D stepper must factor into two 1-D runs
    g = make_grid(256, -32.0, 64.0)
    a = make_packet(g, PacketSpec("gaussian", -2.0, 1.5, 1.5))
    b = make_packet(g, PacketSpec("gaussian", 2.5, 1.2, -0.7))
    cfg = PropagatorConfig(dt=0.01, steps=40)
    joint = propagate_two(product_state(a, b), PotentialSpec.zero(), cfg, snapshot_every=10)
    snaps_a = propagate(a, PotentialSpec.zero(), cfg, snapshot_every=10)
    snaps_b = propagate(b, PotentialSpec.zero(), cfg, snapshot_every=10)
    assert len(joint) == len(snaps_a) == 5
    for s, sa, sb in zip(joint, snaps_a, snaps_b):
        assert np.max(np.abs(s.amps - np.outer(sa.amps, sb.amps))) < 1e-12


def test_two_particle_normalize_zero_state_raises():
    g = make_grid(64, -8.0, 16.0)
    with pytest.raises(ZeroState):
        TwoParticleState(g, np.zeros((g.n, g.n))).normalized()


def test_two_particle_total_momentum_conserved():
    g, state, well = two_particle_setup()
    snaps = propagate_two(state, well, PropagatorConfig(dt=0.005, steps=200), snapshot_every=100)

    def p_total_mean(s):
        spec = np.abs(np.fft.fft2(s.amps)) ** 2
        w = spec / np.sum(spec)
        return float(np.sum(w * (g.p_raw[:, None] + g.p_raw[None, :])))

    assert abs(p_total_mean(snaps[-1]) - p_total_mean(snaps[0])) < 1e-10


def test_two_particle_total_translation_conserved():
    g, state, well = two_particle_setup()
    L = 2.0
    snaps = propagate_two(state, well, PropagatorConfig(dt=0.005, steps=200), snapshot_every=50)
    t0 = translation_expect_two(snaps[0], L, 1, 1)
    for s in snaps[1:]:
        assert abs(translation_expect_two(s, L, 1, 1) - t0) < 1e-10
    assert abs(snaps[-1].norm() - 1.0) < 1e-11


def test_two_particle_grid_cap():
    g = make_grid(1024, -64.0, 128.0)
    a = make_packet(g, PacketSpec("gaussian", 0.0, 1.0))
    state = product_state(a, a)
    with pytest.raises(GridMismatch):
        propagate_two(state, PotentialSpec.zero(), PropagatorConfig(dt=1e-3, steps=1))


def test_translation_expect_two_matches_roll_oracle():
    g, state, _ = two_particle_setup()
    L = 2.0
    m = round(L / g.dx)
    rolled = np.roll(np.roll(state.amps, -m, axis=0), -m, axis=1)
    oracle = np.sum(np.conj(state.amps) * rolled) * g.dx**2
    got = translation_expect_two(state, L, 1, 1)
    assert abs(got - oracle) < 1e-12
    rolled1 = np.roll(state.amps, -m, axis=0)
    oracle1 = np.sum(np.conj(state.amps) * rolled1) * g.dx**2
    assert abs(translation_expect_two(state, L, 1, 0) - oracle1) < 1e-12


def test_two_particle_off_lattice_origin_rejected():
    g = make_grid(128, -8.1234, 16.0)
    a = make_packet(g, PacketSpec("gaussian", -0.1234, 1.0))
    state = product_state(a, a)
    with pytest.raises(OffLatticeL):
        propagate_two(state, PotentialSpec.zero(), PropagatorConfig(dt=1e-3, steps=1))


def _asymmetric_v(x):
    # a step, a linear ramp and an off-center well: V(r) != V(-r), and the
    # step sits between lattice points so rounding never moves it
    return 1.5 * (x > 1.03) + 0.2 * x - 3.0 * np.exp(-((x - 2.1) ** 2) / 0.5)


def _explicit_2d_strang(state, dt, steps, every):
    # the plain 2-D Strang loop on the (x1, x2) lattice under _asymmetric_v,
    # evaluated at x1 - x2 wrapped into the domain; snapshots at 0, every, ...
    g = state.grid
    r = np.mod(g.x[:, None] - g.x[None, :] - g.x0, g.length) + g.x0
    half_v = np.exp(-0.5j * dt * _asymmetric_v(r))
    kinetic = np.exp(-0.5j * dt * (g.p_raw[:, None] ** 2 + g.p_raw[None, :] ** 2))
    psi = state.amps.copy()
    expected = [psi]
    for step in range(1, steps + 1):
        psi = half_v * np.fft.ifft2(kinetic * np.fft.fft2(half_v * psi))
        if step % every == 0:
            expected.append(psi)
    return expected


@pytest.mark.parametrize("x0", [-16.0, -6.0])
def test_two_particle_matches_explicit_2d_strang(x0):
    # oracle: the plain 2-D Strang loop on the (x1, x2) lattice
    g = make_grid(256, x0, 32.0)
    mid = x0 + 16.0
    a = make_packet(g, PacketSpec("gaussian", mid - 3.0, 1.0, 2.0))
    b = make_packet(g, PacketSpec("gaussian", mid + 3.0, 1.0, -2.0))
    state = product_state(a, b)
    dt, steps, every = 0.005, 100, 25
    snaps = propagate_two(state, PotentialSpec.sampled(_asymmetric_v(g.x)),
                          PropagatorConfig(dt=dt, steps=steps), snapshot_every=every)

    expected = _explicit_2d_strang(state, dt, steps, every)
    assert len(snaps) == len(expected) == 5
    for s, e in zip(snaps, expected):
        assert np.max(np.abs(s.amps - e)) < 1e-12


def test_sector_translations_match_public_route():
    # unequal momenta give a total-momentum density that is not even in P,
    # so a mirrored sector index or swapped marginals would show
    g = make_grid(256, -16.0, 32.0)
    a = make_packet(g, PacketSpec("gaussian", -3.0, 1.0, 2.5))
    b = make_packet(g, PacketSpec("gaussian", 3.0, 0.7, -1.0))
    state = product_state(a, b)
    v = PotentialSpec.sampled(_asymmetric_v(g.x))
    cfg = PropagatorConfig(dt=0.005, steps=60)
    L = 2.0
    pairs = _strang(state, _two_particle_potential(g, v), cfg, 20,
                    functools.partial(_sector_translations, grid=g, L=L))
    snaps = propagate_two(state, v, cfg, snapshot_every=20)
    assert len(pairs) == len(snaps) == 4
    for (t12, t1), s in zip(pairs, snaps):
        assert abs(t12 - translation_expect_two(s, L, 1, 1)) < 1e-12
        assert abs(t1 - translation_expect_two(s, L, 1, 0)) < 1e-12
    assert abs(pairs[0][0].imag) > 0.01
    with pytest.raises(NonFiniteAmplitude):
        _sector_translations(np.full((g.n, g.n), np.nan, dtype=complex), g, L)


def _banded_momenta(g, j0):
    # momentum amplitudes on the 9 lattice momenta around j0, zero elsewhere
    c = np.zeros(g.n, dtype=complex)
    j = np.arange(-4, 5)
    c[(j0 + j) % g.n] = np.exp(-(j**2) / 8.0) * np.exp(0.3j * j)
    return c


def _sector_shares(amps):
    # share of the probability in each total-momentum sector J = j1 + j2 mod n,
    # from the 2-D momentum density
    n = amps.shape[0]
    density = np.abs(np.fft.fft2(amps)) ** 2
    j1 = np.arange(n)
    shares = np.array([np.sum(density[j1, (J - j1) % n]) for J in range(n)])
    return shares / np.sum(shares)


def test_two_particle_steps_only_rows_above_the_floor(monkeypatch):
    # two band-limited particles occupy 17 of the 64 total-momentum sectors;
    # the other rows hold FFT roundoff, at least 4x below the floor
    g = make_grid(64, -16.0, 32.0)
    amps = np.outer(np.fft.ifft(_banded_momenta(g, 3)), np.fft.ifft(_banded_momenta(g, -5)))
    state = TwoParticleState(g, amps).normalized()
    shares = _sector_shares(state.amps)
    above = int(np.sum(shares > SECTOR_WEIGHT_FLOOR))
    assert above == 17
    assert np.all((shares > 4 * SECTOR_WEIGHT_FLOOR) | (shares < SECTOR_WEIGHT_FLOOR / 4))

    step_rows = []

    def recording(transform):
        def wrapped(a, axis=None, overwrite=False):
            if axis == -1 and overwrite:  # the per-step transforms
                step_rows.append(a.shape[0])
            return transform(a, axis=axis, overwrite=overwrite)
        return wrapped

    monkeypatch.setattr(_fft, "fft", recording(_fft.fft))
    monkeypatch.setattr(_fft, "ifft", recording(_fft.ifft))
    steps = 12
    snaps = propagate_two(state, PotentialSpec.sampled(_asymmetric_v(g.x)),
                          PropagatorConfig(dt=0.005, steps=steps), snapshot_every=4)
    assert step_rows == [above] * (2 * steps)
    assert len(snaps) == 4 and all(s.amps.shape == (g.n, g.n) for s in snaps)


def _planted_and_emptied(g):
    # two band-limited particles with one sector planted below the floor and
    # one occupied sector emptied: (state, planted J, emptied J)
    n = g.n
    phi = np.outer(_banded_momenta(g, 3), _banded_momenta(g, -5))
    planted, emptied = 20, (3 - 5) % n
    phi[5, (planted - 5) % n] = 1e-17
    j1 = np.arange(n)
    phi[j1, (emptied - j1) % n] = 0.0
    return TwoParticleState(g, np.fft.ifft2(phi)).normalized(), planted, emptied


def test_two_particle_screening_against_explicit_2d_strang():
    # plant one sector below the floor and empty one occupied sector; the
    # screened run must stay within 2 sqrt(dropped share) of the unscreened
    # explicit loop of test_two_particle_matches_explicit_2d_strang
    g = make_grid(64, -16.0, 32.0)
    state, planted, emptied = _planted_and_emptied(g)
    shares = _sector_shares(state.amps)
    assert 0.0 < shares[planted] < SECTOR_WEIGHT_FLOOR
    assert shares[emptied] < SECTOR_WEIGHT_FLOOR
    dropped = float(np.sum(shares[shares <= SECTOR_WEIGHT_FLOOR]))

    dt, steps, every = 0.005, 40, 20
    v = _asymmetric_v(g.x)
    snaps = propagate_two(state, PotentialSpec.sampled(v),
                          PropagatorConfig(dt=dt, steps=steps), snapshot_every=every)

    expected = _explicit_2d_strang(state, dt, steps, every)
    bound = 2.0 * math.sqrt(dropped) * np.linalg.norm(state.amps) + 1e-12
    assert len(snaps) == len(expected) == 3
    for s, e in zip(snaps, expected):
        assert np.max(np.abs(s.amps - e)) < bound


def test_sector_translations_read_the_stepped_rows_only():
    # after snapshot 0 the hook gets the compact stack and its sector indices;
    # its pairs must meet the public route on the default snapshots within
    # the screening bound 2 delta
    g = make_grid(64, -16.0, 32.0)
    state, planted, emptied = _planted_and_emptied(g)
    shares = _sector_shares(state.amps)
    kept = int(np.sum(shares > SECTOR_WEIGHT_FLOOR))
    dropped = float(np.sum(shares[shares <= SECTOR_WEIGHT_FLOOR]))
    v = PotentialSpec.sampled(_asymmetric_v(g.x))
    cfg = PropagatorConfig(dt=0.005, steps=40)
    L = 2.0
    seen = []

    def hook(rows, sectors=None):
        seen.append((rows.shape[0], sectors))
        return _sector_translations(rows, g, L, sectors)

    pairs = _strang(state, _two_particle_potential(g, v), cfg, 20, hook)
    snaps = propagate_two(state, v, cfg, snapshot_every=20)
    assert [count for count, _ in seen] == [g.n, kept, kept]
    assert seen[0][1] is None
    for _, sectors in seen[1:]:
        assert len(sectors) == kept and planted not in sectors and emptied not in sectors
    bound = 2.0 * dropped + 1e-12
    assert len(pairs) == len(snaps) == 3
    for (t12, t1), s in zip(pairs, snaps):
        assert abs(t12 - translation_expect_two(s, L, 1, 1)) < bound
        assert abs(t1 - translation_expect_two(s, L, 1, 0)) < bound
    assert abs(pairs[-1][0].imag) > 0.01


@pytest.mark.parametrize("every", [1, 3, 12])
def test_fused_kicks_match_unfused_1d_strang(every):
    # oracle: two half kicks per step, as the splitting is written; the
    # stepper merges the kicks that meet between snapshots, so this pins the
    # kick order at snapshot steps and at the last step
    hbar, mass, dt, steps = 0.7, 1.3, 0.01, 12
    g = make_grid(256, -16.0, 32.0, hbar)
    psi = make_packet(g, PacketSpec("gaussian", -1.0, 1.0, 1.5))
    v = _asymmetric_v(g.x)
    snaps = propagate(psi, PotentialSpec.sampled(v),
                      PropagatorConfig(dt=dt, steps=steps, mass=mass), snapshot_every=every)

    half_v = np.exp(-0.5j * v * dt / hbar)
    kinetic = np.exp(-0.5j * g.p_raw**2 * dt / (mass * hbar))
    amps = psi.amps
    expected = [amps]
    for step in range(1, steps + 1):
        amps = half_v * np.fft.ifft(kinetic * np.fft.fft(half_v * amps))
        if step % every == 0:
            expected.append(amps)
    assert len(snaps) == len(expected) == steps // every + 1
    for s, e in zip(snaps, expected):
        assert np.max(np.abs(s.amps - e)) < 1e-12


def test_two_particle_zero_state_steps_an_empty_stack():
    g = make_grid(64, -16.0, 32.0)
    zero = TwoParticleState(g, np.zeros((g.n, g.n), dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        snaps = propagate_two(zero, PotentialSpec.zero(), PropagatorConfig(dt=0.005, steps=4),
                              snapshot_every=2)
    assert len(snaps) == 3
    for s in snaps:
        assert s.amps.shape == (g.n, g.n) and not np.any(s.amps)


def test_two_particle_with_every_sector_occupied_steps_the_whole_stack():
    # a random state occupies all 64 sectors: no row is dropped, so the hook
    # gets the whole stack with sectors=None at every snapshot
    g = make_grid(64, -16.0, 32.0)
    rng = np.random.default_rng(7)
    amps = rng.standard_normal((g.n, g.n)) + 1j * rng.standard_normal((g.n, g.n))
    state = TwoParticleState(g, amps).normalized()
    assert np.all(_sector_shares(state.amps) > SECTOR_WEIGHT_FLOOR)
    dt, steps, every = 0.005, 40, 20
    v = _asymmetric_v(g.x)
    seen = []

    def hook(rows, sectors=None):
        seen.append((rows.shape, sectors))

    _strang(state, _two_particle_potential(g, PotentialSpec.sampled(v)),
            PropagatorConfig(dt=dt, steps=steps), every, hook)
    assert seen == [((g.n, g.n), None)] * 3
    snaps = propagate_two(state, PotentialSpec.sampled(v),
                          PropagatorConfig(dt=dt, steps=steps), snapshot_every=every)
    expected = _explicit_2d_strang(state, dt, steps, every)
    assert len(snaps) == len(expected) == 3
    for s, e in zip(snaps, expected):
        assert np.max(np.abs(s.amps - e)) < 1e-12


def test_one_particle_steps_as_a_one_row_stack():
    g = make_grid(256, -16.0, 32.0)
    psi = make_packet(g, PacketSpec("gaussian", -1.0, 1.0, 1.5))
    seen = []

    def hook(rows, sectors=None):
        seen.append((rows.shape, sectors))
        return rows[0].copy()

    cfg = PropagatorConfig(dt=0.01, steps=12)
    rows = _strang(psi, _asymmetric_v(g.x), cfg, 4, hook)
    snaps = propagate(psi, PotentialSpec.sampled(_asymmetric_v(g.x)), cfg, snapshot_every=4)
    assert seen == [((1, g.n), None)] * 4
    for row, s in zip(rows, snaps):
        assert np.array_equal(row, s.amps)


def test_one_particle_zero_state_steps_an_empty_stack():
    g = make_grid(64, -16.0, 32.0)
    zero = WaveFunction(g, np.zeros(g.n, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        snaps = propagate(zero, PotentialSpec.zero(), PropagatorConfig(dt=0.005, steps=4),
                          snapshot_every=2)
    assert len(snaps) == 3
    for s in snaps:
        assert s.amps.shape == (g.n,) and not np.any(s.amps)


def test_far_field_is_momentum_distribution():
    g = make_grid(512, -32.0, 64.0)
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 1.0, p0=1.0))
    far = free_far_field(psi)
    mom = to_momentum(psi)
    assert np.max(np.abs(far.amps - mom.amps)) == 0.0


def test_translate_then_propagate_commutes_for_free_flight():
    # free evolution commutes with translations
    g = make_grid(512, -32.0, 64.0)
    psi = make_packet(g, PacketSpec("gaussian", -2.0, 1.0, p0=0.3))
    cfg = PropagatorConfig(dt=0.004, steps=50)
    a = translate(propagate(psi, PotentialSpec.zero(), cfg, snapshot_every=50)[-1], 3.0)
    b = propagate(translate(psi, 3.0), PotentialSpec.zero(), cfg, snapshot_every=50)[-1]
    assert np.max(np.abs(a.amps - b.amps)) < 1e-12


# Strang is symmetric, so for a real potential conj . S(dt) . conj = S(-dt): N steps,
# a conjugation, N more steps and a conjugation return the input. An asymmetric
# composition (a missing half kick, say) breaks this at O(dt).
def _time_reversal_error(state, step):
    there = step(state)
    back = step(type(state)(state.grid, there.amps.conj()))
    return np.max(np.abs(back.amps.conj() - state.amps)) / np.max(np.abs(state.amps))


def test_time_reversal_round_trip_one_particle():
    g = make_grid(256, -16.0, 32.0, hbar=0.7)
    psi = make_packet(g, PacketSpec("gaussian", -2.5, 0.7, p0=1.5))
    barrier = PotentialSpec.barrier(2.0, -0.5, 0.5)
    cfg = PropagatorConfig(dt=0.01, steps=200, mass=1.3)
    error = _time_reversal_error(psi, lambda s: propagate(s, barrier, cfg, cfg.steps)[-1])
    assert error <= 1e-12


def test_time_reversal_round_trip_two_particles():
    g = make_grid(64, -8.0, 16.0)  # too coarse for make_packet's margins
    a, b = (WaveFunction(g, np.exp(-0.5 * (g.x - c) ** 2 + 1j * p0 * g.x))
            for c, p0 in ((-2.5, 1.5), (2.5, -1.5)))
    state = product_state(a, b)
    well = PotentialSpec.sampled(-4.0 * np.exp(-g.x**2 / 2.0))
    cfg = PropagatorConfig(dt=0.01, steps=200, mass=1.3)
    error = _time_reversal_error(state, lambda s: propagate_two(s, well, cfg, cfg.steps)[-1])
    assert error <= 1e-12
