import math
import tracemalloc
import warnings
from itertools import permutations

import numpy as np
import pytest

from modlab import (
    ClassicalState,
    OperatorMatrix,
    PacketSpec,
    PotentialSpec,
    build_p,
    build_translation,
    build_x,
    classical_step,
    ellipse_check,
    eom_identity_residual,
    make_grid,
    make_packet,
    translate,
    weyl_matrix,
)
from modlab.errors import ArgumentError, DegreeCap, DimCap, NonDifferentiableV, OffLatticeL


def small_grid(n=256, length=32.0, hbar=1.0):
    return make_grid(n, -length / 2.0, length, hbar)


def expect(op, psi):
    return complex(np.vdot(psi.amps, op @ psi.amps) * psi.grid.dx)


def test_build_x_diagonal():
    g = small_grid(64, 16.0)
    x = build_x(g)
    assert np.all(np.diag(x.entries) == g.x)
    assert np.max(np.abs(x.entries - np.diag(np.diag(x.entries)))) == 0.0


def test_build_x_expectation_matches_density():
    g = small_grid()
    psi = make_packet(g, PacketSpec("gaussian", 1.0, 1.5))
    via_matrix = expect(build_x(g).entries, psi).real
    via_density = float(np.sum(psi.position_density() * g.x) * g.dx)
    assert abs(via_matrix - via_density) < 1e-12


def test_build_p_plane_wave_eigenvector():
    g = small_grid(128, 16.0)
    p_mat = build_p(g).entries
    j = 11
    target = g.p[g.n // 2 + j]
    v = np.exp(1j * target * g.x / g.hbar) / math.sqrt(g.n)
    assert np.max(np.abs(p_mat @ v - target * v)) < 1e-12 * max(abs(target), 1.0)


def test_build_p_eigenvalues_are_lattice():
    g = small_grid(64, 16.0)
    evals = np.sort(np.linalg.eigvalsh(build_p(g).entries))
    assert np.max(np.abs(evals - np.sort(g.p))) < 1e-10


def test_build_p_matches_finite_difference():
    def fd_error(n):
        g = small_grid(n, 32.0)
        psi = make_packet(g, PacketSpec("gaussian", 0.0, 2.0, p0=0.5))
        spectral = build_p(g).entries @ psi.amps
        rolled_down = np.roll(psi.amps, -1)
        rolled_up = np.roll(psi.amps, 1)
        fd = -1j * g.hbar * (rolled_down - rolled_up) / (2.0 * g.dx)
        return float(np.max(np.abs(spectral - fd)))

    coarse, fine = fd_error(128), fd_error(256)
    assert 3.0 < coarse / fine < 5.0  # O(dx^2) difference


def test_canonical_commutator_on_interior_state():
    g = small_grid(256, 32.0)
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 1.2))
    x_mat, p_mat = build_x(g).entries, build_p(g).entries
    comm = x_mat @ p_mat - p_mat @ x_mat
    val = expect(comm, psi)
    assert abs(val - 1j * g.hbar) < 1e-6


def test_spectral_builds_match_explicit_fourier_product():
    # independent oracle: U* diag(f(p)) U with the plane-wave matrix built here
    g = small_grid(64, 16.0)
    u = np.exp(-1j * np.outer(g.p, g.x) / g.hbar) / math.sqrt(g.n)
    for built, f in ((build_p(g).entries, g.p), (weyl_matrix(g, 0, 3).entries, g.p**3)):
        direct = (u.conj().T * f[None, :]) @ u
        assert np.max(np.abs(built - direct)) < 1e-12 * np.max(np.abs(direct))


def test_off_lattice_translation_matches_spectral_shift():
    g = small_grid(256, 32.0)
    psi = make_packet(g, PacketSpec("gaussian", 0.5, 1.0, p0=0.8))
    a = 0.37 * g.dx
    t = build_translation(g, a).entries
    assert np.max(np.abs(t @ psi.amps - translate(psi, a).amps)) < 1e-12


def test_build_translation_identity_and_permutation():
    g = small_grid(64, 16.0)
    t0 = build_translation(g, 0.0).entries
    assert np.max(np.abs(t0 - np.eye(g.n))) < 1e-13
    t1 = build_translation(g, g.dx).entries
    perm = np.roll(np.eye(g.n), 1, axis=1)  # T[k, k+1] = 1: (T psi)_k = psi_{k+1}
    assert np.max(np.abs(t1 - perm)) < 1e-14


def test_build_translation_inverse_and_unitarity():
    g = small_grid(64, 16.0)
    L = 5 * g.dx
    t = build_translation(g, L).entries
    t_inv = build_translation(g, -L).entries
    assert np.max(np.abs(t @ t_inv - np.eye(g.n))) < 1e-13
    assert np.max(np.abs(t.conj().T @ t - np.eye(g.n))) < 1e-13


def test_translation_action_matches_roll():
    g = small_grid(128, 16.0)
    psi = make_packet(g, PacketSpec("bump", 0.0, 1.0))
    m = 9
    t = build_translation(g, m * g.dx).entries
    assert np.max(np.abs(t @ psi.amps - np.roll(psi.amps, -m))) < 1e-12


def test_kinetic_commutes_with_translation():
    g = small_grid(128, 16.0)
    p_mat = build_p(g).entries
    kin = p_mat @ p_mat / 2.0
    t = build_translation(g, 8 * g.dx).entries
    assert np.max(np.abs(kin @ t - t @ kin)) < 1e-13 * np.max(np.abs(kin))


def test_eom_identity_zero_potential():
    # gentle momentum scale keeps the kinetic-commutator roundoff tiny
    g = make_grid(256, -512.0, 1024.0)
    assert eom_identity_residual(g, PotentialSpec.zero(), 8 * g.dx) < 1e-14


def test_eom_identity_barrier():
    g = make_grid(256, -128.0, 256.0)
    v = PotentialSpec.barrier(2.0, -1.0, 1.0)
    scale = float(np.max(np.abs(v.values(g))))
    assert eom_identity_residual(g, v, 8 * g.dx) < 1e-12 * scale


def test_eom_identity_periodic_potential_correction_vanishes():
    g = make_grid(256, -128.0, 256.0)
    m = 8
    L = m * g.dx
    # tile one period so V(x) = V(x+L) holds bitwise
    one_period = 0.7 * np.cos(2.0 * math.pi * np.arange(m) / m)
    vals = np.tile(one_period, g.n // m)
    v = PotentialSpec.sampled(vals)
    assert np.all(vals - np.roll(vals, -m) == 0.0)
    assert eom_identity_residual(g, v, L) < 1e-12 * 0.7


def test_eom_identity_residual_matches_the_explicit_expression():
    # the in-place buffers must give the residual of the plain expression, bit for bit
    g = make_grid(256, -128.0, 256.0, hbar=0.7)
    noise = np.random.default_rng(13).normal(size=g.n)
    for v in (PotentialSpec.barrier(2.0, -3.0, 3.0), PotentialSpec.harmonic(0.02),
              PotentialSpec.sampled(noise)):
        vals = v.values(g)
        p_mat = build_p(g).entries
        h = p_mat @ p_mat / 2.0 + np.diag(vals.astype(complex))
        for m in (1, 8, 64):
            t = build_translation(g, m * g.dx).entries
            correction = (vals - np.roll(vals, -m))[:, None] * t
            want = float(np.max(np.abs((1j / g.hbar) * (h @ t - t @ h - correction))))
            assert eom_identity_residual(g, v, m * g.dx) == want, (v.kind, m)


@pytest.mark.parametrize("n", [8, 32, 512])
def test_eom_identity_residual_matches_the_explicit_expression_by_row_blocks(n):
    # one block of n < 64 rows, or n / 64 full blocks; hbar and mass away from 1
    g = make_grid(n, -n / 8.0, n / 4.0, hbar=0.7)
    mass = 1.3
    v = PotentialSpec.sampled(np.random.default_rng(n).normal(size=n))
    vals = v.values(g)
    p_mat = build_p(g).entries
    h = p_mat @ p_mat / (2.0 * mass) + np.diag(vals.astype(complex))
    for m in (1, 3, n // 2):
        t = build_translation(g, m * g.dx).entries
        correction = (vals - np.roll(vals, -m))[:, None] * t
        want = float(np.max(np.abs((1j / g.hbar) * (h @ t - t @ h - correction))))
        assert eom_identity_residual(g, v, m * g.dx, mass) == want, m


def test_eom_identity_residual_holds_no_commutator_matrix():
    # H and T_L are 2 n x n arrays, and the two row-block buffers 1/4 more at
    # n = 512; one more n x n complex array (a whole commutator or product) breaks it
    g = make_grid(512, -64.0, 128.0)
    v = PotentialSpec.barrier(2.0, -3.0, 3.0)
    tracemalloc.start()
    try:
        eom_identity_residual(g, v, 8 * g.dx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * g.n**2 * 16


def test_eom_identity_guards():
    g = small_grid()
    with pytest.raises(OffLatticeL):
        eom_identity_residual(g, PotentialSpec.zero(), 0.3 * g.dx)
    big = make_grid(4096, -32.0, 64.0)
    with pytest.raises(DimCap):
        eom_identity_residual(big, PotentialSpec.zero(), big.dx)


@pytest.mark.parametrize("mass", [0.0, -1.0, math.nan, math.inf])
def test_eom_identity_refuses_a_non_positive_mass(mass):
    g = small_grid(64, 16.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError):
            eom_identity_residual(g, PotentialSpec.zero(), g.dx, mass)


def test_weyl_matrix_lowest_mixed_case():
    g = small_grid(64, 16.0)
    x_mat, p_mat = build_x(g).entries, build_p(g).entries
    w = weyl_matrix(g, 1, 1).entries
    direct = 0.5 * (x_mat @ p_mat + p_mat @ x_mat)
    assert np.max(np.abs(w - direct)) < 1e-12 * np.max(np.abs(direct))


def test_weyl_matrix_pure_momentum_power():
    g = small_grid(64, 16.0)
    p_mat = build_p(g).entries
    w = weyl_matrix(g, 0, 3).entries
    direct = p_mat @ p_mat @ p_mat
    assert np.max(np.abs(w - direct)) < 1e-10 * np.max(np.abs(direct))


def test_weyl_matrix_matches_permutation_average():
    # brute-force oracle: average of all distinct orderings of x,x,p,p agrees
    # on interior states (the two orderings differ only through wrap effects)
    g = small_grid(256, 32.0)
    x_mat, p_mat = build_x(g).entries, build_p(g).entries
    acc = np.zeros_like(x_mat)
    seen = set()
    for perm in permutations("xxpp"):
        if perm in seen:
            continue
        seen.add(perm)
        term = np.eye(g.n, dtype=complex)
        for ch in perm:
            term = term @ (x_mat if ch == "x" else p_mat)
        acc += term
    oracle = acc / len(seen)
    w = weyl_matrix(g, 2, 2).entries
    for center, sigma in ((0.0, 1.2), (2.0, 0.9), (-3.0, 1.5)):
        psi = make_packet(g, PacketSpec("gaussian", center, sigma))
        a = expect(w, psi)
        b = expect(oracle, psi)
        assert abs(a - b) < 1e-11


def test_weyl_matrix_hermitian_real_expectations():
    g = small_grid(128, 16.0)
    psi = make_packet(g, PacketSpec("gaussian", 0.5, 0.8, p0=0.7))
    for n_x, m_p in ((1, 1), (2, 1), (1, 2), (3, 2)):
        w = weyl_matrix(g, n_x, m_p)
        assert w.hermitian
        assert abs(expect(w.entries, psi).imag) < 1e-10


def test_weyl_matrix_degree_cap():
    g = small_grid(64, 16.0)
    with pytest.raises(DegreeCap):
        weyl_matrix(g, 4, 3)


def test_operator_matrix_hermitian_validation():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        OperatorMatrix(2, bad, hermitian=True)


def test_weyl_matrix_matches_binomial_definition():
    # 2^-n sum_k C(n,k) X^k P^m X^(n-k) from dense products, every degree to 6
    g = make_grid(64, -5.0, 16.0)
    x_mat, p_mat = build_x(g).entries, build_p(g).entries
    x_pow = [np.linalg.matrix_power(x_mat, k) for k in range(7)]
    for n_x in range(7):
        for m_p in range(7 - n_x):
            pm = np.linalg.matrix_power(p_mat, m_p)
            direct = sum(math.comb(n_x, k) * x_pow[k] @ pm @ x_pow[n_x - k]
                         for k in range(n_x + 1)) / 2.0**n_x
            w = weyl_matrix(g, n_x, m_p).entries
            assert np.max(np.abs(w - direct)) < 1e-12 * np.max(np.abs(direct)), (n_x, m_p)


@pytest.mark.parametrize("row,col", [(3, 100), (290, 270), (290, 10), (299, 299)])
def test_hermitian_guard_finds_one_entry_in_any_row_block(row, col):
    # dim 300 spans two full 128-wide tiles and a partial one (four full 64-row
    # blocks and a partial one); the entry sits in the first or the last, below
    # or above the diagonal, or on it
    rng = np.random.default_rng(5)
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    h = a + a.conj().T
    OperatorMatrix(300, h.copy(), hermitian=True)
    h[row, col] += 1e-9j
    with pytest.raises(ValueError):
        OperatorMatrix(300, h, hermitian=True)


def test_hermitian_guard_scales_its_bound_with_the_entries():
    # entries ~1e6: a 1e-9 asymmetry is past 1e-12 but within 1e-12 max|e|, so it
    # passes only through the max|e| pass; a 1e-5 asymmetry is past that bound too
    rng = np.random.default_rng(11)
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    h = 1e6 * (a + a.conj().T)
    for shift, ok in ((1e-9, True), (1e-5, False)):
        bad = h.copy()
        bad[17, 230] += shift
        if ok:
            OperatorMatrix(300, bad, hermitian=True)
        else:
            with pytest.raises(ValueError):
                OperatorMatrix(300, bad, hermitian=True)


@pytest.mark.parametrize("n_x,m_p", [(1, 1), (3, 2), (0, 2)])
def test_weyl_matrix_equals_the_copy_then_scale_expression(n_x, m_p):
    # the row blocks written from a strided view give the entries of the plain
    # expression bit for bit: gather P^m, then scale it by the midpoint power
    g = make_grid(256, -30.5, 61.0)
    c = np.fft.ifft(np.fft.ifftshift(g.p**m_p))
    want = c[(np.arange(g.n)[:, None] - np.arange(g.n)) % g.n]
    if n_x:
        mid = np.add.outer(g.x, g.x)
        mid *= 0.5
        pw = mid
        for _ in range(n_x - 1):
            pw = pw * mid
        want *= pw
    got = weyl_matrix(g, n_x, m_p).entries
    assert np.array_equal(got.view(float), want.view(float))


@pytest.mark.parametrize("entries", [[[math.nan, 5.0], [0.0, 0.0]],
                                     [[1.0, math.nan], [math.nan, 1.0]]])
def test_hermitian_guard_refuses_nan(entries):
    with pytest.raises(ValueError):
        OperatorMatrix(2, entries, hermitian=True)


@pytest.mark.parametrize("entries", [[[1.0, 0.0], [0.0, math.inf]],
                                     [[1.0, math.inf], [math.inf, 1.0]]])
def test_hermitian_guard_refuses_inf_without_a_warning(entries):
    # inf - inf is NaN: the guard reports it as a ValueError, not a RuntimeWarning
    # (an error under this suite's filter) or a FloatingPointError
    with pytest.raises(ValueError):
        OperatorMatrix(2, entries, hermitian=True)
    with np.errstate(invalid="raise"), pytest.raises(ValueError):
        OperatorMatrix(2, entries, hermitian=True)


def test_operator_matrix_leaves_the_callers_array_writable():
    h = np.eye(4, dtype=complex)
    op = OperatorMatrix(4, h, hermitian=True)
    assert h.flags.writeable
    assert not op.entries.flags.writeable


def test_weyl_matrix_working_memory_is_the_result_plus_blocks():
    # the 64 MiB result at n = 2048, plus row-block temporaries; a full n x n
    # midpoint factor (32 MiB) would break the bound
    g = make_grid(2048, -128.0, 256.0)
    tracemalloc.start()
    try:
        w = weyl_matrix(g, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.entries.nbytes == 64 * 2**20
    assert peak < 72 * 2**20


def test_classical_free_momentum_constant():
    s = ClassicalState(0.5, 1.25)
    for _ in range(50):
        s = classical_step(s, PotentialSpec.zero(), 0.01)
    assert s.p == 1.25
    assert s.x == pytest.approx(0.5 + 50 * 0.01 * 1.25, rel=1e-12)


def test_classical_harmonic_energy_drift():
    k = 1.0
    period = 2.0 * math.pi
    dt = period / 1000.0
    s = ClassicalState(1.0, 0.0)
    v = PotentialSpec.harmonic(k)

    def energy(st):
        return 0.5 * st.p**2 + 0.5 * k * st.x**2

    e0 = energy(s)
    for _ in range(100_000):
        s = classical_step(s, v, dt)
    assert abs(energy(s) - e0) < 1e-6


def test_classical_chain_rule_second_order():
    # d cos(pL/h)/dt = -sin(pL/h) (L/h) dp/dt with dp/dt = -V'(x)
    k, L = 1.0, 3.0
    v = PotentialSpec.harmonic(k)

    def residual(dt):
        s = ClassicalState(0.7, 0.4)
        for _ in range(int(round(0.5 / dt))):
            s = classical_step(s, v, dt)
        before = classical_step(s, v, -dt)
        after = classical_step(s, v, dt)
        num = (math.cos(after.p * L) - math.cos(before.p * L)) / (2.0 * dt)
        analytic = -math.sin(s.p * L) * L * (-k * s.x)
        return abs(num - analytic)

    r_coarse, r_fine = residual(2e-3), residual(1e-3)
    assert 3.0 < r_coarse / r_fine < 5.0


@pytest.mark.parametrize("dt, mass", [
    (0.01, 0.0), (0.01, -1.0), (0.01, math.nan), (0.01, math.inf),
    (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
])
def test_classical_step_rejects_bad_mass_or_dt(dt, mass):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError):
            classical_step(ClassicalState(0.5, 1.25), PotentialSpec.harmonic(1.0), dt, mass=mass)


def test_classical_sampled_potential_slope():
    g = small_grid(256, 32.0)
    k = 0.8
    v = PotentialSpec.sampled(0.5 * k * g.x**2 * np.exp(-(g.x**2) / 100.0))
    s = ClassicalState(1.0, 0.0)
    stepped = classical_step(s, v, 1e-3, grid=g)
    # near x=1 the sampled well behaves like the harmonic one
    harmonic = classical_step(s, PotentialSpec.harmonic(k), 1e-3)
    assert stepped.p == pytest.approx(harmonic.p, abs=1e-4)


def test_classical_barrier_rejected():
    s = ClassicalState(0.0, 1.0)
    with pytest.raises(NonDifferentiableV):
        classical_step(s, PotentialSpec.barrier(1.0, 0.0, 1.0), 0.01)
    with pytest.raises(ValueError):
        classical_step(s, PotentialSpec.sampled([0.0] * 16), 0.01)  # no grid


def test_ellipse_degenerate_zero_total():
    assert ellipse_check(0.0, 3.0, 1.0) < 1e-14


def test_ellipse_circle_case():
    # P L / hbar = pi/2 turns the conic into u^2 + v^2 = 1
    assert ellipse_check(math.pi / 2.0, 1.0, 1.0) < 1e-13


def test_ellipse_random_draws():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p_tot = float(rng.uniform(-20, 20))
        L = float(rng.uniform(0.1, 10))
        hbar = float(rng.uniform(0.1, 3))
        assert ellipse_check(p_tot, L, hbar, samples=32) < 1e-12


def test_ellipse_samples_guard():
    with pytest.raises(ValueError):
        ellipse_check(1.0, 1.0, 1.0, samples=8)


@pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0),
                                  (1.0, math.nan, 1.0), (1.0, math.inf, 1.0),
                                  (1.0, 0.0, 1.0), (1.0, -1.0, 1.0),
                                  (1.0, 1.0, 0.0), (1.0, 1.0, math.nan)])
def test_ellipse_refuses_non_finite_or_non_positive_arguments(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError):
            ellipse_check(*args)


def test_dim_cap_on_builders():
    big = make_grid(4096, -32.0, 64.0)
    with pytest.raises(DimCap):
        build_x(big)


def test_classical_vs_quantum_contrast():
    # a potential localized on one branch: the classical folded-momentum value
    # of a particle at the distant branch never moves, the quantum one does
    from modlab import (
        PropagatorConfig,
        make_two_slit,
        propagate,
        translation_expect,
    )

    g = make_grid(1024, -32.0, 64.0)
    L = round(8.0 / g.dx) * g.dx
    bump_right = np.exp(-((g.x - L / 2.0) ** 2) / 0.5)
    v = PotentialSpec.sampled(2.0 * bump_right)

    s = ClassicalState(-L / 2.0, 0.0)  # at the branch the potential does not touch
    f0 = math.cos(s.p * L / g.hbar)
    for _ in range(200):
        s = classical_step(s, v, 1e-3, grid=g)
    assert abs(math.cos(s.p * L / g.hbar) - f0) < 1e-8

    psi = make_two_slit(g, L, PacketSpec("bump", -L / 2.0, 1.5), 0.0)
    snaps = propagate(psi, v, PropagatorConfig(dt=1e-3, steps=200), snapshot_every=200)
    t_before = translation_expect(snaps[0], L)
    t_after = translation_expect(snaps[-1], L)
    assert abs(t_after - t_before) > 1e-4
