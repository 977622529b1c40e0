import math

import numpy as np
import pytest

from modlab import (
    MomentSpec,
    PacketSpec,
    SlitArraySpec,
    apply_region_phase,
    free_far_field,
    fringe_peaks,
    inner,
    make_grating,
    make_grid,
    make_packet,
    make_two_slit,
    superpose,
    to_momentum,
    translation_expect,
    weyl_moment,
)
from modlab.errors import (
    BadInterval,
    DisjointnessViolated,
    EdgeMargin,
    GridMismatch,
    ResolutionGuard,
    ZeroState,
)
from modlab.states import _packet_amps


def wide_grid(n=1024, length=128.0, hbar=1.0):
    return make_grid(n, -length / 2.0, length, hbar)


@pytest.mark.parametrize("kind", ["bump", "gaussian"])
@pytest.mark.parametrize("p0", [0.0, -0.0])
def test_packet_without_momentum_is_the_carrier_product_bit_for_bit(kind, p0):
    g = make_grid(512, -13.0, 32.0, 0.7)
    amps = _packet_amps(g, PacketSpec(kind, 1.3, 1.1, p0=p0), 1.3)
    env = amps.real
    product = env * np.exp(1j * p0 * g.x / g.hbar)
    assert np.array_equal(amps.view(np.uint64), product.view(np.uint64))  # signed zeros too
    moving = _packet_amps(g, PacketSpec(kind, 1.3, 1.1, p0=0.25), 1.3)
    np.testing.assert_allclose(np.abs(moving), env, rtol=1e-15, atol=0.0)


def test_gaussian_packet_moments():
    g = wide_grid()
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 1.0))
    x_mean = float(np.sum(psi.position_density() * g.x) * g.dx)
    mom = to_momentum(psi)
    p_mean = float(np.sum(mom.density() * g.p) * g.dp)
    assert abs(x_mean) < 1e-10
    assert abs(p_mean) < 1e-10


def test_bump_packet_compact_support():
    g = wide_grid()
    psi = make_packet(g, PacketSpec("bump", 0.0, 2.0))
    outside = np.abs(g.x) >= 2.0
    assert np.all(psi.amps[outside] == 0.0)


def test_packet_momentum_boost():
    g = wide_grid()
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 1.0, p0=3.0))
    mom = to_momentum(psi)
    peak = mom.grid.p[int(np.argmax(mom.density()))]
    assert abs(peak - 3.0) <= g.dp


def test_packet_guards():
    g = make_grid(64, -8.0, 16.0)  # dx = 0.25
    with pytest.raises(ResolutionGuard):
        make_packet(g, PacketSpec("bump", 0.0, 1.0))  # width == 4*dx
    g2 = wide_grid()
    with pytest.raises(EdgeMargin):
        make_packet(g2, PacketSpec("bump", -62.0, 1.0))
    with pytest.raises(EdgeMargin):
        make_packet(g2, PacketSpec("gaussian", 60.0, 2.0))


def test_superpose_idempotent_and_branch_weights():
    g = wide_grid()
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 1.0))
    total, _ = superpose([(psi, 1.0), (psi, 1.0)])
    assert np.max(np.abs(total.amps - psi.amps)) < 1e-13

    a = make_packet(g, PacketSpec("bump", -8.0, 2.0))
    b = make_packet(g, PacketSpec("bump", 8.0, 2.0))
    state, overlap = superpose([(a, 1.0), (b, np.exp(1j * 0.3))])
    assert overlap == 0.0
    left = np.abs(g.x + 8.0) <= 2.0
    weight = float(np.sum(np.abs(state.amps[left]) ** 2) * g.dx)
    assert weight == pytest.approx(0.5, abs=1e-12)


def test_superpose_errors():
    g = wide_grid()
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 1.0))
    with pytest.raises(ZeroState):
        superpose([(psi, 0.0), (psi, 0.0)])
    with pytest.raises(ZeroState):
        superpose([(psi, 1.0), (psi, -1.0)])
    other = make_packet(make_grid(512, -64.0, 128.0), PacketSpec("gaussian", 0.0, 1.5))
    with pytest.raises(GridMismatch):
        superpose([(psi, 1.0), (other, 1.0)])


def test_two_slit_translation_expectation():
    # independent oracle: one branch maps exactly onto the other with weight 1/2
    g = wide_grid(n=2048)
    pk = PacketSpec("bump", -4.0, 1.5)
    assert translation_expect(make_two_slit(g, 8.0, pk, 0.0), 8.0) == pytest.approx(
        0.5, abs=1e-10
    )
    assert translation_expect(make_two_slit(g, 8.0, pk, math.pi), 8.0) == pytest.approx(
        -0.5, abs=1e-10
    )


def test_two_slit_disjointness_guard():
    g = wide_grid()
    with pytest.raises(DisjointnessViolated):
        make_two_slit(g, 3.0, PacketSpec("bump", 0.0, 2.0), 0.0)


def test_two_slit_far_field_fringes():
    # gaussian two-slit: intensity ~ envelope * cos^2(pL/2hbar - alpha/2),
    # maxima at p = (alpha/2pi + m) h/L
    g = wide_grid(n=4096)
    L, alpha = 8.0, 1.1
    psi = make_two_slit(g, L, PacketSpec("gaussian", -L / 2.0, 0.4), alpha)
    peaks = fringe_peaks(free_far_field(psi))
    h_over_l = 2.0 * math.pi * g.hbar / L
    tallest = max(h for _, h in peaks)
    central = [(p, h) for p, h in peaks if h >= 0.25 * tallest]
    assert len(central) >= 3
    for p, _ in central:
        frac = p / h_over_l - alpha / (2.0 * math.pi)
        assert abs(frac - round(frac)) * h_over_l <= g.dp


def test_grating_peak_positions_zero_phase():
    g = wide_grid(n=4096)
    spec = SlitArraySpec(
        m_slits=8, spacing=8.0,
        packet=PacketSpec("bump", -28.0, 1.5),
        phases=(0.0,) * 8,
    )
    peaks = fringe_peaks(free_far_field(make_grating(g, spec)))
    h_over_l = 2.0 * math.pi / 8.0
    assert len(peaks) >= 3
    for p, _ in peaks:
        frac = p / h_over_l
        assert abs(frac - round(frac)) * h_over_l <= g.dp


def test_grating_peak_positions_alternating():
    g = wide_grid(n=4096)
    spec = SlitArraySpec(
        m_slits=8, spacing=8.0,
        packet=PacketSpec("bump", -28.0, 1.5),
        phases=tuple(math.pi * (s % 2) for s in range(8)),
    )
    peaks = fringe_peaks(free_far_field(make_grating(g, spec)))
    h_over_l = 2.0 * math.pi / 8.0
    assert len(peaks) >= 2
    for p, _ in peaks:
        frac = p / h_over_l - 0.5
        assert abs(frac - round(frac)) * h_over_l <= g.dp


def test_grating_two_slits_consistency():
    g = wide_grid(n=2048)
    pk = PacketSpec("bump", -4.0, 1.5)
    spec = SlitArraySpec(m_slits=2, spacing=8.0, packet=pk, phases=(0.0, 0.7))
    a = make_grating(g, spec)
    b = make_two_slit(g, 8.0, pk, 0.7)
    assert np.max(np.abs(a.amps - b.amps)) < 1e-13


def test_grating_weights_default_uniform():
    g = wide_grid(n=2048)
    pk = PacketSpec("bump", -4.0, 1.5)
    a = make_grating(g, SlitArraySpec(2, 8.0, pk, (0.0, 0.0)))
    b = make_grating(g, SlitArraySpec(2, 8.0, pk, (0.0, 0.0), weights=(2.0, 2.0)))
    assert np.max(np.abs(a.amps - b.amps)) < 1e-14


def test_apply_region_phase_identity_and_global():
    g = wide_grid(n=2048)
    psi = make_two_slit(g, 8.0, PacketSpec("bump", -4.0, 1.5), 0.4)
    same = apply_region_phase(psi, -10.0, 10.0, 0.0)
    assert np.max(np.abs(same.amps - psi.amps)) == 0.0

    everywhere = apply_region_phase(psi, g.x0, g.x0 + g.length, 1.234)
    # global phase leaves every observable unchanged
    assert abs(
        translation_expect(everywhere, 8.0) - translation_expect(psi, 8.0)
    ) < 1e-13
    for spec in (MomentSpec(0, 2), MomentSpec(1, 0)):
        assert abs(weyl_moment(everywhere, spec) - weyl_moment(psi, spec)) < 1e-13


def test_apply_region_phase_builds_branch_phase():
    g = wide_grid(n=2048)
    pk = PacketSpec("bump", -4.0, 1.5)
    alpha = 2.2
    plain = make_two_slit(g, 8.0, pk, 0.0)
    masked = apply_region_phase(plain, 4.0 - 1.5, 4.0 + 1.5, alpha)
    direct = make_two_slit(g, 8.0, pk, alpha)
    assert np.max(np.abs(masked.amps - direct.amps)) < 1e-13


def test_apply_region_phase_bad_interval():
    g = wide_grid()
    psi = make_packet(g, PacketSpec("gaussian", 0.0, 1.0))
    with pytest.raises(BadInterval):
        apply_region_phase(psi, 3.0, 3.0, 0.1)
    with pytest.raises(BadInterval):
        apply_region_phase(psi, -100.0, 0.0, 0.1)


def test_branch_orthogonality_property():
    g = wide_grid(n=2048)
    pk = PacketSpec("bump", -10.0, 2.0)
    psi1 = make_packet(g, pk)
    for L in (5.0, 8.0, 12.0):
        psi2 = make_packet(g, PacketSpec("bump", -10.0 + L, 2.0))
        assert inner(psi1, psi2) == 0.0


def test_global_phase_invariance_property():
    from modlab import WaveFunction, modular_distribution

    g = wide_grid(n=2048)
    psi = make_two_slit(g, 8.0, PacketSpec("bump", -4.0, 1.5), 0.9)
    rotated = WaveFunction(g, np.exp(1j * 0.77) * psi.amps)
    md_a = modular_distribution(psi, 8.0)
    md_b = modular_distribution(rotated, 8.0)
    assert np.max(np.abs(md_a.density - md_b.density)) < 1e-13
    assert np.max(np.abs(md_a.fourier - md_b.fourier)) < 1e-13
