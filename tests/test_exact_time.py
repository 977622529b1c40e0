"""An exact-in-time oracle for the split-operator stepper.

On the lattice each total-momentum sector row J of a two-particle state
evolves under the Hermitian H_J = F^-1 diag(K_J) F + diag(v), where F is the
DFT over r = x1 - x2 and K_J[j1] = (p_raw[j1]^2 + p_raw[(J - j1) mod n]^2)/2m;
a one-particle state is the single row with K = p_raw^2/2m. With
H_J = U diag(w) U^H from `numpy.linalg.eigh`, the row at time t is
U exp(-i w t/hbar) U^H row(0), with no time-step error at all. The tests
hold the stepper's <T1> error against it to the order of each splitting,
and <T12>, which every stage conserves, to roundoff.
"""

import math
import warnings

import numpy as np
import pytest

from modlab import (
    PotentialSpec,
    PropagatorConfig,
    TwoParticleState,
    WaveFunction,
    make_grid,
    product_state,
    propagate,
    propagate_two,
    translation_expect,
    translation_expect_two,
)
from modlab.errors import PhaseWrapWarning
from modlab.evolve import (
    SPLITTINGS,
    _from_sectors,
    _shear,
    _to_sectors,
    _two_particle_potential,
)


def _evolvers(kinetic: np.ndarray, v: np.ndarray, hbar: float):
    """For each row of `kinetic` (K_J over the transform's index), the
    eigenpairs of H_J = F^-1 diag(K_J) F + diag(v)."""
    n = len(v)
    dft = np.fft.fft(np.eye(n), axis=0)  # F[k, m] = exp(-2 pi i k m / n)
    pairs = []
    for k in kinetic:
        h = dft.conj().T @ (k[:, None] * dft) / n + np.diag(v)
        w, u = np.linalg.eigh(h)
        pairs.append((w / hbar, u))
    return pairs


def exact_rows(rows: np.ndarray, kinetic: np.ndarray, v: np.ndarray, hbar: float,
               times) -> list[np.ndarray]:
    """Each row of `rows` evolved under its own H_J to each time in `times`."""
    pairs = _evolvers(kinetic, v, hbar)
    coefficients = [u.conj().T @ row for row, (_, u) in zip(rows, pairs)]
    return [np.array([u @ (np.exp(-1j * w * t) * c) for c, (w, u) in zip(coefficients, pairs)])
            for t in times]


def exact_snapshots(state, v: PotentialSpec, cfg: PropagatorConfig, every: int) -> list:
    """The states at steps 0, every, ..., cfg.steps of exact evolution under
    the lattice Hamiltonian `propagate` (rank 1) or `propagate_two` (rank 2)
    steps with, in the input's type."""
    g = state.grid
    times = cfg.dt * np.arange(0, cfg.steps + 1, every)
    p2 = g.p_raw**2
    if state.rank == 1:
        out = exact_rows(state.amps[None], p2[None] / (2.0 * cfg.mass), v.values(g), g.hbar, times)
        return [WaveFunction(g, rows[0]) for rows in out]
    n = g.n
    j1 = np.arange(n)
    kinetic = np.array([p2 + p2[(J - j1) % n] for J in range(n)]) / (2.0 * cfg.mass)
    shear = _shear(n)
    out = exact_rows(_to_sectors(state.amps, shear), kinetic, _two_particle_potential(g, v),
                     g.hbar, times)
    return [TwoParticleState(g, _from_sectors(rows, shear)) for rows in out]


# --- setups -----------------------------------------------------------------------------

def _one_particle():
    # a packet meeting a smooth barrier, at mass 2 and hbar 0.7
    g = make_grid(256, -16.0, 32.0, 0.7)
    psi = WaveFunction(g, np.exp(-0.5 * (g.x + 2.0) ** 2 + 1.2j * g.x / g.hbar)).normalized()
    barrier = PotentialSpec.sampled(1.5 * np.exp(-g.x**2))
    return psi, barrier, 2.0, lambda s: translation_expect(s, 2.0)


def _two_particles():
    # two packets meeting in an attractive well, at mass 2; n = 64 is too
    # coarse for make_packet's margins
    g = make_grid(64, -8.0, 16.0)
    a, b = (WaveFunction(g, np.exp(-0.5 * (g.x - c) ** 2 + 1j * p0 * g.x))
            for c, p0 in ((-2.0, 1.5), (2.0, -1.5)))
    well = PotentialSpec.sampled(-4.0 * np.exp(-g.x**2 / 2.0))
    return product_state(a, b), well, 2.0, None


_SETUPS = {"one-particle": _one_particle, "two-particles": _two_particles}
# (steps at the coarse dt, snapshot_every) over t in [0, 1.2]: every table in
# SPLITTINGS needs an entry here and in _RATIO
_COARSE = {"strang": (24, 4), "suzuki4": (12, 2)}
_RATIO = {"strang": (3.8, 4.2), "suzuki4": (14.0, 18.0)}


def _expectations(setup, snaps):
    state, _, _, t1 = setup
    if state.rank == 1:
        return np.array([t1(s) for s in snaps]), None
    return (np.array([translation_expect_two(s, 2.0, 1, 0) for s in snaps]),
            np.array([translation_expect_two(s, 2.0, 1, 1) for s in snaps]))


def _errors(name, splitting):
    """Max <T1> error against the exact snapshots at dt and dt/2, and the
    largest <T12> error of the two runs (None in 1-D)."""
    setup = _SETUPS[name]()
    state, v, mass, _ = setup
    steps, every = _COARSE[splitting]
    step = propagate if state.rank == 1 else propagate_two
    exact_t1, exact_t12 = _expectations(
        setup, exact_snapshots(state, v, PropagatorConfig(1.2 / steps, steps, mass), every))
    t1_errors, t12_error = [], 0.0
    for k in (1, 2):
        cfg = PropagatorConfig(1.2 / (k * steps), k * steps, mass, splitting)
        t1, t12 = _expectations(setup, step(state, v, cfg, k * every))
        t1_errors.append(np.max(np.abs(t1 - exact_t1)))
        if t12 is not None:
            t12_error = max(t12_error, np.max(np.abs(t12 - exact_t12)))
    return t1_errors, (t12_error if state.rank == 2 else None)


@pytest.mark.parametrize("splitting", sorted(SPLITTINGS))
@pytest.mark.parametrize("name", sorted(_SETUPS))
def test_t1_error_falls_at_the_order_of_the_splitting(name, splitting):
    (coarse, fine), t12_error = _errors(name, splitting)
    lo, hi = _RATIO[splitting]
    assert lo <= coarse / fine <= hi, (coarse, fine)
    assert fine > 1e-11  # far above roundoff, so the ratio measures the time step
    if t12_error is not None:
        assert t12_error < 1e-13


@pytest.mark.parametrize("splitting", sorted(SPLITTINGS))
def test_splitting_is_a_symmetric_table_of_kicks_and_drifts(splitting):
    kicks, drifts = SPLITTINGS[splitting]
    assert len(kicks) == len(drifts) + 1
    for coefficients in (kicks, drifts):
        assert coefficients == coefficients[::-1]
        assert abs(math.fsum(coefficients) - 1.0) <= 1e-15


@pytest.mark.parametrize("factor, warns", [(1.001, True), (0.999, False)])
def test_suzuki4_phase_wrap_guard_reads_the_largest_stage(factor, warns):
    # a state with weight on every momentum, stepped at dt = factor * dt_wrap:
    # the suzuki4 middle stage, |1 - 4p| dt = 0.658 dt, advances the phase of
    # the largest |p| by factor * pi, and the outer stages, p dt, by 0.63 pi
    g = make_grid(128, -16.0, 32.0)
    rng = np.random.default_rng(3)
    psi = WaveFunction(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)).normalized()
    largest = 4.0 / (4.0 - 4.0 ** (1.0 / 3.0)) - 1.0  # |1 - 4p|, p = 1/(4 - 4^(1/3))
    dt = factor * 2.0 * math.pi * g.hbar / (largest * float(np.max(g.p_raw**2)))
    cfg = PropagatorConfig(dt, 1, splitting="suzuki4")
    if warns:
        with pytest.warns(PhaseWrapWarning, match="rad/stage"):
            propagate(psi, PotentialSpec.zero(), cfg)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            propagate(psi, PotentialSpec.zero(), cfg)
