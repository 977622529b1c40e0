"""Time evolution: second-order split-operator propagation for one particle in
a potential, the exact free far-field map, and two-particle evolution with a
translation-invariant interaction V(x1 - x2).

The far field of free evolution is computed exactly as the momentum
distribution of the state rather than by long propagation: for detection
statistics the two are identical, and the spectral route has no domain-size
artifacts.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _fft
from .errors import (
    ArgumentError,
    GridMismatch,
    NonFiniteAmplitude,
    PhaseWrapWarning,
)
from .grid import (
    Amplitudes,
    Grid,
    MomentumAmplitudes,
    WaveFunction,
    circulant,
    lattice_steps,
    to_momentum,
)

_POTENTIAL_KINDS = ("zero", "harmonic", "barrier", "sampled")


@dataclass(frozen=True)
class PotentialSpec:
    """A static potential: zero, harmonic (0.5*k_spring*x^2), a rectangular
    barrier of the given height on [x_lo, x_hi), one-sided if a bound is
    infinite, or explicit samples on the grid lattice."""

    kind: str
    k_spring: float = 0.0
    height: float = 0.0
    x_lo: float = 0.0
    x_hi: float = 0.0
    samples: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _POTENTIAL_KINDS:
            raise ArgumentError(f"kind must be one of {_POTENTIAL_KINDS}, got {self.kind!r}")
        if self.kind == "sampled":
            if self.samples is None:
                raise ArgumentError("sampled potential needs samples")
            if not np.all(np.isfinite(self.samples)):
                raise ArgumentError("potential samples must be finite")
        for name in ("k_spring", "height", "x_lo", "x_hi"):
            value = getattr(self, name)
            if math.isnan(value) or (math.isinf(value) and not name.startswith("x")):
                raise ArgumentError(f"potential {name} must not be {value}")

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(kind="zero")

    @classmethod
    def harmonic(cls, k_spring: float) -> "PotentialSpec":
        return cls(kind="harmonic", k_spring=float(k_spring))

    @classmethod
    def barrier(cls, height: float, x_lo: float, x_hi: float) -> "PotentialSpec":
        return cls(kind="barrier", height=float(height), x_lo=float(x_lo), x_hi=float(x_hi))

    @classmethod
    def sampled(cls, values) -> "PotentialSpec":
        return cls(kind="sampled", samples=tuple(float(v) for v in values))

    def values(self, grid: Grid) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros(grid.n)
        if self.kind == "harmonic":
            return 0.5 * self.k_spring * grid.x**2
        if self.kind == "barrier":
            return np.where((grid.x >= self.x_lo) & (grid.x < self.x_hi), self.height, 0.0)
        vals = np.asarray(self.samples, dtype=float)
        if vals.shape != (grid.n,):
            raise GridMismatch(f"sampled potential has {vals.shape} values, grid has {grid.n}")
        return vals


# Suzuki's fourth-order fractal (Phys. Lett. A 146, 319 (1990)), p = 1/(4 - 4^(1/3)),
# written out so that no platform's pow rounds it; 1 - 4p is exact in floats
_P4 = 0.4144907717943757

# (kicks b_0..b_s, drifts a_1..a_s) of one step, palindromes summing to 1: Strang
# (1968), and Suzuki's five Strang stages (p, p, 1 - 4p, p, p), fourth order
SPLITTINGS = {
    "strang": ((0.5, 0.5), (1.0,)),
    "suzuki4": ((_P4 / 2, _P4, (1.0 - 3.0 * _P4) / 2, (1.0 - 3.0 * _P4) / 2, _P4, _P4 / 2),
                (_P4, _P4, 1.0 - 4.0 * _P4, _P4, _P4)),
}


@dataclass(frozen=True)
class PropagatorConfig:
    """dt is the length of one composite step and steps counts them;
    `splitting` names the table of kicks and drifts each step makes."""

    dt: float
    steps: int
    mass: float = 1.0
    splitting: str = "strang"

    def __post_init__(self):
        # an inf dt or mass would step to NaN or leave the state unmoved, and a
        # float steps would fail in range: each is refused here, by name
        if not 0.0 < self.dt < math.inf:
            raise ArgumentError(f"dt must be positive and finite, got {self.dt}")
        if not isinstance(self.steps, numbers.Integral) or self.steps < 1:
            raise ArgumentError(f"steps must be an integer >= 1, got {self.steps!r}")
        if not 0.0 < self.mass < math.inf:
            raise ArgumentError(f"mass must be positive and finite, got {self.mass}")
        if self.splitting not in SPLITTINGS:
            raise ArgumentError(
                f"splitting must be one of {tuple(SPLITTINGS)}, got {self.splitting!r}")


def propagate(
    psi: WaveFunction,
    V: PotentialSpec,
    cfg: PropagatorConfig,
    snapshot_every: int = 1,
) -> list[WaveFunction]:
    """Split-operator evolution: each step is the kick exp(-iV b_0 dt/h), then
    per drift a_i the drift exp(-ip^2 a_i dt/2mh) and the kick b_i of
    `cfg.splitting`; for the default "strang" the kicks are 1/2 and the drift 1.

    Returns snapshots at steps 0, snapshot_every, 2*snapshot_every, ..., steps;
    steps must be a multiple of snapshot_every so the cadence is uniform.
    """
    return _strang(psi, V.values(psi.grid), cfg, snapshot_every)


# input probability allowed on momenta whose phase per step reaches pi: far
# above FFT roundoff, below the ~8e-7 of a unit-width packet at dt = 1
PHASE_WRAP_PROBABILITY = 1e-8

# share of the probability at or below which a two-particle sector row is not
# stepped: its amplitudes are then at most 2^-52 of the state's norm, the
# roundoff of one double
SECTOR_WEIGHT_FLOOR = 2.0**-104


def _strang(
    state: Amplitudes,
    v: np.ndarray,
    cfg: PropagatorConfig,
    every: int,
    observe: Callable[[np.ndarray], object] | None = None,
) -> list:
    """The split-operator stepper shared by one- and two-particle evolution.

    It evolves a stack of rows and transforms over the last axis only. A
    one-particle state is one row. A two-particle state is changed once into
    its total-momentum sectors (`_to_sectors`): row J holds the amplitudes
    over r = x1 - x2 at one total momentum p1 + p2, which H conserves, so
    every row sees the same potential v(r) and its own kinetic phase
    (p1^2 + p2^2) over p1. Between snapshots the rows never leave their
    sectors, and one transform over r gives the joint momentum amplitudes:
    entry [J, j1] of `fft(rows, axis=-1)` is the amplitude at
    (p_raw[j1], p_raw[(J - j1) mod n]).

    Each step follows the table (b_0..b_s, a_1..a_s) of
    `SPLITTINGS[cfg.splitting]`: the kick exp(-i v b_0 dt/h), then per i the
    drift, which transforms each row, applies the kinetic phase
    exp(-i p^2 a_i dt/2mh) and transforms back, and the kick b_i. Each
    distinct a_i has one kinetic tile and each distinct b_i one kick tile.
    Between two steps with no snapshot the kicks b_s and b_0 meet, and the
    stepper applies their product, the joining kick; at a snapshot it
    applies b_s, observes, then b_0 unless it is the last step. For
    "strang", ((1/2, 1/2), (1,)), the joining kick is the square of the half
    kick exp(-i v dt/2h).

    At steps 0, every, ..., steps the stepper calls `observe(rows,
    sectors=...)` and returns the list of what it returned. `observe` must
    not modify the rows. `sectors` is None when the rows are the whole
    stack (always at snapshot 0); otherwise it holds the index of each row
    handed over, for two particles its total-momentum index J. By default
    the observer returns position-basis states of the input's type (rows
    changed back to (x1, x2) through `_from_sectors`), each checked for
    non-finite values; snapshot 0 is then a copy of the input.

    Sector screening: a row's weight never changes, and a zero row stays
    exactly zero under the step. So after snapshot 0 the stepper steps only
    the rows holding more than `SECTOR_WEIGHT_FLOOR` of the total weight
    (85 of 256 for the `two-particle` experiment at its defaults, none for
    a zero state), and `observe` gets that compact stack with its row
    indices. Only the default observer scatters it into a zeroed stack to
    rebuild the position state. If the rows dropped hold a share delta of
    the probability, each snapshot moves by at most sqrt(delta) of the
    norm, and each translation expectation by at most 2 delta.

    Phase-wrap contract: the kinetic phase per drift, p^2 |a_i| dt/2mh (for
    two particles (p1^2 + p2^2) |a_i| dt/2mh), is ambiguous once it reaches
    pi. The stepper warns with `PhaseWrapWarning` when the input puts more
    than `PHASE_WRAP_PROBABILITY` of its probability, measured in the basis
    it steps in, on lattice momenta whose phase in the largest drift,
    max |a_i| dt, is at least pi.
    """
    if not isinstance(every, numbers.Integral) or every < 1 or cfg.steps % every != 0:
        raise ArgumentError(
            f"snapshot_every must be an integer >= 1 dividing steps = {cfg.steps}, got {every!r}")
    _check_finite(state.amps)
    g = state.grid
    p2 = g.p_raw**2
    # `rows` is a private stack, transformed in place
    if state.rank == 2:
        p2 = p2 + circulant(p2)  # [J, j1]: p_raw[j1]^2 + p_raw[(J - j1) mod n]^2
        shear = _shear(g.n)
        rows = _to_sectors(state.amps, shear)
        positions = functools.partial(_from_sectors, shear=shear)
    else:
        rows, p2, positions = state.amps[None].copy(), p2[None], np.ndarray.flatten
    kicks, drifts = SPLITTINGS[cfg.splitting]
    wrapped = p2 * (max(map(abs, drifts)) * cfg.dt / (2.0 * cfg.mass * g.hbar)) >= math.pi
    if np.any(wrapped):
        weights = np.abs(_fft.fft(rows, axis=-1)) ** 2
        share, total = np.sum(weights[wrapped]), np.sum(weights)
        if share > PHASE_WRAP_PROBABILITY * total:
            warnings.warn(
                f"{share / total:.3g} of the probability sits on momenta whose "
                "kinetic phase advance reaches pi rad/stage",
                PhaseWrapWarning,
                stacklevel=3,
            )
    stack = rows.shape
    if observe is None:
        def observe(rows, sectors=None):
            if sectors is not None:
                full = np.zeros(stack, dtype=complex)
                full[sectors] = rows
                rows = full
            amps = positions(rows)
            _check_finite(amps)
            return type(state)(g, amps)

        snapshots = [type(state)(g, state.amps.copy())]
    else:
        snapshots = [observe(rows, sectors=None)]
    weight = np.sum(np.abs(rows) ** 2, axis=-1)
    sectors = np.flatnonzero(weight > SECTOR_WEIGHT_FLOOR * np.sum(weight))
    if len(sectors) == len(weight):
        sectors = None
    else:
        rows, p2 = rows[sectors], p2[sectors]
    kinetic = {a: np.exp(-0.5j * p2 * (a * cfg.dt) / (cfg.mass * g.hbar)) for a in drifts}
    # the kicks take the shape of the stepped stack, so no product broadcasts
    # row by row
    kick = {b: np.tile(np.exp(-1j * v * (b * cfg.dt) / g.hbar), (len(rows), 1)) for b in kicks}
    first, last = kick[kicks[0]], kick[kicks[-1]]
    joining = last * first
    inner = [(kinetic[a], kick[b]) for a, b in zip(drifts, kicks[1:-1])]
    rows *= first
    for step in range(1, cfg.steps + 1):
        for phase, tile in inner:
            rows = _drift(rows, phase)
            rows *= tile
        rows = _drift(rows, kinetic[drifts[-1]])
        if step % every:
            rows *= joining
            continue
        rows *= last
        snapshots.append(observe(rows, sectors=sectors))
        if step < cfg.steps:
            rows *= first
    return snapshots


def _drift(rows: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """One kinetic drift of the rows, in place: transform, phase, transform back."""
    rows = _fft.fft(rows, axis=-1, overwrite=True)
    rows *= phase
    return _fft.ifft(rows, axis=-1, overwrite=True)


def _check_finite(amps: np.ndarray) -> None:
    if not np.isfinite(amps.view(float)).all():
        raise NonFiniteAmplitude("non-finite amplitude encountered during propagation")


def free_far_field(psi: WaveFunction) -> MomentumAmplitudes:
    """Detection-screen distribution after free flight to the far field:
    exactly the momentum distribution of the state."""
    return to_momentum(psi)


class TwoParticleState(Amplitudes):
    """Two-particle amplitudes Psi(x1, x2) on the square of a common Grid."""

    rank = 2


def product_state(psi1: WaveFunction, psi2: WaveFunction) -> TwoParticleState:
    if psi1.grid != psi2.grid:
        raise GridMismatch("factors live on different grids")
    return TwoParticleState(psi1.grid, np.outer(psi1.amps, psi2.amps)).normalized()


TWO_PARTICLE_N_CAP = 512  # dense n x n amplitudes; keeps memory bounded


def _two_particle_potential(grid: Grid, v12: PotentialSpec) -> np.ndarray:
    """V(x1 - x2) as a function of the lattice index of r = x1 - x2 (mod n):
    the samples of v12 on grid.x, rolled so index 0 is r = 0. It holds the
    guards of every two-particle run: the grid cap and a lattice origin."""
    if grid.n > TWO_PARTICLE_N_CAP:
        raise GridMismatch(
            f"two-particle grids are capped at n <= {TWO_PARTICLE_N_CAP} per axis"
        )
    return np.roll(v12.values(grid), lattice_steps(grid, grid.x0, "x0"))


def _shear(n: int) -> np.ndarray:
    """Flat indices with psi.ravel()[_shear(n)][i2, ir] = psi[(ir + i2) mod n, i2]:
    the exact periodic change from (x1, x2) to (x2, r = x1 - x2) on the lattice."""
    i2 = np.arange(n)[:, None]
    return (i2 + np.arange(n)) % n * n + i2


def _to_sectors(amps: np.ndarray, shear: np.ndarray) -> np.ndarray:
    """Psi[i1, i2] -> rows [J, ir]: shear to (x2, r), then transform x2 to the
    total-momentum index J. Entry [J, j1] of a row's transform holds the
    momentum pair (p_raw[j1], p_raw[(J - j1) mod n]) of the 2-D lattice."""
    return _fft.fft(np.take(amps, shear), axis=0, overwrite=True)


def _from_sectors(rows: np.ndarray, shear: np.ndarray) -> np.ndarray:
    """The inverse of `_to_sectors`; leaves `rows` untouched."""
    amps = np.empty_like(rows)
    amps.ravel()[shear] = _fft.ifft(rows, axis=0)
    return amps


def propagate_two(
    state: TwoParticleState,
    v12: PotentialSpec,
    cfg: PropagatorConfig,
    snapshot_every: int = 1,
    observe: Callable[[np.ndarray], object] | None = None,
) -> list:
    """Split-operator two-particle evolution under H = (p1^2 + p2^2)/2m + V(x1 - x2).
    With `observe`, returns what it returns at each snapshot from the stepper's
    total-momentum sector rows, under the hook contract stated in `_strang`."""
    return _strang(state, _two_particle_potential(state.grid, v12), cfg, snapshot_every,
                   observe)


def _sector_translations(
    rows: np.ndarray, grid: Grid, L: float, sectors: np.ndarray | None = None
) -> tuple[complex, complex]:
    """<exp(i (p1 + p2) L / hbar)> and <exp(i p1 L / hbar)> read from `_strang`'s
    two-particle rows, which are checked for non-finite values first.

    The joint momentum probabilities are |fft(rows, axis=-1)|^2, with entry
    [J, j1] at (p_raw[j1], p_raw[(J - j1) mod n]). `sectors` holds the J of
    each row when the rows are the stepped stack only; None means all n rows
    in order. L is a lattice multiple, so exp(i (p1 + p2) L / hbar) equals
    exp(i p_raw[J] L / hbar) exactly, lattice aliasing included: the first
    expectation needs only the weight of each row, and the second the weight
    of each column.
    """
    _check_finite(rows)
    weights = np.abs(_fft.fft(rows, axis=-1)) ** 2
    phase = np.exp(1j * grid.p_raw * L / grid.hbar) / np.sum(weights)
    row_phase = phase if sectors is None else phase[sectors]
    # np.sum, not a BLAS dot, whose summation order depends on the CPU kernel
    return (complex(np.sum(row_phase * np.sum(weights, axis=1))),
            complex(np.sum(phase * np.sum(weights, axis=0))))


def translation_expect_two(
    state: TwoParticleState, L: float, k1: int = 1, k2: int = 1
) -> complex:
    """<exp(i (k1 p1 + k2 p2) L / hbar)> from the joint momentum density,
    the 2-D transform taken over axis 0, then axis -1. k1 and k2 are integers
    of any sign."""
    if not (isinstance(k1, numbers.Integral) and isinstance(k2, numbers.Integral)):
        raise ArgumentError(f"k1 and k2 must be integers, got {k1!r}, {k2!r}")
    if not math.isfinite(L):
        raise ArgumentError(f"L must be finite, got {L}")
    grid = state.grid
    weights = np.abs(_fft.fft(_fft.fft(state.amps, axis=0))) ** 2
    density = weights / np.sum(weights)
    ph1 = np.exp(1j * grid.p_raw * k1 * L / grid.hbar)
    ph2 = np.exp(1j * grid.p_raw * k2 * L / grid.hbar)
    return complex(ph1 @ density @ ph2)
