"""Initial-state constructors: single packets, two-packet superpositions with a
relative phase, multi-slit grating states with per-slit phases, and
position-dependent phase masks.

Compactly supported ("bump") packets are provided so that branch supports can
be made exactly disjoint on the lattice; gaussian branches only ever overlap
up to tails.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ArgumentError,
    BadInterval,
    DisjointnessViolated,
    EdgeMargin,
    GridMismatch,
    ResolutionGuard,
    ZeroState,
)
from .grid import Grid, WaveFunction, inner

_PACKET_KINDS = ("gaussian", "bump")


@dataclass(frozen=True)
class PacketSpec:
    """Shape of a single packet.

    width is the gaussian sigma or the bump half-support; p0 is the mean
    momentum imprinted as a plane-wave factor.
    """

    kind: str
    center: float
    width: float
    p0: float = 0.0

    def __post_init__(self):
        if self.kind not in _PACKET_KINDS:
            raise ArgumentError(f"kind must be one of {_PACKET_KINDS}, got {self.kind!r}")
        if not 0.0 < self.width < math.inf:  # NaN fails too
            raise ArgumentError(f"width must be positive and finite, got {self.width}")
        if not (math.isfinite(self.center) and math.isfinite(self.p0)):
            raise ArgumentError(f"center and p0 must be finite, got {self.center}, {self.p0}")

    def support_radius(self) -> float:
        # bump amplitudes are exactly zero outside center +- width; for a
        # gaussian use the 4-sigma core as the effective support
        return self.width if self.kind == "bump" else 4.0 * self.width


@dataclass(frozen=True)
class SlitArraySpec:
    """A row of m_slits identical packets spaced by `spacing`, with per-slit
    phases (radians) and non-negative weights (uniform when omitted)."""

    m_slits: int
    spacing: float
    packet: PacketSpec
    phases: tuple[float, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.m_slits < 2:
            raise ArgumentError(f"m_slits must be >= 2, got {self.m_slits}")
        if not 0.0 < self.spacing < math.inf:  # NaN fails too
            raise ArgumentError(f"spacing must be positive and finite, got {self.spacing}")
        if len(self.phases) != self.m_slits:
            raise ArgumentError("need one phase per slit")
        if not all(map(math.isfinite, self.phases)):
            raise ArgumentError(f"phases must be finite, got {self.phases}")
        if self.weights is not None:
            if len(self.weights) != self.m_slits:
                raise ArgumentError("need one weight per slit")
            if not all(0.0 <= w < math.inf for w in self.weights):  # NaN fails too
                raise ArgumentError(f"weights must be non-negative and finite, got {self.weights}")


def _check_packet_fits(grid: Grid, spec: PacketSpec, support: tuple | None) -> None:
    """support: extremes (lo, hi) of the full state built from `spec` packets,
    or None for a closed ring, which has no edges to stay away from."""
    if spec.width <= 4.0 * grid.dx:
        raise ResolutionGuard(
            f"packet width {spec.width} must exceed 4*dx = {4.0 * grid.dx}"
        )
    if support is None:
        return
    lo, hi = support
    margin = 4.0 * spec.width
    left, right = grid.x0, grid.x0 + grid.length
    if lo - left < margin or right - hi < margin:
        raise EdgeMargin(
            f"support [{lo}, {hi}] closer than {margin} to the domain edges "
            f"[{left}, {right}]"
        )


def _packet_amps(grid: Grid, spec: PacketSpec, center: float) -> np.ndarray:
    x = grid.x
    if spec.kind == "gaussian":
        # periodize over the domain images so translates wrap consistently
        env = np.zeros(grid.n)
        for r in (-1, 0, 1):
            # the complex exp: numpy's float exp rounds differently under its
            # AVX-512 and AVX2 loops, and the records must not depend on that
            arg = -((x - center + r * grid.length) ** 2) / (4.0 * spec.width**2)
            env += np.exp(arg + 0j).real
    else:
        # wrapped displacement: compact support survives a periodic layout
        d = np.mod(x - center + grid.length / 2.0, grid.length) - grid.length / 2.0
        u = d / spec.width
        env = np.zeros(grid.n)
        core = np.abs(u) < 1.0
        env[core] = np.exp(-1.0 / (1.0 - u[core] ** 2) + 0j).real  # complex exp, as above
    if spec.p0 == 0.0:
        return env.astype(complex)  # exactly env * exp(1j * 0 * x / hbar)
    return env * np.exp(1j * spec.p0 * x / grid.hbar)


def make_packet(grid: Grid, spec: PacketSpec) -> WaveFunction:
    """Normalized single packet; bump amplitudes vanish exactly outside the support."""
    r = spec.support_radius()
    _check_packet_fits(grid, spec, (spec.center - r, spec.center + r))
    return WaveFunction(grid, _packet_amps(grid, spec, spec.center)).normalized()


def superpose(
    parts: Sequence[tuple[WaveFunction, complex]],
) -> tuple[WaveFunction, float]:
    """Normalized coefficient-weighted sum.

    Returns (state, max_overlap) where max_overlap is the largest pairwise
    |<psi_i|psi_j>| among the inputs, as a disjointness diagnostic.
    """
    if not parts:
        raise ZeroState("no states given")
    g = parts[0][0].grid
    if any(wf.grid != g for wf, _ in parts):
        raise GridMismatch("superposition parts live on different grids")
    if not all(cmath.isfinite(c) for _, c in parts):
        raise ArgumentError("superposition coefficients must be finite")
    acc = np.zeros(g.n, dtype=np.complex128)
    for wf, c in parts:
        acc += c * wf.amps
    out = WaveFunction(g, acc).normalized()  # ZeroState if the coefficients cancel
    max_overlap = 0.0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            max_overlap = max(max_overlap, abs(inner(parts[i][0], parts[j][0])))
    return out, max_overlap


def make_grating(grid: Grid, spec: SlitArraySpec) -> WaveFunction:
    """Normalized sum_m w_m exp(i phi_m) packet(x - m*spacing).

    When m_slits * spacing equals the domain length the array closes into an
    exact periodic ring; the edge-margin check is skipped because the state
    has no edges to stay away from.
    """
    pk = spec.packet
    if pk.kind == "bump" and spec.spacing <= 2.0 * pk.width:
        raise DisjointnessViolated(
            f"bump supports overlap: spacing {spec.spacing} <= 2*width {2.0 * pk.width}"
        )
    ring = abs(spec.m_slits * spec.spacing - grid.length) < 1e-9 * grid.length
    r = pk.support_radius()
    support = (pk.center - r, pk.center + (spec.m_slits - 1) * spec.spacing + r)
    _check_packet_fits(grid, pk, None if ring else support)
    weights = spec.weights if spec.weights is not None else (1.0,) * spec.m_slits
    acc = np.zeros(grid.n, dtype=np.complex128)
    for m in range(spec.m_slits):
        acc += (
            weights[m]
            * np.exp(1j * spec.phases[m])
            * _packet_amps(grid, pk, pk.center + m * spec.spacing)
        )
    return WaveFunction(grid, acc).normalized()  # ZeroState if the weights cancel


def make_two_slit(grid: Grid, L: float, packet: PacketSpec, alpha: float) -> WaveFunction:
    """(psi_1 + exp(i alpha) psi_2) / sqrt(2) with psi_2(x) = psi_1(x - L),
    i.e. the second branch centered L to the right of the first."""
    return make_grating(
        grid,
        SlitArraySpec(
            m_slits=2, spacing=L, packet=packet, phases=(0.0, float(alpha))
        ),
    )


def apply_region_phase(
    psi: WaveFunction, x_lo: float, x_hi: float, alpha: float
) -> WaveFunction:
    """Multiply amplitudes on [x_lo, x_hi) by exp(i alpha); norm is unchanged."""
    g = psi.grid
    if not math.isfinite(alpha):
        raise ArgumentError(f"alpha must be finite, got {alpha}")
    if not (x_lo < x_hi):
        raise BadInterval(f"need x_lo < x_hi, got [{x_lo}, {x_hi})")
    if x_lo < g.x0 or x_hi > g.x0 + g.length:
        raise BadInterval(
            f"[{x_lo}, {x_hi}) is not inside the domain [{g.x0}, {g.x0 + g.length})"
        )
    amps = psi.amps.copy()
    mask = (g.x >= x_lo) & (g.x < x_hi)
    amps[mask] *= np.exp(1j * alpha)
    return WaveFunction(g, amps)
