"""Named, seeded, configuration-driven experiments binding the library modules
into reproducible runs with CSV/JSON records.

Every experiment validates its parameters against a declared schema (unknown
keys are errors; all missing keys are reported at once), echoes the fully
resolved parameter map into the record, and is byte-reproducible for a fixed
(config, seed).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import (
    ArgumentError,
    NonFiniteAmplitude,
    PeriodUnderResolved,
    RegimeViolation,
    SchemaViolation,
    UnknownExperiment,
    ZeroState,
)
from .evolve import (
    PotentialSpec,
    PropagatorConfig,
    _sector_translations,
    _two_particle_potential,
    free_far_field,
    product_state,
    propagate,
    propagate_two,
)
from .grid import Grid, MomentumAmplitudes, lattice_steps, make_grid, to_momentum
from .observables import (
    eom_residual,
    fold_density,
    fringe_peaks,
    modular_distribution,
    taylor_divergence_demo,
    translation_expect,
    tv_from_uniform,
)
from .records import FORMATS, ExperimentRecord, write_record
from .rng import GENERATOR_NAME, check_seed, counter_uniform
from .scattering import FluxParam, ScatterConfig, _checked_kr, _psi
from .states import PacketSpec, SlitArraySpec, make_grating, make_packet


# ---------------------------------------------------------------------------
# parameter schemas

_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    kind: str  # 'int' | 'float' | 'str' | 'floats'
    default: object = _REQUIRED
    help: str = ""
    lo: int | None = None  # smallest allowed value of an 'int'
    choices: tuple[str, ...] = ()  # allowed values as text, when not empty


def _finite(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


def _coerce(name: str, spec: Param, raw) -> object:
    try:
        if spec.kind == "int":
            value = int(raw)  # inf raises OverflowError, NaN ValueError
            if not isinstance(raw, str) and value != raw:  # 20.9 is not 20
                raise ValueError(f"{raw!r} is not a whole number")
            return value
        if spec.kind == "float":
            return _finite(raw)
        if spec.kind == "floats":
            if isinstance(raw, (list, tuple)):
                return [_finite(v) for v in raw]
            return [_finite(tok) for tok in str(raw).split(",") if tok.strip()]
        return str(raw)
    except (TypeError, ValueError, OverflowError) as e:
        raise SchemaViolation(f"parameter {name!r}: cannot parse {raw!r} as {spec.kind}") from e


def _check_bounds(name: str, spec: Param, value) -> None:
    if spec.kind == "floats" and not value:
        raise SchemaViolation(f"parameter {name!r}: needs at least one value")
    if spec.lo is not None and value < spec.lo:
        raise SchemaViolation(f"parameter {name!r}: must be >= {spec.lo}, got {value}")
    if spec.choices and str(value) not in spec.choices:
        raise SchemaViolation(
            f"parameter {name!r}: must be one of {', '.join(spec.choices)}, got {value!r}"
        )


def validate_params(name: str, raw: dict) -> dict:
    """Coerce raw key/value pairs against the schema of the named experiment.

    Unknown keys are errors; every missing required key is reported in one
    SchemaViolation message. An int below its minimum, a value outside its
    choices and an empty list of floats are SchemaViolations too.
    """
    if name not in SCHEMAS:
        raise UnknownExperiment(
            f"unknown experiment {name!r}; valid names: {', '.join(sorted(SCHEMAS))}"
        )
    schema = SCHEMAS[name]
    problems = []
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    missing = sorted(
        k for k, spec in schema.items() if spec.default is _REQUIRED and k not in raw
    )
    if missing:
        problems.append(f"missing keys: {', '.join(missing)}")
    if problems:
        raise SchemaViolation(f"{name}: " + "; ".join(problems))
    out = {}
    for key, spec in schema.items():
        out[key] = _coerce(key, spec, raw[key] if key in raw else spec.default)
        _check_bounds(key, spec, out[key])
    return out


_GRID_PARAMS = {
    "n": Param("int", 4096, "lattice sites (power of two)"),
    "length": Param("float", 128.0, "periodic domain length, centered on 0"),
    "hbar": Param("float", 1.0, "value of hbar for the conjugate lattice"),
}


def _grid_from(params: dict) -> Grid:
    return make_grid(params["n"], -params["length"] / 2.0, params["length"], params["hbar"])


def _centered_array(m: int, spacing: float, kind: str, width: float,
                    phases: tuple[float, ...], p0: float = 0.0) -> SlitArraySpec:
    """m packets `spacing` apart, centered on the origin."""
    return SlitArraySpec(
        m_slits=m, spacing=spacing,
        packet=PacketSpec(kind=kind, center=-(m - 1) * spacing / 2.0, width=width, p0=p0),
        phases=phases,
    )


# ---------------------------------------------------------------------------
# detection sampling

_DRAW_CHUNK = 2**16  # random-walk draws per block


@dataclass(frozen=True, slots=True, init=False)
class DetectionSample:
    trial: int
    p_detected: float
    recoil_cumulative: float

    def __init__(self, trial: int, p_detected: float, recoil_cumulative: float):
        # the generated frozen __init__'s stores, made through the slot
        # descriptors bound below without object.__setattr__'s lookup
        _set_trial(self, trial)
        _set_p_detected(self, p_detected)
        _set_recoil_cumulative(self, recoil_cumulative)


_set_trial = DetectionSample.trial.__set__
_set_p_detected = DetectionSample.p_detected.__set__
_set_recoil_cumulative = DetectionSample.recoil_cumulative.__set__


def _lattice_cdf(dens: MomentumAmplitudes) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflowing density is refused below
        weights = dens.density() * dens.grid.dp
        total = np.sum(weights)
    if not np.isfinite(total):
        raise NonFiniteAmplitude("cannot sample a non-finite density")
    if total == 0.0:
        raise ZeroState("cannot sample the zero density")
    cdf = np.cumsum(weights / total)
    cdf[-1] = 1.0
    return cdf


def _sample_lattice_p(
    dens: MomentumAmplitudes, cdf: np.ndarray, seed: int, trials: np.ndarray
) -> np.ndarray:
    """Momenta at count(cdf <= u) for the uniforms keyed by (seed, trials).

    A guide table of k = 2n buckets gives a binary search's index: bucket
    j = floor(u k), exact as k is a power of two, bounds it by guide[j] and
    guide[j + 1], and only draws in buckets where those differ (flagged once per
    bucket, in a k-entry table) are searched.
    guide[k] is n, since a cumsum overshooting 1 leaves the cdf's tail unsorted.
    """
    n = dens.grid.n
    k = 2 * n
    guide = np.searchsorted(cdf, np.arange(k + 1) / k, side="right")
    guide[-1] = n
    u = counter_uniform(seed, trials)
    j = (u * k).astype(np.intp)
    idx = guide[j]
    open_ = (guide[1:] != guide[:-1])[j]
    idx[open_] = np.searchsorted(cdf, u[open_], side="right")
    return dens.grid.p[idx]


def sample_detections(
    dens: MomentumAmplitudes, n_trials: int, seed: int
) -> list[DetectionSample]:
    """Inverse-CDF draws from the lattice momentum distribution.

    Trial t is keyed by (seed, t), so the sequence is reproducible under any
    execution order; recoil_cumulative is the negated running sum (momentum
    bookkeeping: detected momentum plus recoil is exactly zero).
    """
    check_seed(seed)
    if not isinstance(n_trials, numbers.Integral) or not 1 <= n_trials < 2**64:
        raise ArgumentError(f"n_trials must be an integer >= 1 below 2^64, got {n_trials!r}")
    cdf = _lattice_cdf(dens)
    ps = _sample_lattice_p(dens, cdf, seed, np.arange(n_trials, dtype=np.uint64))
    recoil = -np.cumsum(ps)
    return list(map(DetectionSample, range(n_trials), ps.tolist(), recoil.tolist()))


# ---------------------------------------------------------------------------
# experiment cores (also the public library surface for the named experiments)


class ExperimentResult(NamedTuple):
    """A core's result: 1-D array columns of one length and scalar summary
    values. `run` makes the record from it, adding parameters and provenance."""

    columns: dict[str, np.ndarray]
    summary: dict[str, float]


def uncertainty_experiment(
    L: float,
    widths: list[float],
    grid: Grid,
    bins: int = 32,
    k_max: int = 4,
) -> ExperimentResult:
    """Localization makes the folded momentum distribution uniform.

    For each width, builds a single bump packet (a which-path-detected state),
    reports |c_k| for k = 1..k_max and the total-variation distance of the
    folded distribution from uniform, plus the contrast value |c_1| of the
    two-branch state built from the same packet.
    """
    if not isinstance(k_max, numbers.Integral) or k_max < 0:
        raise ArgumentError(f"k_max must be an integer >= 0, got {k_max!r}")
    if len(widths) == 0:
        raise ArgumentError("widths needs at least one value")
    names = ["width", "tv_uniform", "c1_two_slit", *(f"c{k}" for k in range(1, k_max + 1))]
    rows = []
    for w in widths:
        single = make_packet(grid, PacketSpec(kind="bump", center=0.0, width=w))
        md = modular_distribution(single, L, bins=bins, k_max=k_max)
        two = make_grating(grid, _centered_array(2, L, "bump", w, (0.0, 0.0)))
        rows.append([w, md.tv_from_uniform(), abs(translation_expect(two, L)),
                     *map(abs, md.fourier)])
    return ExperimentResult(dict(zip(names, np.array(rows).T)),
                            {"bin_quadrature_bound": 1.0 / (2.0 * bins)})


def classical_limit_experiment(
    L: float,
    hbar_values: list[float],
    packet: PacketSpec,
    grid: Grid,
    bins: int = 32,
) -> ExperimentResult:
    """Folded-distribution flattening as the modular cell h/L shrinks.

    The momentum density is built once on the grid and held fixed while the
    fold cell 2*pi*hbar/L sweeps the given descending hbar values; the
    total-variation distance from uniform must flatten away.
    """
    if not 0.0 < L < math.inf:  # L <= 0, NaN or inf
        raise ArgumentError(f"L must be positive and finite, got {L}")
    if not hbar_values:
        raise ArgumentError("hbar_values needs at least one value")
    if not isinstance(bins, numbers.Integral) or bins < 1:
        raise ArgumentError(f"bins must be an integer >= 1, got {bins!r}")
    bad = [h for h in hbar_values if not 0.0 < h < math.inf]  # NaN fails too
    if bad:
        raise ArgumentError(f"hbar values must be positive and finite, got {bad[0]}")
    if any(b >= a for a, b in zip(hbar_values, hbar_values[1:])):
        raise ArgumentError("hbar values must be strictly descending")
    psi = make_packet(grid, packet)
    weights = to_momentum(psi).density() * grid.dp
    cells, tvs = [], []
    for h in hbar_values:
        cell = 2.0 * math.pi * h / L
        if cell < bins * grid.dp:
            raise PeriodUnderResolved(
                f"cell {cell:.3g} at hbar={h} holds fewer than bins={bins} "
                f"momentum lattice sites (dp={grid.dp:.3g})"
            )
        cells.append(cell)
        tvs.append(tv_from_uniform(fold_density(grid.p, weights, cell, bins)))
    return ExperimentResult(
        {"hbar": np.asarray(hbar_values), "cell": np.array(cells), "tv_uniform": np.array(tvs)},
        {"tv_final": tvs[-1], "tv_first": tvs[0]},
    )


def random_walk_experiment(
    grating: SlitArraySpec,
    grid: Grid,
    n_electrons: int,
    n_repeats: int,
    seed: int,
    strict: bool = False,
) -> ExperimentResult:
    """Single-electron detections as a recoil random walk.

    Each detected transverse momentum is balanced by an opposite recoil of the
    slit assembly. In the regime where the two first-order peaks at
    +-h/(2 spacing) carry at least 95% of the probability, the RMS recoil
    after N electrons is (h/2L) sqrt(N); outside that regime the prediction
    falls back to the exact sampled-step variance (or, with strict=True, the
    run is refused). The recoil reduced mod h/L stays bounded either way.
    Trial r * n_electrons + e is electron e of repeat r; draws are summed by
    blocks of whole repeats, so memory stays O(max(_DRAW_CHUNK, n_electrons)).
    """
    check_seed(seed)
    if not isinstance(n_repeats, numbers.Integral) or n_repeats < 100:
        raise ArgumentError(f"n_repeats must be >= 100 and an integer, got {n_repeats!r}")
    if not isinstance(n_electrons, numbers.Integral) or n_electrons < 1:
        raise ArgumentError(f"n_electrons must be an integer >= 1, got {n_electrons!r}")
    psi = make_grating(grid, grating)
    far = free_far_field(psi)
    h = 2.0 * math.pi * grid.hbar
    half_step = h / (2.0 * grating.spacing)  # the exchange quantum h/2L
    weights = far.density() * grid.dp
    weights = weights / np.sum(weights)
    near_plus = np.abs(grid.p - half_step) < half_step / 2.0
    near_minus = np.abs(grid.p + half_step) < half_step / 2.0
    pair_mass = float(np.sum(weights[near_plus]) + np.sum(weights[near_minus]))
    two_point = pair_mass >= 0.95
    if strict and not two_point:
        raise RegimeViolation(
            f"first-order peak pair carries {pair_mass:.3f} < 0.95 of the "
            f"probability; envelope too wide for the two-point idealization"
        )
    cdf = _lattice_cdf(far)
    finals = np.empty(n_repeats)
    rows = max(1, _DRAW_CHUNK // n_electrons)  # repeats drawn at a time
    for r in range(0, n_repeats, rows):
        trials = np.arange(r * n_electrons, min(r + rows, n_repeats) * n_electrons, dtype=np.uint64)
        steps = _sample_lattice_p(far, cdf, seed, trials).reshape(-1, n_electrons)
        finals[r:r + rows] = -np.sum(steps, axis=1)
    rms = float(np.sqrt(np.mean(finals**2)))
    if two_point:
        predicted = half_step * math.sqrt(n_electrons)
    else:
        mean_p = float(np.sum(weights * grid.p))
        var_p = float(np.sum(weights * grid.p**2)) - mean_p**2
        predicted = math.sqrt(n_electrons * var_p)
    mod = np.mod(finals, h / grating.spacing)
    return ExperimentResult(
        {"repeat": np.arange(n_repeats), "final_recoil": finals, "recoil_mod": mod},
        {"rms_final_recoil": rms, "predicted_rms": predicted,
         "peak_pair_mass": pair_mass, "two_point_regime": float(two_point),
         "exchange_quantum": half_step},
    )


# ---------------------------------------------------------------------------
# config-driven runners: each returns (columns, summary); `run` builds the record

SCHEMAS: dict[str, dict[str, Param]] = {}
_RUNNERS: dict[str, Callable[[dict, int], tuple[dict, dict]]] = {}


def _experiment(name: str, schema: dict[str, Param]):
    def wrap(fn):
        SCHEMAS[name] = schema
        _RUNNERS[name] = fn
        return fn

    return wrap


def _peak_columns(psi, spacing: float, extra_summary: dict) -> tuple[dict, dict]:
    peaks = fringe_peaks(free_far_field(psi))
    summary = {"expected_spacing": 2.0 * math.pi * psi.grid.hbar / spacing, **extra_summary}
    return {"p_peak": [p for p, _ in peaks], "height": [hgt for _, hgt in peaks]}, summary


@_experiment("two-slit", {
    **_GRID_PARAMS,
    "spacing": Param("float", 8.0, "branch separation L"),
    "width": Param("float", 1.5, "packet width (sigma or half-support)"),
    "kind": Param("str", "bump", "packet kind", choices=("bump", "gaussian")),
    "p0": Param("float", 0.0, "mean momentum"),
    "alpha": Param("float", _REQUIRED, "relative branch phase (radians)"),
})
def _run_two_slit(params: dict, seed: int) -> tuple[dict, dict]:
    grid = _grid_from(params)
    psi = make_grating(grid, _centered_array(2, params["spacing"], params["kind"],
                                             params["width"], (0.0, params["alpha"]),
                                             params["p0"]))
    c1 = translation_expect(psi, params["spacing"])
    return _peak_columns(psi, params["spacing"],
                         {"abs_c1": abs(c1), "arg_c1": math.atan2(c1.imag, c1.real)})


@_experiment("grating", {
    **_GRID_PARAMS,
    "m_slits": Param("int", 8, "number of slits", lo=2),
    "spacing": Param("float", 8.0, "slit spacing L"),
    "width": Param("float", 1.5, "packet width"),
    "kind": Param("str", "bump", "packet kind", choices=("bump", "gaussian")),
    "p0": Param("float", 0.0, "mean momentum"),
    "phase_pattern": Param("str", _REQUIRED, "per-slit phases",
                           choices=("zero", "alternating")),
    "phase_step": Param("float", math.pi, "phase used on odd slits when alternating"),
})
def _run_grating(params: dict, seed: int) -> tuple[dict, dict]:
    grid = _grid_from(params)
    m = params["m_slits"]
    alternating = params["phase_pattern"] == "alternating"
    phases = tuple((params["phase_step"] if (alternating and s % 2) else 0.0) for s in range(m))
    psi = make_grating(grid, _centered_array(m, params["spacing"], params["kind"],
                                             params["width"], phases, params["p0"]))
    offset = (math.pi * grid.hbar / params["spacing"]) if alternating else 0.0
    return _peak_columns(psi, params["spacing"], {"expected_offset": offset})


@_experiment("eom-check", {
    "n": Param("int", 1024), "length": Param("float", 64.0), "hbar": Param("float", 1.0),
    "spacing": Param("float", 8.0, "branch separation L (snapped to the lattice)"),
    "width": Param("float", 1.5), "alpha": Param("float", 0.0),
    "barrier_height": Param("float", 2.0, "barrier on the right branch"),
    "mass": Param("float", 1.0),
    "dt": Param("float", 1e-3, "coarsest time step"),
    "steps": Param("int", 160, "steps at the coarsest level"),
    "levels": Param("int", 3, "number of dt-halving levels", lo=1),
})
def _run_eom_check(params: dict, seed: int) -> tuple[dict, dict]:
    grid = _grid_from(params)
    L = round(params["spacing"] / grid.dx) * grid.dx
    psi = make_grating(grid, _centered_array(2, L, "bump", params["width"],
                                             (0.0, params["alpha"])))
    barrier = PotentialSpec.barrier(params["barrier_height"],
                                    L / 2.0 - params["width"], L / 2.0 + params["width"])
    dts, maxima = [], []
    for level in range(params["levels"]):
        dt = params["dt"] / 2**level
        cfg = PropagatorConfig(dt=dt, steps=params["steps"] * 2**level, mass=params["mass"])
        # one level's trajectory alive at a time
        res = eom_residual(propagate(psi, barrier, cfg), barrier, L, dt)
        dts.append(dt)
        maxima.append(float(np.max(res)))
    summary = {"L_snapped": L}
    for i in range(1, len(maxima)):
        summary[f"ratio_{i}"] = maxima[i - 1] / maxima[i]
    return {"level": np.arange(params["levels"]), "dt": dts, "max_residual": maxima}, summary


@_experiment("uncertainty", {
    **_GRID_PARAMS,
    "spacing": Param("float", 2.0, "cell-defining length L"),
    "widths": Param("floats", _REQUIRED, "bump half-supports, each < L/2"),
    "bins": Param("int", 32, lo=8),
    "k_max": Param("int", 4, lo=1),
})
def _run_uncertainty(params: dict, seed: int) -> tuple[dict, dict]:
    grid = _grid_from(params)
    return uncertainty_experiment(params["spacing"], params["widths"], grid,
                                  bins=params["bins"], k_max=params["k_max"])


@_experiment("classical-limit", {
    "n": Param("int", 32768), "length": Param("float", 4096.0),
    "spacing": Param("float", 1.0, "cell-defining length L"),
    "width": Param("float", 0.96, "gaussian sigma of the packet"),
    "p0": Param("float", 0.0),
    "hbar_values": Param("floats", [1.0 / 2**i for i in range(8)],
                         "descending hbar sweep"),
    "bins": Param("int", 32, "fold bins for the distance from uniform", lo=8),
})
def _run_classical_limit(params: dict, seed: int) -> tuple[dict, dict]:
    grid = make_grid(params["n"], -params["length"] / 2.0, params["length"],
                     params["hbar_values"][0])
    packet = PacketSpec(kind="gaussian", center=0.0, width=params["width"], p0=params["p0"])
    return classical_limit_experiment(params["spacing"], params["hbar_values"],
                                      packet, grid, bins=params["bins"])


@_experiment("two-particle", {
    "n": Param("int", 256), "length": Param("float", 32.0), "hbar": Param("float", 1.0),
    "mass": Param("float", 1.0),
    "dt": Param("float", 0.05, "length of one fourth-order composite step"),
    "steps": Param("int", 60), "snapshot_every": Param("int", 2),
    "spacing": Param("float", 2.0, "translation length L (lattice multiple)"),
    "well_depth": Param("float", 4.0), "well_width": Param("float", 1.0),
    "separation": Param("float", 6.0, "initial packet separation"),
    "p_approach": Param("float", 2.0, "approach momentum of each packet"),
    "sigma": Param("float", 1.0, "packet width"),
})
def _run_two_particle(params: dict, seed: int) -> tuple[dict, dict]:
    grid = _grid_from(params)
    L = params["spacing"]
    lattice_steps(grid, L, "spacing")  # the sector identity for <T12> needs L on the lattice
    a = params["separation"] / 2.0
    psi1 = make_packet(grid, PacketSpec("gaussian", -a, params["sigma"], params["p_approach"]))
    psi2 = make_packet(grid, PacketSpec("gaussian", +a, params["sigma"], -params["p_approach"]))
    # the complex exp: numpy's float exp rounds differently under its AVX-512
    # and AVX2 loops, and the record must not depend on that
    arg = -grid.x**2 / (2.0 * params["well_width"] ** 2)
    well = PotentialSpec.sampled(-params["well_depth"] * np.exp(arg + 0j).real)
    _two_particle_potential(grid, well)  # the grid cap, before any n x n array
    state = product_state(psi1, psi2)
    cfg = PropagatorConfig(dt=params["dt"], steps=params["steps"], mass=params["mass"],
                           splitting="suzuki4")
    pairs = propagate_two(state, well, cfg, params["snapshot_every"],
                          observe=functools.partial(_sector_translations, grid=grid, L=L))
    t12, t1 = np.array(pairs).T
    d12, d1 = t12 - t12[0], t1 - t1[0]
    # np.hypot rounds as abs(complex) does; np.abs can differ in the last bit
    drift, change = np.hypot(d12.real, d12.imag), np.hypot(d1.real, d1.imag)
    step = np.arange(len(pairs)) * params["snapshot_every"]
    return ({"step": step, "time": step * params["dt"], "re_t12": t12.real, "im_t12": t12.imag,
             "t12_drift": drift, "re_t1": t1.real, "im_t1": t1.imag, "t1_change": change},
            {"max_t12_drift": drift.max(), "max_t1_change": change.max()})


@_experiment("scattering", {
    "alpha": Param("float", _REQUIRED, "enclosed flux in flux quanta"),
    "k": Param("float", 1.0, "wavenumber"),
    "r": Param("float", 10.0, "detection radius"),
    "n_thetas": Param("int", 64, "evaluation angles over [-pi, pi)", lo=1),
    "n_max": Param("int", 0, "series truncation; 0 means ceil(k*r) + 40"),
})
def _run_scattering(params: dict, seed: int) -> tuple[dict, dict]:
    kr = _checked_kr(params["k"], params["r"])
    params["n_max"] = params["n_max"] or math.ceil(kr) + 40  # the echo shows the value used
    thetas = tuple(-math.pi + 2.0 * math.pi * i / params["n_thetas"]
                   for i in range(params["n_thetas"]))
    cfg = ScatterConfig(k=params["k"], r=params["r"], thetas=thetas, n_max=params["n_max"])
    flux = FluxParam(params["alpha"])
    values, tail = _psi(flux, cfg, thetas)
    return ({"theta": thetas, "intensity": np.abs(values) ** 2},
            {"tail_bound": tail, "kr": kr, "reduced_flux": flux.reduced})


@_experiment("random-walk", {
    "n": Param("int", 2048), "length": Param("float", 64.0), "hbar": Param("float", 1.0),
    "m_slits": Param("int", 8, "even count closes the alternating ring exactly", lo=2),
    "spacing": Param("float", 8.0),
    "width": Param("float", 2.0, "packet width (wide packet, narrow envelope)"),
    "kind": Param("str", "gaussian", choices=("bump", "gaussian")),
    "n_electrons": Param("int", _REQUIRED, lo=1),
    "n_repeats": Param("int", _REQUIRED, lo=100),
    "strict": Param("int", 0, "1: refuse runs outside the two-point regime", choices=("0", "1")),
})
def _run_random_walk(params: dict, seed: int) -> tuple[dict, dict]:
    grid = _grid_from(params)
    m = params["m_slits"]
    spec = _centered_array(m, params["spacing"], params["kind"], params["width"],
                           tuple((math.pi if s % 2 else 0.0) for s in range(m)))
    return random_walk_experiment(spec, grid, params["n_electrons"],
                                  params["n_repeats"], seed, strict=bool(params["strict"]))


@_experiment("taylor-demo", {
    "n": Param("int", 2048), "length": Param("float", 64.0), "hbar": Param("float", 1.0),
    "mode": Param("str", _REQUIRED, "two-bump (divergent) or gaussian (convergent)",
                  choices=("two-bump", "gaussian")),
    "spacing": Param("float", 8.0, "translation length L"),
    "width": Param("float", 2.0, "bump half-support or gaussian sigma"),
    "alpha": Param("float", 0.0, "relative phase in two-bump mode"),
    "orders": Param("int", 40, "highest partial-sum order", lo=0),
})
def _run_taylor_demo(params: dict, seed: int) -> tuple[dict, dict]:
    grid = _grid_from(params)
    L = params["spacing"]
    if params["mode"] == "two-bump":
        psi = make_grating(grid, _centered_array(2, L, "bump", params["width"],
                                                 (0.0, params["alpha"])))
    else:
        psi = make_packet(grid, PacketSpec("gaussian", 0.0, params["width"]))
    exact = translation_expect(psi, L)
    sums = taylor_divergence_demo(psi, L, params["orders"])
    errs = np.abs(sums - exact)
    return ({"order": np.arange(len(sums)), "partial_re": sums.real,
             "partial_im": sums.imag, "abs_err": errs},
            {"exact_re": exact.real, "exact_im": exact.imag,
             "final_abs_err": float(errs[-1]), "min_abs_err": float(np.min(errs))})


# ---------------------------------------------------------------------------
# dispatch


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str = "."
    format: str = "csv"


def run(
    config: ExperimentConfig, *, with_path: bool = False
) -> ExperimentRecord | tuple[ExperimentRecord, Path]:
    """Validate, dispatch, write the output file, and return the record, or
    with `with_path` the pair (record, path of the file written). A format
    other than csv or json is refused before the run. Arithmetic
    that overflows, divides by zero or yields NaN, and a record holding a
    non-finite value, raise ArgumentError; so does a run that runs out of memory,
    and a seed outside the rule of `rng.check_seed`."""
    check_seed(config.seed)
    if config.format not in FORMATS:
        raise ArgumentError(f"format must be csv or json, got {config.format!r}")
    params = validate_params(config.name, config.params)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            columns, summary = _RUNNERS[config.name](params, config.seed)
    except ArithmeticError as e:  # FloatingPointError, OverflowError, ZeroDivisionError
        raise ArgumentError(f"{config.name}: {e}; a value is out of floating-point range") from e
    except MemoryError as e:
        raise ArgumentError(f"{config.name}: not enough memory; a size is out of range") from e
    provenance = f"modlab {__version__} seed={config.seed} rng={GENERATOR_NAME}"
    record = ExperimentRecord(config.name, params, columns, provenance, summary)
    for key, value in (*record.columns.items(), *record.summary.items()):
        if not np.all(np.isfinite(value)):
            raise ArgumentError(f"{config.name}: {key} is out of floating-point range")
    path = write_record(record, config.out_dir, config.format, config.seed)
    return (record, path) if with_path else record
