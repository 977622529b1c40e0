"""Named, seeded, configuration-driven experiments binding the library modules
into reproducible runs with CSV/JSON records.

Every experiment validates its parameters against a declared schema (unknown
keys are errors; all missing keys are reported at once), echoes the fully
resolved parameter map into the record, and is byte-reproducible for a fixed
(config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import __version__
from .errors import (
    DisjointnessViolated,
    PeriodUnderResolved,
    RegimeViolation,
    SchemaViolation,
    UnknownExperiment,
)
from .evolve import (
    PotentialSpec,
    PropagatorConfig,
    free_far_field,
    product_state,
    propagate,
    propagate_two,
    translation_expect_two,
)
from .grid import Grid, MomentumAmplitudes, make_grid, to_momentum
from .observables import (
    eom_residual,
    fold_density,
    fringe_peaks,
    modular_distribution,
    taylor_divergence_demo,
    translation_expect,
    tv_from_uniform,
)
from .records import ExperimentRecord, write_record
from .rng import GENERATOR_NAME, counter_uniform
from .states import PacketSpec, SlitArraySpec, make_grating, make_packet, make_two_slit


def _provenance(seed: int) -> str:
    return f"modlab {__version__} seed={seed} rng={GENERATOR_NAME}"


# ---------------------------------------------------------------------------
# parameter schemas

_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    kind: str  # 'int' | 'float' | 'str' | 'floats'
    default: object = _REQUIRED
    help: str = ""


def _finite(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


def _coerce(name: str, spec: Param, raw) -> object:
    try:
        if spec.kind == "int":
            return int(raw)
        if spec.kind == "float":
            return _finite(raw)
        if spec.kind == "floats":
            if isinstance(raw, (list, tuple)):
                return [_finite(v) for v in raw]
            return [_finite(tok) for tok in str(raw).split(",") if tok.strip()]
        return str(raw)
    except (TypeError, ValueError) as e:
        raise SchemaViolation(f"parameter {name!r}: cannot parse {raw!r} as {spec.kind}") from e


def validate_params(name: str, raw: dict) -> dict:
    """Coerce raw key/value pairs against the schema of the named experiment.

    Unknown keys are errors; every missing required key is reported in one
    SchemaViolation message.
    """
    schema = schema_for(name)
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
    return out


_GRID_PARAMS = {
    "n": Param("int", 4096, "lattice sites (power of two)"),
    "length": Param("float", 128.0, "periodic domain length, centered on 0"),
    "hbar": Param("float", 1.0, "value of hbar for the conjugate lattice"),
}


def _grid_from(params: dict) -> Grid:
    return make_grid(params["n"], -params["length"] / 2.0, params["length"], params["hbar"])


# ---------------------------------------------------------------------------
# detection sampling


@dataclass(frozen=True)
class DetectionSample:
    trial: int
    p_detected: float
    recoil_cumulative: float


def _lattice_cdf(dens: MomentumAmplitudes) -> np.ndarray:
    weights = dens.density() * dens.grid.dp
    cdf = np.cumsum(weights / np.sum(weights))
    cdf[-1] = 1.0
    return cdf


def _sample_lattice_p(
    dens: MomentumAmplitudes, cdf: np.ndarray, seed: int, trials: np.ndarray
) -> np.ndarray:
    u = counter_uniform(seed, trials)
    idx = np.searchsorted(cdf, u, side="right")
    return dens.grid.p[np.minimum(idx, dens.grid.n - 1)]


def sample_detections(
    dens: MomentumAmplitudes, n_trials: int, seed: int
) -> list[DetectionSample]:
    """Inverse-CDF draws from the lattice momentum distribution.

    Trial t is keyed by (seed, t), so the sequence is reproducible under any
    execution order; recoil_cumulative is the negated running sum (momentum
    bookkeeping: detected momentum plus recoil is exactly zero).
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    cdf = _lattice_cdf(dens)
    ps = _sample_lattice_p(dens, cdf, seed, np.arange(n_trials, dtype=np.uint64))
    recoil = -np.cumsum(ps)
    return [DetectionSample(trial=t, p_detected=p, recoil_cumulative=r)
            for t, (p, r) in enumerate(zip(ps.tolist(), recoil.tolist()))]


# ---------------------------------------------------------------------------
# experiment cores (also the public library surface for the named experiments)


def uncertainty_experiment(
    L: float,
    widths: list[float],
    grid: Grid,
    bins: int = 32,
    k_max: int = 4,
    seed: int = 0,
) -> ExperimentRecord:
    """Localization makes the folded momentum distribution uniform.

    For each width, builds a single bump packet (a which-path-detected state),
    reports |c_k| for k = 1..k_max and the total-variation distance of the
    folded distribution from uniform, plus the contrast value |c_1| of the
    two-branch state built from the same packet.
    """
    for w in widths:
        if not (w < L / 2.0):
            raise DisjointnessViolated(f"width {w} must be < L/2 = {L / 2.0}")
    cols: dict[str, list] = {
        "width": [], "tv_uniform": [], "c1_two_slit": [],
        **{f"c{k}": [] for k in range(1, k_max + 1)},
    }
    for w in widths:
        packet = PacketSpec(kind="bump", center=-L / 2.0, width=w)
        single = make_packet(grid, PacketSpec(kind="bump", center=0.0, width=w))
        md = modular_distribution(single, L, bins=bins, k_max=k_max)
        two = make_two_slit(grid, L, packet, alpha=0.0)
        cols["width"].append(w)
        for k in range(1, k_max + 1):
            cols[f"c{k}"].append(abs(md.fourier[k - 1]))
        cols["tv_uniform"].append(md.tv_from_uniform())
        cols["c1_two_slit"].append(abs(translation_expect(two, L)))
    return ExperimentRecord(
        experiment="uncertainty",
        params_echo={"L": L, "widths": widths, "bins": bins, "k_max": k_max,
                     "n": grid.n, "length": grid.length, "hbar": grid.hbar},
        columns={k: np.asarray(v) for k, v in cols.items()},
        provenance=_provenance(seed),
        summary={"bin_quadrature_bound": 1.0 / (2.0 * bins)},
    )


def classical_limit_experiment(
    L: float,
    hbar_values: list[float],
    packet: PacketSpec,
    grid: Grid,
    bins: int = 32,
    seed: int = 0,
) -> ExperimentRecord:
    """Folded-distribution flattening as the modular cell h/L shrinks.

    The momentum density is built once on the grid and held fixed while the
    fold cell 2*pi*hbar/L sweeps the given descending hbar values; the
    total-variation distance from uniform must flatten away.
    """
    if any(h <= 0.0 for h in hbar_values):
        raise ValueError("hbar values must be positive")
    if any(b >= a for a, b in zip(hbar_values, hbar_values[1:])):
        raise ValueError("hbar values must be strictly descending")
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
    return ExperimentRecord(
        experiment="classical-limit",
        params_echo={"L": L, "hbar_values": hbar_values, "bins": bins,
                     "kind": packet.kind, "width": packet.width, "p0": packet.p0,
                     "n": grid.n, "length": grid.length, "hbar": grid.hbar},
        columns={"hbar": np.asarray(hbar_values), "cell": np.asarray(cells),
                 "tv_uniform": np.asarray(tvs)},
        provenance=_provenance(seed),
        summary={"tv_final": tvs[-1], "tv_first": tvs[0]},
    )


def random_walk_experiment(
    grating: SlitArraySpec,
    grid: Grid,
    n_electrons: int,
    n_repeats: int,
    seed: int,
    strict: bool = False,
) -> ExperimentRecord:
    """Single-electron detections as a recoil random walk.

    Each detected transverse momentum is balanced by an opposite recoil of the
    slit assembly. In the regime where the two first-order peaks at
    +-h/(2 spacing) carry at least 95% of the probability, the RMS recoil
    after N electrons is (h/2L) sqrt(N); outside that regime the prediction
    falls back to the exact sampled-step variance (or, with strict=True, the
    run is refused). The recoil reduced mod h/L stays bounded either way.
    """
    if n_repeats < 100:
        raise ValueError(f"n_repeats must be >= 100, got {n_repeats}")
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
    trials = np.arange(n_repeats * n_electrons, dtype=np.uint64)
    steps = _sample_lattice_p(far, cdf, seed, trials).reshape(n_repeats, n_electrons)
    finals = -np.sum(steps, axis=1)
    rms = float(np.sqrt(np.mean(finals**2)))
    if two_point:
        predicted = half_step * math.sqrt(n_electrons)
    else:
        mean_p = float(np.sum(weights * grid.p))
        var_p = float(np.sum(weights * grid.p**2)) - mean_p**2
        predicted = math.sqrt(n_electrons * var_p)
    mod = np.mod(finals, h / grating.spacing)
    return ExperimentRecord(
        experiment="random-walk",
        params_echo={"m_slits": grating.m_slits, "spacing": grating.spacing,
                     "width": grating.packet.width, "kind": grating.packet.kind,
                     "n_electrons": n_electrons, "n_repeats": n_repeats,
                     "strict": int(strict), "n": grid.n, "length": grid.length,
                     "hbar": grid.hbar},
        columns={"repeat": np.arange(n_repeats), "final_recoil": finals,
                 "recoil_mod": mod},
        provenance=_provenance(seed),
        summary={"rms_final_recoil": rms, "predicted_rms": predicted,
                 "peak_pair_mass": pair_mass, "two_point_regime": float(two_point),
                 "exchange_quantum": half_step},
    )


# ---------------------------------------------------------------------------
# config-driven runners

SCHEMAS: dict[str, dict[str, Param]] = {}
_RUNNERS: dict[str, Callable[[dict, int], ExperimentRecord]] = {}


def _experiment(name: str, schema: dict[str, Param]):
    def wrap(fn):
        SCHEMAS[name] = schema
        _RUNNERS[name] = fn
        return fn

    return wrap


def schema_for(name: str) -> dict[str, Param]:
    if name not in SCHEMAS:
        raise UnknownExperiment(
            f"unknown experiment {name!r}; valid names: {', '.join(sorted(SCHEMAS))}"
        )
    return SCHEMAS[name]


def experiment_names() -> list[str]:
    return sorted(SCHEMAS)


def _peak_record(name: str, params: dict, seed: int, psi, grid: Grid,
                 spacing: float, extra_summary: dict) -> ExperimentRecord:
    peaks = fringe_peaks(free_far_field(psi))
    summary = {"expected_spacing": 2.0 * math.pi * grid.hbar / spacing}
    summary.update(extra_summary)
    return ExperimentRecord(
        experiment=name,
        params_echo=params,
        columns={"p_peak": np.array([p for p, _ in peaks]),
                 "height": np.array([hgt for _, hgt in peaks])},
        provenance=_provenance(seed),
        summary=summary,
    )


@_experiment("two-slit", {
    **_GRID_PARAMS,
    "spacing": Param("float", 8.0, "branch separation L"),
    "width": Param("float", 1.5, "packet width (sigma or half-support)"),
    "kind": Param("str", "bump", "packet kind: bump or gaussian"),
    "p0": Param("float", 0.0, "mean momentum"),
    "alpha": Param("float", _REQUIRED, "relative branch phase (radians)"),
})
def _run_two_slit(params: dict, seed: int) -> ExperimentRecord:
    grid = _grid_from(params)
    packet = PacketSpec(kind=params["kind"], center=-params["spacing"] / 2.0,
                        width=params["width"], p0=params["p0"])
    psi = make_two_slit(grid, params["spacing"], packet, params["alpha"])
    c1 = translation_expect(psi, params["spacing"])
    return _peak_record("two-slit", params, seed, psi, grid, params["spacing"],
                        {"abs_c1": abs(c1), "arg_c1": math.atan2(c1.imag, c1.real)})


@_experiment("grating", {
    **_GRID_PARAMS,
    "m_slits": Param("int", 8, "number of slits"),
    "spacing": Param("float", 8.0, "slit spacing L"),
    "width": Param("float", 1.5, "packet width"),
    "kind": Param("str", "bump", "packet kind"),
    "p0": Param("float", 0.0, "mean momentum"),
    "phase_pattern": Param("str", _REQUIRED, "per-slit phases: zero or alternating"),
    "phase_step": Param("float", math.pi, "phase used on odd slits when alternating"),
})
def _run_grating(params: dict, seed: int) -> ExperimentRecord:
    grid = _grid_from(params)
    m = params["m_slits"]
    if params["phase_pattern"] not in ("zero", "alternating"):
        raise SchemaViolation("phase_pattern must be 'zero' or 'alternating'")
    alternating = params["phase_pattern"] == "alternating"
    phases = tuple((params["phase_step"] if (alternating and s % 2) else 0.0) for s in range(m))
    center0 = -(m - 1) * params["spacing"] / 2.0
    spec = SlitArraySpec(
        m_slits=m, spacing=params["spacing"],
        packet=PacketSpec(kind=params["kind"], center=center0,
                          width=params["width"], p0=params["p0"]),
        phases=phases,
    )
    psi = make_grating(grid, spec)
    offset = (math.pi * grid.hbar / params["spacing"]) if alternating else 0.0
    return _peak_record("grating", params, seed, psi, grid, params["spacing"],
                        {"expected_offset": offset})


@_experiment("eom-check", {
    "n": Param("int", 1024), "length": Param("float", 64.0), "hbar": Param("float", 1.0),
    "spacing": Param("float", 8.0, "branch separation L (snapped to the lattice)"),
    "width": Param("float", 1.5), "alpha": Param("float", 0.0),
    "barrier_height": Param("float", 2.0, "barrier on the right branch"),
    "mass": Param("float", 1.0),
    "dt": Param("float", 1e-3, "coarsest time step"),
    "steps": Param("int", 160, "steps at the coarsest level"),
    "levels": Param("int", 3, "number of dt-halving levels"),
})
def _run_eom_check(params: dict, seed: int) -> ExperimentRecord:
    grid = _grid_from(params)
    L = round(params["spacing"] / grid.dx) * grid.dx
    packet = PacketSpec(kind="bump", center=-L / 2.0, width=params["width"])
    psi = make_two_slit(grid, L, packet, params["alpha"])
    barrier = PotentialSpec.barrier(params["barrier_height"],
                                    L / 2.0 - params["width"], L / 2.0 + params["width"])
    dts, maxima = [], []
    for level in range(params["levels"]):
        dt = params["dt"] / 2**level
        cfg = PropagatorConfig(dt=dt, steps=params["steps"] * 2**level, mass=params["mass"])
        snaps = propagate(psi, barrier, cfg)
        res = eom_residual(snaps, barrier, L, dt)
        dts.append(dt)
        maxima.append(float(np.max(res)))
    summary = {"L_snapped": L}
    for i in range(1, len(maxima)):
        summary[f"ratio_{i}"] = maxima[i - 1] / maxima[i]
    return ExperimentRecord(
        experiment="eom-check", params_echo=params,
        columns={"level": np.arange(params["levels"]), "dt": np.asarray(dts),
                 "max_residual": np.asarray(maxima)},
        provenance=_provenance(seed), summary=summary,
    )


@_experiment("uncertainty", {
    **_GRID_PARAMS,
    "spacing": Param("float", 2.0, "cell-defining length L"),
    "widths": Param("floats", _REQUIRED, "bump half-supports, each < L/2"),
    "bins": Param("int", 32),
    "k_max": Param("int", 4),
})
def _run_uncertainty(params: dict, seed: int) -> ExperimentRecord:
    grid = _grid_from(params)
    rec = uncertainty_experiment(params["spacing"], params["widths"], grid,
                                 bins=params["bins"], k_max=params["k_max"], seed=seed)
    return replace(rec, params_echo=params)


@_experiment("classical-limit", {
    "n": Param("int", 32768), "length": Param("float", 4096.0),
    "spacing": Param("float", 1.0, "cell-defining length L"),
    "width": Param("float", 0.96, "gaussian sigma of the packet"),
    "p0": Param("float", 0.0),
    "hbar_values": Param("floats", [1.0 / 2**i for i in range(8)],
                         "descending hbar sweep"),
    "bins": Param("int", 32),
})
def _run_classical_limit(params: dict, seed: int) -> ExperimentRecord:
    grid = make_grid(params["n"], -params["length"] / 2.0, params["length"],
                     params["hbar_values"][0])
    packet = PacketSpec(kind="gaussian", center=0.0, width=params["width"], p0=params["p0"])
    rec = classical_limit_experiment(params["spacing"], params["hbar_values"],
                                     packet, grid, bins=params["bins"], seed=seed)
    return replace(rec, params_echo=params)


@_experiment("two-particle", {
    "n": Param("int", 256), "length": Param("float", 32.0), "hbar": Param("float", 1.0),
    "mass": Param("float", 1.0),
    "dt": Param("float", 0.005), "steps": Param("int", 600),
    "snapshot_every": Param("int", 20),
    "spacing": Param("float", 2.0, "translation length L (lattice multiple)"),
    "well_depth": Param("float", 4.0), "well_width": Param("float", 1.0),
    "separation": Param("float", 6.0, "initial packet separation"),
    "p_approach": Param("float", 2.0, "approach momentum of each packet"),
    "sigma": Param("float", 1.0, "packet width"),
})
def _run_two_particle(params: dict, seed: int) -> ExperimentRecord:
    grid = _grid_from(params)
    L = params["spacing"]
    a = params["separation"] / 2.0
    psi1 = make_packet(grid, PacketSpec("gaussian", -a, params["sigma"], params["p_approach"]))
    psi2 = make_packet(grid, PacketSpec("gaussian", +a, params["sigma"], -params["p_approach"]))
    state = product_state(psi1, psi2)
    well = PotentialSpec.sampled(-params["well_depth"]
                                 * np.exp(-grid.x**2 / (2.0 * params["well_width"] ** 2)))
    cfg = PropagatorConfig(dt=params["dt"], steps=params["steps"], mass=params["mass"])
    snaps = propagate_two(state, well, cfg, snapshot_every=params["snapshot_every"])
    t12_0 = translation_expect_two(snaps[0], L, 1, 1)
    t1_0 = translation_expect_two(snaps[0], L, 1, 0)
    rows = {k: [] for k in ("step", "time", "re_t12", "im_t12", "t12_drift",
                            "re_t1", "im_t1", "t1_change")}
    for i, s in enumerate(snaps):
        step = i * params["snapshot_every"]
        t12 = translation_expect_two(s, L, 1, 1)
        t1 = translation_expect_two(s, L, 1, 0)
        rows["step"].append(step)
        rows["time"].append(step * params["dt"])
        rows["re_t12"].append(t12.real)
        rows["im_t12"].append(t12.imag)
        rows["t12_drift"].append(abs(t12 - t12_0))
        rows["re_t1"].append(t1.real)
        rows["im_t1"].append(t1.imag)
        rows["t1_change"].append(abs(t1 - t1_0))
    return ExperimentRecord(
        experiment="two-particle", params_echo=params,
        columns={k: np.asarray(v) for k, v in rows.items()},
        provenance=_provenance(seed),
        summary={"max_t12_drift": max(rows["t12_drift"]),
                 "max_t1_change": max(rows["t1_change"])},
    )


@_experiment("scattering", {
    "alpha": Param("float", _REQUIRED, "enclosed flux in flux quanta"),
    "k": Param("float", 1.0, "wavenumber"),
    "r": Param("float", 10.0, "detection radius"),
    "n_thetas": Param("int", 64, "evaluation angles over [-pi, pi)"),
    "n_max": Param("int", 0, "series truncation; 0 means ceil(k*r) + 40"),
})
def _run_scattering(params: dict, seed: int) -> ExperimentRecord:
    from .scattering import FluxParam, ScatterConfig, _psi

    n_max = params["n_max"] or math.ceil(params["k"] * params["r"]) + 40
    thetas = tuple(-math.pi + 2.0 * math.pi * i / params["n_thetas"]
                   for i in range(params["n_thetas"]))
    cfg = ScatterConfig(k=params["k"], r=params["r"], thetas=thetas, n_max=n_max)
    flux = FluxParam(params["alpha"])
    values, tail = _psi(flux, cfg, thetas)
    return ExperimentRecord(
        experiment="scattering",
        params_echo={**params, "n_max": n_max},
        columns={"theta": np.array(thetas), "intensity": np.abs(values) ** 2},
        provenance=_provenance(seed),
        summary={"tail_bound": tail, "kr": params["k"] * params["r"],
                 "reduced_flux": flux.reduced},
    )


@_experiment("random-walk", {
    "n": Param("int", 2048), "length": Param("float", 64.0), "hbar": Param("float", 1.0),
    "m_slits": Param("int", 8, "even count closes the alternating ring exactly"),
    "spacing": Param("float", 8.0),
    "width": Param("float", 2.0, "packet width (wide packet, narrow envelope)"),
    "kind": Param("str", "gaussian"),
    "n_electrons": Param("int", _REQUIRED),
    "n_repeats": Param("int", _REQUIRED),
    "strict": Param("int", 0, "1: refuse runs outside the two-point regime"),
})
def _run_random_walk(params: dict, seed: int) -> ExperimentRecord:
    grid = _grid_from(params)
    m = params["m_slits"]
    center0 = -(m - 1) * params["spacing"] / 2.0
    spec = SlitArraySpec(
        m_slits=m, spacing=params["spacing"],
        packet=PacketSpec(kind=params["kind"], center=center0, width=params["width"]),
        phases=tuple((math.pi if s % 2 else 0.0) for s in range(m)),
    )
    rec = random_walk_experiment(spec, grid, params["n_electrons"],
                                 params["n_repeats"], seed, strict=bool(params["strict"]))
    return replace(rec, params_echo=params)


@_experiment("taylor-demo", {
    "n": Param("int", 2048), "length": Param("float", 64.0), "hbar": Param("float", 1.0),
    "mode": Param("str", _REQUIRED, "two-bump (divergent) or gaussian (convergent)"),
    "spacing": Param("float", 8.0, "translation length L"),
    "width": Param("float", 2.0, "bump half-support or gaussian sigma"),
    "alpha": Param("float", 0.0, "relative phase in two-bump mode"),
    "orders": Param("int", 40),
})
def _run_taylor_demo(params: dict, seed: int) -> ExperimentRecord:
    grid = _grid_from(params)
    L = params["spacing"]
    if params["mode"] == "two-bump":
        packet = PacketSpec(kind="bump", center=-L / 2.0, width=params["width"])
        psi = make_two_slit(grid, L, packet, params["alpha"])
    elif params["mode"] == "gaussian":
        psi = make_packet(grid, PacketSpec("gaussian", 0.0, params["width"]))
    else:
        raise SchemaViolation("mode must be 'two-bump' or 'gaussian'")
    exact = translation_expect(psi, L)
    sums = taylor_divergence_demo(psi, L, params["orders"])
    errs = np.abs(sums - exact)
    return ExperimentRecord(
        experiment="taylor-demo", params_echo=params,
        columns={"order": np.arange(len(sums)), "partial_re": sums.real,
                 "partial_im": sums.imag, "abs_err": errs},
        provenance=_provenance(seed),
        summary={"exact_re": exact.real, "exact_im": exact.imag,
                 "final_abs_err": float(errs[-1]), "min_abs_err": float(np.min(errs))},
    )


# ---------------------------------------------------------------------------
# dispatch


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str = "."
    format: str = "csv"


def run(config: ExperimentConfig) -> ExperimentRecord:
    """Validate, dispatch, write the output file, and return the record."""
    params = validate_params(config.name, config.params)
    record = _RUNNERS[config.name](params, config.seed)
    write_record(record, config.out_dir, config.format, config.seed)
    return record
