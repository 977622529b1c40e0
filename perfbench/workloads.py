"""The benchmark's workloads: seeded input generation, one op each, and the
checks that op's outputs must pass.

`inputs(seed, index)` draws op `index` of a run from the seed alone; modlab
sees only these generated values. `op(inputs, out_dir)` makes the modlab
calls and returns their outputs; it is the timed unit. `check(inputs,
outputs)` compares outputs with the oracles in `checks` without calling
modlab, so a traced run attributes no check work to a layer. Every op
writes its records with `experiments.run` from `inputs["configs"]`;
`record_files` names them for the byte-reproducibility check, and
`rerun(inputs, out_dir)` writes them again.

modlab is always reached through module attributes (`ex.run`, not a name
imported once), so the tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from modlab import cli, evolve, experiments as ex, grid, observables, operators
from modlab import scattering, states

MOMENT_DEGREES = [(n_x, m_p) for n_x in range(7) for m_p in range(7 - n_x)]  # 28


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _config(name: str, params: dict, rng: np.random.Generator, fmt: str) -> dict:
    return {"name": name, "params": params, "seed": int(rng.integers(2**32)), "format": fmt}


def _run_configs(configs: list[dict], out_dir: Path) -> list:
    return [ex.run(ex.ExperimentConfig(c["name"], dict(c["params"]), c["seed"],
                                       str(out_dir), c["format"]))
            for c in configs]


def record_files(inputs: dict, out_dir: Path) -> list[Path]:
    return [out_dir / f"{c['name']}-{c['seed']}.{c['format']}" for c in inputs["configs"]]


def rerun(inputs: dict, out_dir: Path) -> list[Path]:
    _run_configs(inputs["configs"], out_dir)
    return record_files(inputs, out_dir)


# ---------------------------------------------------------------------------
# two-particle: one 256^2 x 600-step Strang run at CLI defaults


def two_particle_inputs(seed: int, index: int) -> dict:
    rng = _rng(seed, index)
    params = {"separation": float(rng.uniform(5.5, 6.5)),
              "p_approach": float(rng.uniform(1.8, 2.2))}
    return {"configs": [_config("two-particle", params, rng, ("csv", "json")[index % 2])]}


def two_particle_op(inputs: dict, out_dir: Path) -> dict:
    return {"records": _run_configs(inputs["configs"], out_dir)}


def two_particle_check(inputs: dict, outputs: dict) -> list[str]:
    return checks.check_two_particle(outputs["records"][0].summary)


# ---------------------------------------------------------------------------
# phase-lab: the seven 1-D experiments, one CLI call, the acceptance-2 moment
# sweep and detection sampling


def phase_lab_inputs(seed: int, index: int) -> dict:
    rng = _rng(seed, index)
    tau = 2.0 * math.pi
    experiments = [
        ("two-slit", {"alpha": float(rng.uniform(0.0, tau))}),
        ("grating", {"phase_pattern": str(rng.choice(["zero", "alternating"]))}),
        ("eom-check", {"alpha": float(rng.uniform(0.0, tau))}),
        ("uncertainty", {"widths": "0.4,0.6,0.8"}),
        ("classical-limit", {}),
        ("taylor-demo", {"mode": "two-bump", "alpha": float(rng.uniform(0.0, tau))}),
        ("random-walk", {"n_electrons": 100, "n_repeats": 10_000}),
    ]
    configs = [_config(name, params, rng, ("csv", "json")[(i + index) % 2])
               for i, (name, params) in enumerate(experiments)]
    return {
        "configs": configs,
        "cli": {"alpha": float(rng.uniform(0.0, tau)), "seed": int(rng.integers(2**32)),
                "format": ("json", "csv")[index % 2]},
        "sweep_alphas": np.sort(rng.uniform(0.0, tau, 16)),
        "detection_pattern": str(rng.choice(["zero", "alternating"])),
        "detection_seed": int(rng.integers(2**32)),
        "detection_trials": 20_000,
    }


def phase_lab_op(inputs: dict, out_dir: Path) -> dict:
    records = {r.experiment: r for r in _run_configs(inputs["configs"], out_dir)}

    c = inputs["cli"]
    cli_dir = out_dir / "cli"
    cli_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = cli_dir / "two-slit.cfg"
    cfg_path.write_text(f"alpha = {c['alpha']!r}\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["two-slit", "--config", str(cfg_path), "--out", str(cli_dir),
                         "--format", c["format"], "--seed", str(c["seed"])])

    g = grid.make_grid(2048, -30.5, 61.0, 1.0)
    width = 5.0
    L = round(2.125 * width / g.dx) * g.dx
    sweep = [states.make_two_slit(g, L, states.PacketSpec("bump", -L / 2.0, width), float(a))
             for a in inputs["sweep_alphas"]]
    moments = np.array([[observables.weyl_moment(psi, observables.MomentSpec(n_x, m_p))
                         for n_x, m_p in MOMENT_DEGREES] for psi in sweep])
    c1 = np.array([observables.translation_expect(psi, L) for psi in sweep])
    c1_translate = np.array([grid.inner(psi, grid.translate(psi, L)) for psi in sweep])

    g_far = grid.make_grid(4096, -64.0, 128.0, 1.0)
    alternating = inputs["detection_pattern"] == "alternating"
    spec = states.SlitArraySpec(
        m_slits=8, spacing=8.0, packet=states.PacketSpec("bump", -28.0, 1.5),
        phases=tuple(math.pi * (s % 2) * alternating for s in range(8)))
    far = evolve.free_far_field(states.make_grating(g_far, spec))
    samples = ex.sample_detections(far, inputs["detection_trials"], inputs["detection_seed"])

    return {"records": records, "cli_code": code,
            "cli_file": cli_dir / f"two-slit-{c['seed']}.{c['format']}",
            "moments": moments, "c1": c1, "c1_translate": c1_translate,
            "samples": samples, "lattice": g_far.p}


def phase_lab_check(inputs: dict, outputs: dict) -> list[str]:
    rec = outputs["records"]
    params = {c["name"]: c["params"] for c in inputs["configs"]}
    grating = rec["grating"]
    return [
        *checks.check_two_slit(rec["two-slit"].summary, params["two-slit"]["alpha"]),
        *checks.check_grating(grating.columns["p_peak"], grating.params_echo["spacing"],
                              2.0 * math.pi * grating.params_echo["hbar"]
                              / grating.params_echo["length"],
                              params["grating"]["phase_pattern"] == "alternating"),
        *checks.check_eom_ratios(rec["eom-check"].summary),
        *checks.check_uncertainty(rec["uncertainty"].columns, rec["uncertainty"].params_echo["bins"]),
        *checks.check_classical_limit(rec["classical-limit"].summary),
        *checks.check_taylor(rec["taylor-demo"].summary),
        *checks.check_random_walk(rec["random-walk"].summary),
        *checks.check_cli(outputs["cli_code"], outputs["cli_file"]),
        *checks.check_moment_sweep(outputs["moments"], outputs["c1"], outputs["c1_translate"],
                                   inputs["sweep_alphas"]),
        *checks.check_detections(outputs["samples"], outputs["lattice"]),
    ]


# ---------------------------------------------------------------------------
# oracles: the dense operator engine on a fresh grid, and the flux-line series

N_THETAS = 64  # the scattering experiment's default angle count


def _theta(i: int) -> float:
    # the same expression the scattering experiment uses for its angles
    return -math.pi + 2.0 * math.pi * i / N_THETAS


def oracles_inputs(seed: int, index: int) -> dict:
    rng = _rng(seed, index)
    flux = []
    for r, n_subset in ((10.0, 6), (100.0, 1)):
        alpha = float(rng.uniform(-2.0, 2.0))
        flux.append({"k": 1.0, "r": r, "alpha": alpha,
                     "thetas": sorted(int(i) for i in rng.choice(N_THETAS, n_subset, replace=False))})
    # stratified (nu, z): every nu band meets the series range, the first
    # recurrence range and large z, plus pairs straddling the z = 15 switch
    points = []
    for lo in (0.0, 50.0, 100.0, 150.0):
        for z_lo, z_hi in ((0.5, 15.0), (15.0, 30.0), (30.0, 500.0)):
            points.append((float(rng.uniform(lo, lo + 50.0)), float(rng.uniform(z_lo, z_hi))))
        nu, dz = float(rng.uniform(lo, lo + 50.0)), float(rng.uniform(0.0, 0.5))
        points += [(nu, 15.0 - dz), (nu, 15.0 + dz)]
    return {
        "configs": [_config("scattering", {"alpha": f["alpha"], "k": f["k"], "r": f["r"]},
                            rng, ("csv", "json")[(i + index) % 2])
                    for i, f in enumerate(flux)],
        "dense_length": float(rng.uniform(60.8, 62.0)),
        "dense_alpha": float(rng.uniform(0.0, 2.0 * math.pi)),
        "eom_length": float(rng.uniform(248.0, 264.0)),
        "eom_noise": rng.normal(size=256),
        "flux": flux,
        "bessel_points": points,
    }


def oracles_op(inputs: dict, out_dir: Path) -> dict:
    length = inputs["dense_length"]
    g = grid.make_grid(2048, -length / 2.0, length, 1.0)
    width = 5.0
    L = round(2.125 * width / g.dx) * g.dx
    psi = states.make_two_slit(g, L, states.PacketSpec("bump", -L / 2.0, width),
                               inputs["dense_alpha"])
    w11 = operators.weyl_matrix(g, 1, 1).entries
    direct = float((np.vdot(psi.amps, w11 @ psi.amps) * g.dx).real)
    del w11  # 64 MiB the rest of the op does not need
    factored = observables.weyl_moment(psi, observables.MomentSpec(1, 1))

    length = inputs["eom_length"]
    g256 = grid.make_grid(256, -length / 2.0, length, 1.0)
    potentials = [evolve.PotentialSpec.barrier(2.0, -3.0, 3.0),
                  evolve.PotentialSpec.harmonic(0.02),
                  evolve.PotentialSpec.sampled(inputs["eom_noise"])]
    residuals = []
    for v in potentials:
        scale = float(np.max(np.abs(v.values(g256))))
        for m in (1, 8, 64):
            residuals.append((operators.eom_identity_residual(g256, v, m * g256.dx), scale))

    records = _run_configs(inputs["configs"], out_dir)
    pw = {}
    for f, rec in zip(inputs["flux"], records):
        n_max = rec.params_echo["n_max"]
        for i in f["thetas"]:
            theta = _theta(i)
            cfg = scattering.ScatterConfig(f["k"], f["r"], (theta,), n_max)
            base = scattering.partial_wave_psi(scattering.FluxParam(f["alpha"]), cfg, theta)
            shifted = scattering.partial_wave_psi(scattering.FluxParam(f["alpha"] + 1.0), cfg, theta)
            mirrored = scattering.partial_wave_psi(scattering.FluxParam(-f["alpha"]), cfg, -theta)
            pw[(f["k"] * f["r"], i)] = (abs(base.value), abs(shifted.value),
                                        abs(mirrored.value), float(rec.columns["intensity"][i]))
    bessel = [scattering.bessel_j(nu, z) for nu, z in inputs["bessel_points"]]
    return {"records": records, "direct": direct, "factored": factored,
            "residuals": residuals, "pw": pw, "bessel": bessel}


def oracles_check(inputs: dict, outputs: dict) -> list[str]:
    return [
        *checks.check_dense_vs_factored(outputs["direct"], outputs["factored"]),
        *checks.check_eom_identity(outputs["residuals"]),
        *checks.check_flux_symmetries(outputs["pw"]),
        *checks.check_bessel(inputs["bessel_points"], outputs["bessel"]),
    ]


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int, int], dict]
    op: Callable[[dict, Path], dict]
    check: Callable[[dict, dict], list[str]]


WORKLOADS = {
    "two-particle": Workload(two_particle_inputs, two_particle_op, two_particle_check),
    "phase-lab": Workload(phase_lab_inputs, phase_lab_op, phase_lab_check),
    "oracles": Workload(oracles_inputs, oracles_op, oracles_check),
}
