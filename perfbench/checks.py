"""Per-op correctness oracles.

Each check takes an op's inputs and outputs and returns a list of problems;
an empty list means the op passed. Tolerances are the ones the test suite
states, never floats recorded from an earlier commit, so a speed-up that
moves the last bits still passes. Comparisons are written as `not (x < tol)`
so that a NaN fails.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special


def _wrapped_angle(a: float) -> float:
    return abs(math.remainder(a, 2.0 * math.pi))


def check_two_particle(summary: dict) -> list[str]:
    problems = []
    if not summary["max_t12_drift"] < 1e-10:
        problems.append(f"two-particle: total modular drift {summary['max_t12_drift']:.3g} >= 1e-10")
    if not summary["max_t1_change"] > 1e-3:
        problems.append(f"two-particle: single-particle change {summary['max_t1_change']:.3g} <= 1e-3")
    return problems


def check_two_slit(summary: dict, alpha: float) -> list[str]:
    problems = []
    if not abs(summary["abs_c1"] - 0.5) < 1e-8:
        problems.append(f"two-slit: |c1| = {summary['abs_c1']!r}, expected 0.5")
    if not _wrapped_angle(summary["arg_c1"] - alpha) < 1e-8:
        problems.append(f"two-slit: arg c1 = {summary['arg_c1']!r}, expected {alpha!r}")
    return problems


def check_grating(p_peak: np.ndarray, spacing: float, dp: float, alternating: bool) -> list[str]:
    h_over_l = 2.0 * math.pi / spacing
    frac = p_peak / h_over_l - (0.5 if alternating else 0.0)
    if len(p_peak) >= 2 and np.all(np.abs(frac - np.round(frac)) * h_over_l <= dp):
        return []
    return [f"grating: peaks {p_peak} off the h/L lattice (alternating={alternating})"]


def check_eom_ratios(summary: dict) -> list[str]:
    ratios = {k: v for k, v in summary.items() if k.startswith("ratio_")}
    bad = {k: v for k, v in ratios.items() if not 3.5 < v < 4.5}
    if ratios and not bad:
        return []
    return [f"eom-check: residual ratios {bad or ratios} outside (3.5, 4.5)"]


def check_uncertainty(columns: dict, bins: int) -> list[str]:
    problems = []
    for k in range(1, 5):
        if not np.all(columns[f"c{k}"] < 1e-12):
            problems.append(f"uncertainty: c{k} = {columns[f'c{k}']} not < 1e-12")
    if not np.all(columns["tv_uniform"] < 1.0 / (2.0 * bins) + 1e-10):
        problems.append(f"uncertainty: tv {columns['tv_uniform']} above the bin bound")
    return problems


def check_classical_limit(summary: dict) -> list[str]:
    if summary["tv_final"] < 0.01:
        return []
    return [f"classical-limit: tv_final {summary['tv_final']!r} >= 0.01"]


def check_taylor(summary: dict) -> list[str]:
    if summary["min_abs_err"] > 1e-2:
        return []
    return [f"taylor-demo: two-bump series came within {summary['min_abs_err']!r} of exact"]


def check_random_walk(summary: dict) -> list[str]:
    rms, predicted = summary["rms_final_recoil"], summary["predicted_rms"]
    if summary["two_point_regime"] == 1.0 and abs(rms - predicted) < 0.05 * predicted:
        return []
    return [f"random-walk: rms recoil {rms!r} not within 5% of {predicted!r}"]


def check_moment_sweep(moments: np.ndarray, c1: np.ndarray, c1_translate: np.ndarray,
                       alphas: np.ndarray) -> list[str]:
    """moments[i, j]: moment j of the state with phase alphas[i]."""
    problems = []
    spread = np.max(moments, axis=0) - np.min(moments, axis=0)
    if not np.all(spread < 1e-10):
        problems.append(f"moments: spread over alpha {float(np.max(spread)):.3g} >= 1e-10")
    if not np.all(np.abs(np.abs(c1) - 0.5) < 1e-8):
        problems.append(f"moments: |c1| off 0.5 by {float(np.max(np.abs(np.abs(c1) - 0.5))):.3g}")
    phase_err = max(_wrapped_angle(math.atan2(c.imag, c.real) - a) for c, a in zip(c1, alphas))
    if not phase_err < 1e-8:
        problems.append(f"moments: arg c1 misses alpha by {phase_err:.3g}")
    if not np.all(np.abs(c1 - c1_translate) < 1e-12):
        problems.append("moments: translation_expect disagrees with <psi|translate(psi, L)>")
    return problems


def check_detections(samples: list, lattice: np.ndarray) -> list[str]:
    trials = np.array([s.trial for s in samples])
    ps = np.array([s.p_detected for s in samples])
    recoil = np.array([s.recoil_cumulative for s in samples])
    problems = []
    if not np.array_equal(trials, np.arange(len(samples))):
        problems.append("detections: trial indices are not 0..n-1 in order")
    if not np.all(np.isin(ps, lattice)):
        problems.append("detections: a detected momentum is off the lattice")
    if not np.array_equal(recoil, -np.cumsum(ps)):
        problems.append("detections: recoil is not the negated running momentum sum")
    return problems


def check_cli(exit_code: int, out_file) -> list[str]:
    if exit_code == 0 and out_file.is_file():
        return []
    return [f"cli: exit code {exit_code}, output file present: {out_file.is_file()}"]


def check_dense_vs_factored(direct: float, factored: float) -> list[str]:
    if abs(direct - factored) < 1e-8:
        return []
    return [f"dense W(x p) moment {direct!r} vs factored {factored!r}"]


def check_eom_identity(residuals: list[tuple[float, float]]) -> list[str]:
    """residuals: (residual, max|V|) pairs."""
    bad = [(r, s) for r, s in residuals if not r < 1e-12 * s]
    return [f"eom identity residuals {bad} not < 1e-12 max|V|"] if bad else []


def check_flux_symmetries(pw: dict) -> list[str]:
    """pw maps (kr, theta) to (|psi(a, t)|, |psi(a+1, t)|, |psi(-a, -t)|, profile |psi|^2)."""
    problems = []
    for key, (base, shifted, mirrored, profile) in pw.items():
        if not abs(shifted - base) < 1e-9:
            problems.append(f"flux {key}: period-1 symmetry off by {abs(shifted - base):.3g}")
        if not abs(mirrored - base) < 1e-9:
            problems.append(f"flux {key}: reflection symmetry off by {abs(mirrored - base):.3g}")
        if not abs(profile - base**2) < 1e-9:
            problems.append(f"flux {key}: profile {profile!r} vs |psi|^2 {base**2!r}")
    return problems


def bessel_errors(points: list[tuple[float, float]], values: list[float]) -> np.ndarray:
    nu, z = np.array(points).T
    return np.abs(np.asarray(values) - scipy.special.jv(nu, z))


def check_bessel(points: list[tuple[float, float]], values: list[float]) -> list[str]:
    err = bessel_errors(points, values)
    if np.all(err < 1e-10):
        return []
    worst = int(np.argmax(err))
    return [f"bessel_j{points[worst]} off scipy.special.jv by {err[worst]:.3g}"]


def compare_files(first: list, second: list) -> list[str]:
    """Byte-identical reruns of one (config, seed)."""
    return [f"rerun of {a.name} is not byte-identical"
            for a, b in zip(first, second, strict=True) if a.read_bytes() != b.read_bytes()]
