import dataclasses
import json
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from modlab import (
    DetectionSample,
    ExperimentConfig,
    MomentumAmplitudes,
    PacketSpec,
    PotentialSpec,
    PropagatorConfig,
    SlitArraySpec,
    classical_limit_experiment,
    make_grid,
    make_packet,
    product_state,
    propagate_two,
    random_walk_experiment,
    run,
    sample_detections,
    translation_expect_two,
    uncertainty_experiment,
)
from modlab import experiments, records
from modlab.errors import (
    ArgumentError,
    DisjointnessViolated,
    NonFiniteAmplitude,
    PeriodUnderResolved,
    PhaseWrapWarning,
    RegimeViolation,
    SchemaViolation,
    UnknownExperiment,
    ZeroState,
)
from modlab.experiments import _lattice_cdf, _sample_lattice_p, validate_params
from modlab.grid import to_momentum
from modlab.records import ExperimentRecord, _format_param, format_number, write_record
from modlab.rng import counter_uniform
from modlab.states import make_grating


# --- counter-based rng ---------------------------------------------------------

def test_counter_uniform_deterministic():
    a = counter_uniform(1234, np.arange(100, dtype=np.uint64))
    b = counter_uniform(1234, np.arange(100, dtype=np.uint64))
    assert np.array_equal(a, b)
    assert counter_uniform(1234, 7) == a[7]


def test_counter_uniform_seed_sensitivity():
    a = counter_uniform(1, np.arange(64, dtype=np.uint64))
    b = counter_uniform(2, np.arange(64, dtype=np.uint64))
    assert np.max(np.abs(a - b)) > 1e-3


def test_counter_uniform_range_and_mean():
    u = counter_uniform(99, np.arange(100_000, dtype=np.uint64))
    assert np.all((0.0 <= u) & (u < 1.0))
    assert abs(np.mean(u) - 0.5) < 0.005


def _splitmix64_uniform(seed, trial):
    """counter_uniform of one (seed, trial), in Python integer arithmetic."""
    mask = 2**64 - 1
    z = (seed + 0x9E3779B97F4A7C15 * (trial + 1)) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return (z >> 11) / 2**53


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
def test_counter_uniform_is_splitmix64_bit_for_bit(seed):
    trials = [0, 2**32, 2**64 - 2]
    block = np.arange(2**40 - 3, 2**40 + 509, dtype=np.uint64)
    for t in trials:
        assert counter_uniform(seed, t) == _splitmix64_uniform(seed, t)
    for t in (np.array(trials, dtype=np.uint64), block):
        expected = np.array([_splitmix64_uniform(seed, int(i)) for i in t])
        assert np.array_equal(counter_uniform(seed, t).view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(block, np.arange(2**40 - 3, 2**40 + 509, dtype=np.uint64))


# --- detection sampling -----------------------------------------------------------

def point_mass_density(j_offset=5):
    g = make_grid(64, -8.0, 16.0)
    amps = np.zeros(g.n, dtype=complex)
    amps[g.n // 2 + j_offset] = 1.0 / math.sqrt(g.dp)
    return g, MomentumAmplitudes(g, amps)


def test_sample_detections_point_mass():
    g, dens = point_mass_density()
    samples = sample_detections(dens, 20, seed=7)
    target = g.p[g.n // 2 + 5]
    for s in samples:
        assert s.p_detected == target
        assert s.p_detected in g.p
    assert samples[-1].recoil_cumulative == pytest.approx(-20 * target)


def test_sample_detections_two_point_mean():
    g = make_grid(64, -8.0, 16.0)
    j = 4
    amps = np.zeros(g.n, dtype=complex)
    amps[g.n // 2 + j] = 1.0 / math.sqrt(2.0 * g.dp)
    amps[g.n // 2 - j] = 1.0 / math.sqrt(2.0 * g.dp)
    dens = MomentumAmplitudes(g, amps)
    n = 100_000
    samples = sample_detections(dens, n, seed=3)
    ps = np.array([s.p_detected for s in samples])
    step = g.p[g.n // 2 + j]
    assert abs(np.mean(ps)) < 3.0 * step / math.sqrt(n)


def test_sample_detections_reproducible():
    _, dens = point_mass_density()
    a = sample_detections(dens, 10, seed=42)
    b = sample_detections(dens, 10, seed=42)
    assert all(x == y for x, y in zip(a, b))


def test_detection_sample_is_a_slotted_frozen_record():
    _, dens = point_mass_density()
    a, b = sample_detections(dens, 2, seed=5)
    assert not hasattr(a, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.p_detected = 0.0
    twin = DetectionSample(a.trial, a.p_detected, a.recoil_cumulative)
    assert twin == a and hash(twin) == hash(a) and a != b
    assert dataclasses.replace(a, trial=b.trial, recoil_cumulative=b.recoil_cumulative) == b
    assert pickle.loads(pickle.dumps(a)) == a


def test_sample_detections_rejects_no_trials():
    _, dens = point_mass_density()
    with pytest.raises(ArgumentError):
        sample_detections(dens, 0, seed=1)


@pytest.mark.parametrize("bad, error", [(0.0, ZeroState), (np.nan, NonFiniteAmplitude),
                                        (np.inf, NonFiniteAmplitude)])
def test_sample_detections_rejects_a_zero_or_non_finite_density(bad, error):
    # a zero total would divide by zero and a NaN or inf one would poison the
    # cdf; either way every draw would land on one fixed lattice momentum
    g = make_grid(8, -1.0, 2.0)
    amps = np.zeros(g.n, dtype=complex)
    amps[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            sample_detections(MomentumAmplitudes(g, amps), 6, seed=1)


def _density(n, amps):
    g = make_grid(n, -n / 8.0, n / 4.0)
    return MomentumAmplitudes(g, np.asarray(amps, dtype=complex))


def _zero_runs_density():
    amps = np.random.default_rng(3).random(64)
    amps[:5] = amps[20:30] = amps[55:] = 0.0
    return _density(64, amps)


def _overshooting_density():
    dens = _density(8, [0, 0, 3, 3, 3, 1, 0, 0])
    cdf = _lattice_cdf(dens)
    assert cdf[-2] > 1.0 == cdf[-1]  # the cumsum overshoots before the pinned entry
    return dens


def _phase_lab_far_field():
    spec = SlitArraySpec(m_slits=8, spacing=8.0, packet=PacketSpec("bump", -28.0, 1.5),
                         phases=tuple(math.pi * (s % 2) for s in range(8)))
    return to_momentum(make_grating(make_grid(4096, -64.0, 128.0), spec))


DENSITIES = {
    "point-mass": lambda: point_mass_density()[1],
    "zero-runs": _zero_runs_density,
    # weights 9:1:1:1, so cdf steps at 3/4, 5/6 and 11/12: keys j/k and
    # products u k that are exact only because k = 2n is a power of two
    "n=8": lambda: _density(8, [0, 0, 0, 0, 3, 1, 1, 1]),
    "overshoot": _overshooting_density,
    "random-walk": lambda: to_momentum(make_grating(make_grid(2048, -32.0, 64.0), ring_spec())),
    "phase-lab": _phase_lab_far_field,
}


def _edge_uniforms(cdf):
    """The uniforms on the guide's bucket edges j/k and just below (j+1)/k
    (k = 2n), on the cdf's steps and just below them, and 0 and 1 - 2^-53."""
    k = 2 * cdf.size
    u = np.concatenate([np.arange(k + 1) / k, cdf, [0.0]])
    u = np.concatenate([u, np.nextafter(u, 0.0)])
    return u[u < 1.0]


@pytest.mark.parametrize("edges", [False, True], ids=["seeded", "edges"])
@pytest.mark.parametrize("case", DENSITIES)
def test_sampler_matches_binary_search(monkeypatch, case, edges):
    dens = DENSITIES[case]()
    n = dens.grid.n
    cdf = _lattice_cdf(dens)
    trials = np.arange(20_000, dtype=np.uint64)
    if edges:
        edge = _edge_uniforms(cdf)
        trials = trials[:edge.size]
        monkeypatch.setattr(experiments, "counter_uniform", lambda seed, t: edge[t])
    u = experiments.counter_uniform(5, trials)
    want = dens.grid.p[np.minimum(np.searchsorted(cdf, u, side="right"), n - 1)]
    assert np.array_equal(_sample_lattice_p(dens, cdf, 5, trials), want)


# --- uncertainty -------------------------------------------------------------------

def test_uncertainty_experiment_rows():
    grid = make_grid(4096, -64.0, 128.0)
    rec = uncertainty_experiment(2.0, [0.4, 0.6, 0.8], grid)
    for k in (1, 2, 3, 4):
        assert np.all(rec.columns[f"c{k}"] < 1e-12)
    assert np.all(rec.columns["tv_uniform"] < 1.0 / 64.0 + 1e-10)
    assert np.all(np.abs(rec.columns["c1_two_slit"] - 0.5) < 1e-8)


def test_uncertainty_rejects_wide_packet():
    grid = make_grid(4096, -64.0, 128.0)
    with pytest.raises(DisjointnessViolated):
        uncertainty_experiment(2.0, [1.0], grid)


# --- classical limit -----------------------------------------------------------------

def test_classical_limit_flattens():
    grid = make_grid(32768, -2048.0, 4096.0, 1.0)
    packet = PacketSpec("gaussian", 0.0, 0.96)
    hbars = [1.0 / 2**i for i in range(8)]
    rec = classical_limit_experiment(1.0, hbars, packet, grid)
    tv = rec.columns["tv_uniform"]
    assert tv[0] > 0.5
    assert tv[-1] < 0.01
    assert np.all(np.diff(tv) <= 1e-12)


def test_classical_limit_guards():
    grid = make_grid(1024, -64.0, 128.0)
    packet = PacketSpec("gaussian", 0.0, 1.0)
    with pytest.raises(PeriodUnderResolved):
        classical_limit_experiment(1.0, [1.0, 0.5, 1.0 / 2048.0], packet, grid)
    with pytest.raises(ValueError):
        classical_limit_experiment(1.0, [0.5, 1.0], packet, grid)


def test_classical_limit_rejects_no_hbar_values():
    grid = make_grid(1024, -64.0, 128.0)
    with pytest.raises(ArgumentError):
        classical_limit_experiment(1.0, [], PacketSpec("gaussian", 0.0, 1.0), grid)


@pytest.mark.parametrize("L", [-1.0, 0.0, math.nan, math.inf])
def test_classical_limit_rejects_a_bad_cell_length(L):
    # refused before any arithmetic: no ZeroDivisionError, RuntimeWarning or
    # record from a cell of 2 pi hbar / L
    grid = make_grid(1024, -64.0, 128.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match="L must be positive and finite"):
            classical_limit_experiment(L, [1.0, 0.5], PacketSpec("gaussian", 0.0, 1.0), grid)


def test_classical_limit_uniform_input_is_flat():
    # an exactly uniform momentum density folds to zero TV at every cell
    from modlab.observables import fold_density, tv_from_uniform

    g = make_grid(512, -32.0, 64.0)
    w = np.full(g.n, 1.0 / g.n)
    for cell_sites in (8, 16, 64):
        dens = fold_density(g.p, w, cell_sites * g.dp, 8)
        assert tv_from_uniform(dens) < 1e-12


# --- random walk ----------------------------------------------------------------------

def ring_spec(m_slits=8, spacing=8.0, width=2.0):
    return SlitArraySpec(
        m_slits=m_slits, spacing=spacing,
        packet=PacketSpec("gaussian", -(m_slits - 1) * spacing / 2.0, width),
        phases=tuple(math.pi * (s % 2) for s in range(m_slits)),
    )


def test_random_walk_two_point_regime():
    grid = make_grid(2048, -32.0, 64.0)
    rec = random_walk_experiment(ring_spec(), grid, n_electrons=25, n_repeats=400, seed=11)
    assert rec.summary["two_point_regime"] == 1.0
    assert rec.summary["peak_pair_mass"] > 0.95
    h = 2.0 * math.pi
    assert rec.summary["predicted_rms"] == pytest.approx(h / 16.0 * 5.0)
    assert rec.summary["rms_final_recoil"] == pytest.approx(rec.summary["predicted_rms"], rel=0.15)


def test_random_walk_single_step_rms():
    grid = make_grid(2048, -32.0, 64.0)
    rec = random_walk_experiment(ring_spec(), grid, n_electrons=1, n_repeats=500, seed=4)
    assert rec.summary["rms_final_recoil"] == pytest.approx(2.0 * math.pi / 16.0, rel=0.01)


def test_random_walk_strict_regime_violation():
    grid = make_grid(2048, -32.0, 64.0)
    # narrow packets -> wide envelope -> higher orders keep too much weight
    spec = ring_spec(width=0.5)
    with pytest.raises(RegimeViolation):
        random_walk_experiment(spec, grid, 10, 100, seed=0, strict=True)
    rec = random_walk_experiment(spec, grid, 10, 100, seed=0, strict=False)
    assert rec.summary["two_point_regime"] == 0.0
    assert rec.summary["predicted_rms"] > 0.0


@pytest.mark.parametrize("n_electrons", [0, -3])
def test_random_walk_rejects_no_electrons(n_electrons):
    grid = make_grid(2048, -32.0, 64.0)
    with pytest.raises(ArgumentError):
        random_walk_experiment(ring_spec(), grid, n_electrons, 100, seed=0)


def test_random_walk_conservation_columns():
    grid = make_grid(2048, -32.0, 64.0)
    rec = random_walk_experiment(ring_spec(), grid, n_electrons=10, n_repeats=100, seed=8)
    h_over_l = 2.0 * math.pi / 8.0
    assert np.all(rec.columns["recoil_mod"] >= 0.0)
    assert np.all(rec.columns["recoil_mod"] < h_over_l)


def _random_walk_reference(spec, grid, n_electrons, trials, seed):
    """-sum of the draws keyed r * n_electrons + e, made as one array."""
    far = to_momentum(make_grating(grid, spec))
    steps = _sample_lattice_p(far, _lattice_cdf(far), seed, trials.astype(np.uint64))
    return -np.sum(steps.reshape(-1, n_electrons), axis=1)


@pytest.mark.parametrize("chunk,n_electrons,n_repeats", [
    (2**16, 100, 1000),  # 655 repeats per block, a short last block
    (2**16, 7, 10_000),  # 9362 repeats per block
    (64, 100, 130),      # more electrons than a block holds: one repeat per block
])
def test_random_walk_blocks_match_one_array(monkeypatch, chunk, n_electrons, n_repeats):
    monkeypatch.setattr(experiments, "_DRAW_CHUNK", chunk)
    grid = make_grid(2048, -32.0, 64.0)
    rec = random_walk_experiment(ring_spec(), grid, n_electrons, n_repeats, seed=9)
    want = _random_walk_reference(ring_spec(), grid, n_electrons,
                                  np.arange(n_repeats * n_electrons), seed=9)
    assert np.array_equal(rec.columns["final_recoil"], want)


def test_random_walk_more_electrons_than_a_block():
    n_electrons = 2**16 + 3
    grid = make_grid(2048, -32.0, 64.0)
    rec = random_walk_experiment(ring_spec(), grid, n_electrons, 100, seed=2)
    for r in (0, 1, 99):
        want = _random_walk_reference(ring_spec(), grid, n_electrons,
                                      r * n_electrons + np.arange(n_electrons), seed=2)
        assert rec.columns["final_recoil"][r] == want[0]


def test_random_walk_working_memory_is_bounded(tmp_path):
    # 10^6 draws; drawn at once, their uniforms alone take 7.6 MiB
    cfg = ExperimentConfig(name="random-walk", out_dir=str(tmp_path),
                           params={"n_electrons": "100", "n_repeats": "10000"})
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_eom_check_keeps_one_level_of_snapshots(tmp_path):
    # at defaults the finest level holds 641 snapshots of 16 KiB (10 MiB);
    # the previous level's 321 still alive would add 5 MiB
    cfg = ExperimentConfig(name="eom-check", out_dir=str(tmp_path))
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_two_particle_keeps_one_stack_at_the_grid_cap(tmp_path):
    # at n = 512 one n x n complex stack is 4 MiB; the run's traced peak is
    # 24.3 MiB, so a second stack alive at once would cross 28 MiB
    cfg = ExperimentConfig(name="two-particle", out_dir=str(tmp_path),
                           params={"n": "512", "length": "64", "steps": "40",
                                   "snapshot_every": "20"})
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20


# --- schemas and dispatch ----------------------------------------------------------------

def test_validate_params_reports_everything_at_once():
    with pytest.raises(SchemaViolation) as err:
        validate_params("two-slit", {"bogus": "1", "other": "2"})
    msg = str(err.value)
    assert "bogus" in msg and "other" in msg and "alpha" in msg


def test_validate_params_type_errors():
    with pytest.raises(SchemaViolation):
        validate_params("two-slit", {"alpha": "not-a-number"})


@pytest.mark.parametrize("steps", [20.9, math.inf, -math.inf, math.nan])
def test_int_parameter_refuses_a_value_it_cannot_hold(steps, tmp_path):
    with pytest.raises(SchemaViolation, match="'steps'"):
        run(ExperimentConfig(name="eom-check", params={"steps": steps}, out_dir=str(tmp_path)))


def test_int_parameter_takes_a_whole_float():
    steps = validate_params("two-particle", {"steps": 600.0})["steps"]
    assert steps == 600 and type(steps) is int


def test_validate_params_unknown_experiment():
    with pytest.raises(UnknownExperiment) as err:
        validate_params("nope", {})
    assert "two-slit" in str(err.value)


def test_run_two_slit_and_reproducibility(tmp_path):
    cfg = ExperimentConfig(
        name="two-slit", params={"alpha": "0"}, seed=5, out_dir=str(tmp_path), format="csv"
    )
    rec = run(cfg)
    path = tmp_path / "two-slit-5.csv"
    first = path.read_bytes()
    assert rec.summary["abs_c1"] == pytest.approx(0.5, abs=1e-8)
    spacing = np.diff(rec.columns["p_peak"])
    assert np.all(np.abs(spacing - 2.0 * math.pi / 8.0) <= 2.0 * math.pi / 128.0)
    run(cfg)
    assert path.read_bytes() == first


def test_run_two_particle_reruns_byte_identical(tmp_path):
    for fmt in ("csv", "json"):
        cfg = ExperimentConfig(
            name="two-particle", params={"steps": "40", "snapshot_every": "20"},
            seed=3, out_dir=str(tmp_path), format=fmt,
        )
        run(cfg)
        path = tmp_path / f"two-particle-3.{fmt}"
        first = path.read_bytes()
        run(cfg)
        assert path.read_bytes() == first


def test_run_grating_runner(tmp_path):
    rec = run(ExperimentConfig(
        name="grating", params={"phase_pattern": "alternating"},
        out_dir=str(tmp_path),
    ))
    h_over_l = 2.0 * math.pi / 8.0
    assert rec.summary["expected_offset"] == pytest.approx(h_over_l / 2.0)
    for p in rec.columns["p_peak"]:
        frac = p / h_over_l - 0.5
        assert abs(frac - round(frac)) * h_over_l <= 2.0 * math.pi / 128.0


def test_run_eom_check_runner(tmp_path):
    rec = run(ExperimentConfig(
        name="eom-check",
        params={"n": "512", "steps": "20", "levels": "2", "dt": "2e-3"},
        out_dir=str(tmp_path),
    ))
    assert 3.0 < rec.summary["ratio_1"] < 5.0


def test_run_classical_limit_runner(tmp_path):
    rec = run(ExperimentConfig(name="classical-limit", params={}, out_dir=str(tmp_path)))
    assert rec.columns["tv_uniform"][-1] < 0.01


def test_run_two_particle_runner(tmp_path):
    rec = run(ExperimentConfig(
        name="two-particle",
        params={"n": "128", "length": "24", "steps": "60", "snapshot_every": "30",
                "dt": "0.004", "separation": "5.0", "sigma": "0.8", "spacing": "1.875"},
        out_dir=str(tmp_path),
    ))
    assert rec.summary["max_t12_drift"] < 1e-10


@pytest.mark.parametrize("params", [
    {"steps": "40"},
    {"hbar": "0.5", "spacing": "4", "steps": "30", "snapshot_every": "5"},
])
def test_run_two_particle_matches_public_route(tmp_path, params):
    # oracle: the runner's state evolved by propagate_two, each snapshot
    # measured by translation_expect_two
    rec = run(ExperimentConfig(name="two-particle", params=params, out_dir=str(tmp_path)))
    p = validate_params("two-particle", params)
    g = make_grid(p["n"], -p["length"] / 2.0, p["length"], p["hbar"])
    a = p["separation"] / 2.0
    state = product_state(
        make_packet(g, PacketSpec("gaussian", -a, p["sigma"], p["p_approach"])),
        make_packet(g, PacketSpec("gaussian", +a, p["sigma"], -p["p_approach"])),
    )
    well = PotentialSpec.sampled(-p["well_depth"] * np.exp(-g.x**2 / (2.0 * p["well_width"] ** 2)))
    snaps = propagate_two(state, well, PropagatorConfig(p["dt"], p["steps"], p["mass"],
                                                        splitting="suzuki4"),
                          snapshot_every=p["snapshot_every"])
    L = p["spacing"]
    t12 = np.array([translation_expect_two(s, L, 1, 1) for s in snaps])
    t1 = np.array([translation_expect_two(s, L, 1, 0) for s in snaps])
    expected = {
        "step": p["snapshot_every"] * np.arange(len(snaps)),
        "re_t12": t12.real, "im_t12": t12.imag, "t12_drift": np.abs(t12 - t12[0]),
        "re_t1": t1.real, "im_t1": t1.imag, "t1_change": np.abs(t1 - t1[0]),
    }
    for key, want in expected.items():
        assert len(rec.columns[key]) == len(want)
        assert np.max(np.abs(rec.columns[key] - want)) < 1e-12, key


def test_two_particle_runner_steps_through_propagate_two(tmp_path, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return propagate_two(*args, **kwargs)

    monkeypatch.setattr(experiments, "propagate_two", spy)
    run(ExperimentConfig(name="two-particle", params={"steps": "40"}, out_dir=str(tmp_path)))
    assert len(calls) == 1 and calls[0]["observe"] is not None


def test_run_two_particle_defaults_do_not_warn(tmp_path):
    # the phase-wrap guard reads only the input state and dt, so a short run
    # at the default grid, packets and dt sees what a full default run sees
    with warnings.catch_warnings():
        warnings.simplefilter("error", PhaseWrapWarning)
        run(ExperimentConfig(name="two-particle", params={"steps": "20"},
                             out_dir=str(tmp_path)))


def test_run_random_walk_runner(tmp_path):
    rec = run(ExperimentConfig(
        name="random-walk",
        params={"n_electrons": "9", "n_repeats": "150"},
        out_dir=str(tmp_path), seed=6,
    ))
    assert rec.summary["two_point_regime"] == 1.0
    assert len(rec.columns["repeat"]) == 150


def test_run_json_output(tmp_path):
    cfg = ExperimentConfig(
        name="taylor-demo", params={"mode": "gaussian", "spacing": "0.5", "width": "2.0"},
        seed=1, out_dir=str(tmp_path), format="json",
    )
    rec = run(cfg)
    data = json.loads((tmp_path / "taylor-demo-1.json").read_text())
    assert data["experiment"] == "taylor-demo"
    assert data["params"]["mode"] == "gaussian"
    assert data["columns"]["abs_err"][-1] == pytest.approx(rec.columns["abs_err"][-1], rel=1e-15)
    assert data["summary"]["final_abs_err"] < 1e-6


# --- records -----------------------------------------------------------------------------

def test_format_number_round_trips():
    for x in (0.1, 1.0 / 3.0, 1e-308, 6.02214076e23, -0.0, 12345.6789e300, math.pi):
        assert float(format_number(x)) == x
    assert format_number(5) == "5"
    assert format_number(True) == "1"


def test_write_record_formats(tmp_path):
    rec = ExperimentRecord(
        experiment="demo",
        params_echo={"a": 1, "widths": [0.1, 0.2]},
        columns={"x": np.array([1.0, 2.0]), "y": np.array([0.1, 1.0 / 3.0])},
        provenance="modlab test",
        summary={"total": 3.0},
    )
    p_csv = write_record(rec, tmp_path, "csv", 7)
    text = p_csv.read_text()
    assert text.startswith("# provenance: modlab test\n")
    assert "# summary total = 3\n" in text
    assert "x,y" in text
    assert float(text.strip().splitlines()[-1].split(",")[1]) == 1.0 / 3.0

    p_json = write_record(rec, tmp_path, "json", 7)
    data = json.loads(p_json.read_text())
    assert data["columns"]["y"][1] == 1.0 / 3.0
    with pytest.raises(ValueError):
        write_record(rec, tmp_path, "yaml", 7)


def _reference_csv(record):
    # one format_number call per element, row by row
    lines = [f"# provenance: {record.provenance}"]
    lines += [f"# param {k} = {_format_param(v)}" for k, v in record.params_echo.items()]
    lines += [f"# summary {k} = {format_number(v)}" for k, v in record.summary.items()]
    names = list(record.columns)
    lines.append(",".join(names))
    for i in range(len(record.columns[names[0]])):
        lines.append(",".join(format_number(record.columns[k][i]) for k in names))
    return "\n".join(lines) + "\n"


def _reference_json_value(v):
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_reference_json_value(i) for i in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_reference_json_value(x)}"
                               for k, x in v.items()) + "}"
    return format_number(v)


def _reference_json(record):
    return _reference_json_value({
        "experiment": record.experiment, "provenance": record.provenance,
        "params": record.params_echo, "summary": record.summary, "columns": record.columns,
    }) + "\n"


def _assert_records_match_reference(record, out_dir):
    csv_path = write_record(record, out_dir, "csv", 3)
    json_path = write_record(record, out_dir, "json", 3)
    assert csv_path.read_bytes() == _reference_csv(record).encode()
    assert json_path.read_bytes() == _reference_json(record).encode()


def test_column_formatting_matches_format_number_per_element(tmp_path):
    rec = ExperimentRecord(
        experiment="demo",
        params_echo={"a": 1, "widths": [0.1, 0.2], "mode": "x"},
        columns={
            "f": np.array([-0.0, 5e-324, 1e308, 0.1 + 0.2, -math.inf, math.nan, 1.0 / 3.0]),
            "i": np.array([2**63 - 1, -(2**63), 0, -1, 7, 10**18, 3], dtype=np.int64),
            "b": np.array([True, False, True, True, False, False, True]),
        },
        provenance="modlab test",
        summary={"total": 0.1 + 0.2, "count": 7},
    )
    _assert_records_match_reference(rec, tmp_path)
    assert "9223372036854775807,1" in (tmp_path / "demo-3.csv").read_text()
    assert "[-0, 4.9406564584124654e-324, 1e+308" in (tmp_path / "demo-3.json").read_text()


def test_random_walk_record_matches_format_number_per_element(tmp_path, monkeypatch):
    monkeypatch.setattr(records, "_CSV_ROWS", 3000)  # three full blocks of rows and a short one
    rec = run(ExperimentConfig(name="random-walk", out_dir=str(tmp_path), seed=5,
                               params={"n_electrons": "100", "n_repeats": "10000"}))
    assert len(rec.columns["repeat"]) == 10_000
    _assert_records_match_reference(rec, tmp_path)


def test_columns_must_be_rectangular():
    with pytest.raises(ValueError):
        ExperimentRecord(
            experiment="demo", params_echo={},
            columns={"x": np.array([1.0]), "y": np.array([1.0, 2.0])},
            provenance="p",
        )


# hbar -> 2 hbar with momenta x 2, energies x 4 and times x 1/2 changes no phase
# p x / hbar or E t / hbar, and every factor is a power of two. Per experiment:
# a small config, the factor of each parameter that scales, the factor of each
# column or summary value that scales, and the values that move by roundoff
# (measured); every other value must come out bit for bit.
_HBAR_DOUBLING = {
    "two-slit": ({"alpha": "3.141592653589793", "p0": "0.5"}, {"hbar": 2, "p0": 2},
                 {"p_peak": 2, "height": 0.5, "expected_spacing": 2}, {"p_peak", "height"}),
    "grating": ({"phase_pattern": "alternating", "p0": "0.5"}, {"hbar": 2, "p0": 2},
                {"p_peak": 2, "height": 0.5, "expected_spacing": 2, "expected_offset": 2},
                {"height"}),
    "eom-check": ({"n": "256", "length": "32", "steps": "40", "levels": "2"},
                  {"hbar": 2, "dt": 0.5, "barrier_height": 4},
                  {"dt": 0.5, "max_residual": 2}, set()),
    "uncertainty": ({"widths": "0.4,0.6,0.8"}, {"hbar": 2}, {}, {"tv_uniform"}),
    "classical-limit": ({"p0": "0.5"}, {"hbar_values": 2, "p0": 2}, {"hbar": 2, "cell": 2},
                        {"tv_uniform", "tv_final"}),
    "two-particle": ({"steps": "100"},
                     {"hbar": 2, "p_approach": 2, "dt": 0.5, "well_depth": 4},
                     {"time": 0.5}, set()),
    "random-walk": ({"n_electrons": "25", "n_repeats": "400"}, {"hbar": 2},
                    {"final_recoil": 2, "recoil_mod": 2, "rms_final_recoil": 2,
                     "predicted_rms": 2, "exchange_quantum": 2}, set()),
    "taylor-demo": ({"mode": "two-bump"}, {"hbar": 2}, {},
                    {"partial_re", "partial_im", "abs_err", "final_abs_err", "min_abs_err"}),
}


def _assert_scaling(name, raw, param_factors, value_factors, rounded, tmp_path):
    params = validate_params(name, raw)
    doubled = dict(params)
    for key, factor in param_factors.items():
        value = params[key]
        doubled[key] = [x * factor for x in value] if isinstance(value, list) else value * factor
    base = run(ExperimentConfig(name, params, 7, str(tmp_path / "base")))
    scaled = run(ExperimentConfig(name, doubled, 7, str(tmp_path / "scaled")))
    got = {**scaled.columns, **scaled.summary}
    for key, value in {**base.columns, **base.summary}.items():
        want = np.asarray(value) * value_factors.get(key, 1)
        if key in rounded:
            # a total-variation distance lies in [0, 1]; here it is itself roundoff
            scale = 1.0 if key.startswith("tv_") else np.max(np.abs(want))
            assert np.max(np.abs(got[key] - want)) <= 1e-12 * scale, key
        else:
            assert np.array_equal(got[key], want), key


@pytest.mark.parametrize("name", sorted(_HBAR_DOUBLING))
def test_doubling_hbar_scales_every_value(name, tmp_path):
    _assert_scaling(name, *_HBAR_DOUBLING[name], tmp_path)


# mass x 4, dt x 4 and every potential x 1/4 scale H/hbar by 1/4 and time by 4, so
# every phase is unchanged; the factors are powers of two, so values move bit for bit
_MASS_SCALING = {
    "eom-check": ({"n": "256", "length": "32", "steps": "40", "levels": "2"},
                  {"mass": 4, "dt": 4, "barrier_height": 0.25},
                  {"dt": 4, "max_residual": 0.25}, set()),
    "two-particle": ({"steps": "100"}, {"mass": 4, "dt": 4, "well_depth": 0.25},
                     {"time": 4}, set()),
}


@pytest.mark.parametrize("name", sorted(_MASS_SCALING))
def test_quadrupling_mass_scales_every_value(name, tmp_path):
    _assert_scaling(name, *_MASS_SCALING[name], tmp_path)
