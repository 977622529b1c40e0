"""Argument guards, one case each: the error type every refusal raises, and a
message fragment that shows the guard itself fired, not a later failure."""

import math

import numpy as np
import pytest

from modlab import (
    ClassicalState,
    ExperimentConfig,
    ExperimentRecord,
    MomentSpec,
    MomentumAmplitudes,
    OperatorMatrix,
    PacketSpec,
    PotentialSpec,
    PropagatorConfig,
    ScatterConfig,
    SlitArraySpec,
    WaveFunction,
    apply_region_phase,
    build_translation,
    classical_limit_experiment,
    ellipse_check,
    fold_density,
    fringe_peaks,
    make_grating,
    make_grid,
    make_packet,
    modular_distribution,
    product_state,
    propagate,
    random_walk_experiment,
    run,
    sample_detections,
    superpose,
    taylor_divergence_demo,
    to_momentum,
    translation_expect,
    translation_expect_two,
    uncertainty_experiment,
    weyl_matrix,
    weyl_moment,
    write_record,
)
from modlab import experiments
from modlab.errors import (
    ArgumentError,
    DegreeCap,
    GridMismatch,
    IoFailure,
    ModlabError,
    NonFiniteAmplitude,
    NonPowerOfTwo,
    NoPeaks,
    ZeroState,
)
from modlab.operators import _classical_force


def _grid(length=16.0):
    return make_grid(128, -length / 2.0, length)


def _packet(grid):
    return make_packet(grid, PacketSpec("gaussian", 0.0, 1.0))


_BUMP = PacketSpec("bump", -1.0, 0.5)
_PAIR = SlitArraySpec(2, 4.0, PacketSpec("bump", -2.0, 1.0), (0.0, 0.0))


def _far_field():
    return to_momentum(_packet(_grid()))


def _record(**columns):
    return ExperimentRecord("demo", {}, columns, "p")


def _write_into_a_file(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    write_record(_record(x=[1.0]), blocker, "csv", 0)


def _run_with_seed_minus_one(tmp_path):
    try:
        run(ExperimentConfig("two-slit", {"alpha": "0"}, -1, str(tmp_path)))
    finally:
        assert not any(tmp_path.iterdir()), "a refused run wrote a file"


def _run_with_unknown_format(tmp_path):
    runner = experiments._RUNNERS["two-slit"]

    def must_not_run(params, seed):
        raise AssertionError("the experiment ran before its format was checked")

    experiments._RUNNERS["two-slit"] = must_not_run
    try:
        run(ExperimentConfig("two-slit", {"alpha": "0"}, 0, str(tmp_path), "xml"))
    finally:
        experiments._RUNNERS["two-slit"] = runner


def _overflowing_state():
    # amplitudes whose squares overflow; the constructor does not normalize
    return WaveFunction(_grid(), _packet(_grid()).amps * 1e200)


def _pair_state():
    g = _grid()
    return product_state(_packet(g), _packet(g))


# name -> (error type, message fragment, call taking pytest's tmp_path)
_GUARDS = {
    "potential-unknown-kind": (
        ArgumentError, "kind must be one of", lambda tmp: PotentialSpec(kind="cubic")),
    "potential-sampled-without-samples": (
        ArgumentError, "needs samples", lambda tmp: PotentialSpec(kind="sampled")),
    "potential-inf-k-spring": (
        ArgumentError, "k_spring must not be inf", lambda tmp: PotentialSpec.harmonic(math.inf)),
    "potential-nan-height": (
        ArgumentError, "height must not be nan",
        lambda tmp: PotentialSpec.barrier(math.nan, -1.0, 1.0)),
    "potential-nan-x-lo": (
        ArgumentError, "x_lo must not be nan",
        lambda tmp: PotentialSpec.barrier(2.0, math.nan, 1.0)),
    "potential-nan-x-hi": (
        ArgumentError, "x_hi must not be nan",
        lambda tmp: PotentialSpec.barrier(2.0, -1.0, math.nan)),
    "grid-float-n": (
        NonPowerOfTwo, "n must be a power of two", lambda tmp: make_grid(16.0, 0.0, 8.0)),
    "grid-fractional-n": (
        NonPowerOfTwo, "n must be a power of two", lambda tmp: make_grid(8.5, 0.0, 8.0)),
    "grid-nan-x0": (
        ArgumentError, "x0 must be finite, got nan", lambda tmp: make_grid(128, math.nan, 16.0)),
    "product-state-grids-differ": (
        GridMismatch, "different grids",
        lambda tmp: product_state(_packet(_grid()), _packet(_grid(24.0)))),
    "product-state-overflowing-factor": (
        NonFiniteAmplitude, "cannot normalize a state of norm inf",
        lambda tmp: product_state(WaveFunction(_grid(), _packet(_grid()).amps * 1e160),
                                  _packet(_grid()))),
    "classical-limit-non-positive-hbar": (
        ArgumentError, "must be positive",
        lambda tmp: classical_limit_experiment(1.0, [0.5, 0.0], PacketSpec("gaussian", 0.0, 1.0),
                                               _grid())),
    "classical-limit-nan-hbar": (
        ArgumentError, "hbar values must be positive and finite, got nan",
        lambda tmp: classical_limit_experiment(1.0, [math.nan], PacketSpec("gaussian", 0.0, 1.0),
                                               _grid())),
    "classical-limit-inf-hbar": (
        ArgumentError, "hbar values must be positive and finite, got inf",
        lambda tmp: classical_limit_experiment(1.0, [math.inf, 1.0],
                                               PacketSpec("gaussian", 0.0, 1.0), _grid())),
    "classical-limit-fractional-bins": (
        ArgumentError, "bins must be an integer",
        lambda tmp: classical_limit_experiment(1.0, [2.0], PacketSpec("gaussian", 0.0, 1.0),
                                               _grid(), bins=8.5)),
    "random-walk-few-repeats": (
        ArgumentError, "n_repeats must be >= 100",
        lambda tmp: random_walk_experiment(SlitArraySpec(2, 2.0, _BUMP, (0.0, 0.0)),
                                           _grid(), 10, 99, 0)),
    "random-walk-fractional-electrons": (
        ArgumentError, "n_electrons must be an integer",
        lambda tmp: random_walk_experiment(_PAIR, _grid(), 2.5, 100, 0)),
    "random-walk-fractional-repeats": (
        ArgumentError, "n_repeats must be >= 100 and an integer",
        lambda tmp: random_walk_experiment(_PAIR, _grid(), 10, 100.5, 0)),
    "random-walk-fractional-seed": (
        ArgumentError, "seed must be an integer",
        lambda tmp: random_walk_experiment(_PAIR, _grid(), 10, 100, 1.5)),
    "propagate-fractional-snapshot-every": (
        ArgumentError, "snapshot_every must be an integer",
        lambda tmp: propagate(_packet(_grid()), PotentialSpec.zero(), PropagatorConfig(0.01, 10),
                              snapshot_every=2.5)),
    "propagator-config-unknown-splitting": (
        ArgumentError, "splitting must be one of",
        lambda tmp: PropagatorConfig(0.01, 10, splitting="yoshida")),
    "sample-detections-fractional-trials": (
        ArgumentError, "n_trials must be an integer",
        lambda tmp: sample_detections(_far_field(), 2.5, 0)),
    # the trial keys are uint64; neither size is ever allocated
    "sample-detections-2-to-the-64-trials": (
        ArgumentError, "n_trials must be an integer >= 1 below 2\\^64",
        lambda tmp: sample_detections(_far_field(), 2**64, 0)),
    "sample-detections-2-to-the-70-trials": (
        ArgumentError, "n_trials must be an integer >= 1 below 2\\^64",
        lambda tmp: sample_detections(_far_field(), 2**70, 0)),
    "sample-detections-overflowing-density": (
        NonFiniteAmplitude, "cannot sample a non-finite density",
        lambda tmp: sample_detections(to_momentum(_overflowing_state()), 10, 0)),
    "sample-detections-fractional-seed": (
        ArgumentError, "seed must be an integer",
        lambda tmp: sample_detections(_far_field(), 10, 1.5)),
    "sample-detections-negative-seed": (
        ArgumentError, "seed must be an integer",
        lambda tmp: sample_detections(_far_field(), 10, -1)),
    "sample-detections-seed-past-64-bits": (
        ArgumentError, "seed must be an integer",
        lambda tmp: sample_detections(_far_field(), 10, 2**64)),
    "sample-detections-bool-seed": (
        ArgumentError, "seed must be an integer",
        lambda tmp: sample_detections(_far_field(), 10, True)),
    "run-negative-seed": (ArgumentError, "seed must be an integer", _run_with_seed_minus_one),
    "run-unknown-format": (ArgumentError, "format must be csv or json", _run_with_unknown_format),
    "translation-expect-fractional-k": (
        ArgumentError, "k must be an integer",
        lambda tmp: translation_expect(_packet(_grid()), 1.0, 1.5)),
    "translation-expect-overflowing-density": (
        NonFiniteAmplitude, "cannot measure a state of norm inf",
        lambda tmp: translation_expect(_overflowing_state(), 2.0)),
    "translation-expect-two-fractional-k1": (
        ArgumentError, "k1 and k2 must be integers",
        lambda tmp: translation_expect_two(_pair_state(), 1.0, 1.5, 1)),
    "translation-expect-two-fractional-k2": (
        ArgumentError, "k1 and k2 must be integers",
        lambda tmp: translation_expect_two(_pair_state(), 1.0, 1, 0.5)),
    "translation-expect-two-nan-length": (
        ArgumentError, "L must be finite",
        lambda tmp: translation_expect_two(_pair_state(), math.nan)),
    "build-translation-nan-length": (
        ArgumentError, "L must be finite", lambda tmp: build_translation(_grid(), math.nan)),
    "region-phase-nan-alpha": (
        ArgumentError, "alpha must be finite",
        lambda tmp: apply_region_phase(_packet(_grid()), -1.0, 1.0, math.nan)),
    "fold-density-zero-period": (
        ArgumentError, "period must be positive and finite",
        lambda tmp: fold_density(_grid().p, np.ones(128), 0.0, 8)),
    "fold-density-nan-period": (
        ArgumentError, "period must be positive and finite",
        lambda tmp: fold_density(_grid().p, np.ones(128), math.nan, 8)),
    "fold-density-negative-bins": (
        ArgumentError, "bins must be an integer >= 1",
        lambda tmp: fold_density(_grid().p, np.ones(128), 1.0, -1)),
    "fold-density-fractional-bins": (
        ArgumentError, "bins must be an integer >= 1",
        lambda tmp: fold_density(_grid().p, np.ones(128), 1.0, 8.5)),
    "modular-distribution-seven-bins": (
        ArgumentError, "bins must be",
        lambda tmp: modular_distribution(_packet(_grid()), 2.0, bins=7)),
    "modular-distribution-fractional-bins": (
        ArgumentError, "bins must be an integer",
        lambda tmp: modular_distribution(_packet(_grid()), 2.0, bins=8.5)),
    "modular-distribution-fractional-k-max": (
        ArgumentError, "k_max must be an integer",
        lambda tmp: modular_distribution(_packet(_grid()), 2.0, k_max=2.5)),
    "modular-distribution-negative-k-max": (
        ArgumentError, "k_max must be an integer >= 0",
        lambda tmp: modular_distribution(_packet(_grid()), 2.0, k_max=-1)),
    "uncertainty-fractional-bins": (
        ArgumentError, "bins must be an integer",
        lambda tmp: uncertainty_experiment(2.0, [1.0], _grid(), bins=8.5)),
    "uncertainty-fractional-k-max": (
        ArgumentError, "k_max must be an integer",
        lambda tmp: uncertainty_experiment(2.0, [1.0], _grid(), k_max=2.5)),
    # refused before the first width, not only by modular_distribution on it
    "uncertainty-negative-k-max": (
        ArgumentError, "k_max must be an integer >= 0",
        lambda tmp: uncertainty_experiment(2.0, [], _grid(), k_max=-1)),
    "uncertainty-no-widths": (
        ArgumentError, "widths needs at least one value",
        lambda tmp: uncertainty_experiment(2.0, [], _grid())),
    "taylor-fractional-orders": (
        DegreeCap, "orders must be an integer",
        lambda tmp: taylor_divergence_demo(_packet(_grid()), 0.5, 2.5)),
    "taylor-negative-orders": (
        DegreeCap, "orders must be an integer",
        lambda tmp: taylor_divergence_demo(_packet(_grid()), 0.5, -1)),
    "taylor-nan-length": (
        ArgumentError, "L must be finite",
        lambda tmp: taylor_divergence_demo(_packet(_grid()), math.nan)),
    "taylor-inf-length": (
        ArgumentError, "L must be finite",
        lambda tmp: taylor_divergence_demo(_packet(_grid()), math.inf)),
    "weyl-moment-fractional-degree": (
        DegreeCap, "degrees must be non-negative integers",
        lambda tmp: weyl_moment(_packet(_grid()), MomentSpec(1.5, 1))),
    "weyl-moment-overflowing-density": (
        NonFiniteAmplitude, "not a finite number",
        lambda tmp: weyl_moment(_overflowing_state(), MomentSpec(1, 1))),
    "weyl-moment-overflowing-position-density": (
        NonFiniteAmplitude, "not a finite number",
        lambda tmp: weyl_moment(_overflowing_state(), MomentSpec(2, 0))),
    "weyl-matrix-fractional-degree": (
        DegreeCap, "degrees must be non-negative integers",
        lambda tmp: weyl_matrix(_grid(), 1.5, 1)),
    "scatter-config-fractional-n-max": (
        ArgumentError, "n_max must be an integer",
        lambda tmp: ScatterConfig(1.0, 10.0, (0.0,), 64.5)),
    "amplitudes-wrong-shape": (
        GridMismatch, "expected shape", lambda tmp: WaveFunction(_grid(), np.ones(32))),
    "normalize-overflowing-norm": (
        NonFiniteAmplitude, "cannot normalize a state of norm inf",
        lambda tmp: WaveFunction(_grid(), _packet(_grid()).amps * 1e200).normalized()),
    "fringe-peaks-zero-density": (
        NoPeaks, "identically zero",
        lambda tmp: fringe_peaks(MomentumAmplitudes(_grid(), np.zeros(128)))),
    "fringe-peaks-overflowing-density": (
        NonFiniteAmplitude, "density maximum inf is not finite",
        lambda tmp: fringe_peaks(to_momentum(_overflowing_state()))),
    "operator-matrix-wrong-shape": (
        ArgumentError, "entries, got", lambda tmp: OperatorMatrix(4, np.zeros((3, 3)))),
    "operator-matrix-not-hermitian": (
        ArgumentError, "not hermitian",
        lambda tmp: OperatorMatrix(2, np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)),
    "classical-state-non-finite": (
        ArgumentError, "non-finite classical state", lambda tmp: ClassicalState(math.nan, 0.0)),
    "classical-force-sampled-without-grid": (
        ArgumentError, "needs the grid",
        lambda tmp: _classical_force(PotentialSpec.sampled(np.zeros(128)), 0.0, None)),
    "ellipse-check-few-samples": (
        ArgumentError, "samples must be >= 16", lambda tmp: ellipse_check(1.0, 1.0, 1.0, 15)),
    "ellipse-check-fractional-samples": (
        ArgumentError, "samples must be >= 16 and an integer",
        lambda tmp: ellipse_check(1.0, 2.0, 1.0, samples=16.5)),
    "write-record-unknown-format": (
        ArgumentError, "format must be csv or json",
        lambda tmp: write_record(_record(x=[1.0]), tmp, "yaml", 0)),
    "write-record-into-a-file": (IoFailure, "cannot write", _write_into_a_file),
    "record-unequal-lengths": (
        ArgumentError, "unequal lengths", lambda tmp: _record(x=[1.0], y=[1.0, 2.0])),
    "record-string-column": (
        ArgumentError, "not 1-D bool, int or float", lambda tmp: _record(x=["a", "b"])),
    "record-complex-column": (
        ArgumentError, "not 1-D bool, int or float", lambda tmp: _record(x=[1j, 2.0])),
    "record-2d-column": (
        ArgumentError, "not 1-D bool, int or float", lambda tmp: _record(x=np.zeros((2, 2)))),
    "packet-unknown-kind": (
        ArgumentError, "kind must be one of", lambda tmp: PacketSpec("square", 0.0, 1.0)),
    "packet-nan-p0": (
        ArgumentError, "p0 must be finite", lambda tmp: PacketSpec("bump", 0.0, 1.0, math.nan)),
    "packet-inf-p0": (
        ArgumentError, "p0 must be finite", lambda tmp: PacketSpec("bump", 0.0, 1.0, math.inf)),
    "packet-nan-center": (
        ArgumentError, "center and p0 must be finite",
        lambda tmp: PacketSpec("bump", math.nan, 1.0)),
    "packet-inf-width": (
        ArgumentError, "width must be positive and finite",
        lambda tmp: PacketSpec("bump", 0.0, math.inf)),
    "slit-array-one-slit": (
        ArgumentError, "m_slits must be >= 2", lambda tmp: SlitArraySpec(1, 2.0, _BUMP, (0.0,))),
    "slit-array-phase-count": (
        ArgumentError, "one phase per slit", lambda tmp: SlitArraySpec(2, 2.0, _BUMP, (0.0,))),
    "slit-array-weight-count": (
        ArgumentError, "one weight per slit",
        lambda tmp: SlitArraySpec(2, 2.0, _BUMP, (0.0, 0.0), (1.0,))),
    "slit-array-negative-weight": (
        ArgumentError, "non-negative",
        lambda tmp: SlitArraySpec(2, 2.0, _BUMP, (0.0, 0.0), (1.0, -1.0))),
    "slit-array-inf-phase": (
        ArgumentError, "phases must be finite",
        lambda tmp: SlitArraySpec(2, 2.0, _BUMP, (0.0, math.inf))),
    "slit-array-nan-phase": (
        ArgumentError, "phases must be finite",
        lambda tmp: SlitArraySpec(2, 2.0, _BUMP, (math.nan, 0.0))),
    "slit-array-nan-weight": (
        ArgumentError, "weights must be non-negative and finite",
        lambda tmp: SlitArraySpec(2, 2.0, _BUMP, (0.0, 0.0), (1.0, math.nan))),
    "slit-array-inf-weight": (
        ArgumentError, "weights must be non-negative and finite",
        lambda tmp: SlitArraySpec(2, 2.0, _BUMP, (0.0, 0.0), (math.inf, 1.0))),
    "slit-array-inf-spacing": (
        ArgumentError, "spacing must be positive and finite",
        lambda tmp: SlitArraySpec(2, math.inf, _BUMP, (0.0, 0.0))),
    "grating-overflowing-weights": (
        NonFiniteAmplitude, "cannot normalize a state of norm inf",
        lambda tmp: make_grating(_grid(), SlitArraySpec(2, 4.0, _PAIR.packet, (0.0, 0.0),
                                                        (1e308, 1e308)))),
    "superpose-nothing": (ZeroState, "no states given", lambda tmp: superpose([])),
    "superpose-nan-coefficient": (
        ArgumentError, "coefficients must be finite",
        lambda tmp: superpose([(_packet(_grid()), 1.0), (_packet(_grid()), math.nan)])),
    "superpose-inf-coefficient": (
        ArgumentError, "coefficients must be finite",
        lambda tmp: superpose([(_packet(_grid()), 1.0), (_packet(_grid()), math.inf)])),
}


@pytest.mark.parametrize("case", list(_GUARDS))
def test_guard_refuses(case, tmp_path):
    error, fragment, call = _GUARDS[case]
    with pytest.raises(error, match=fragment) as info:
        call(tmp_path)
    assert isinstance(info.value, ModlabError)


def test_counts_accept_numpy_integers():
    g = _grid()
    psi = _packet(g)
    snaps = propagate(psi, PotentialSpec.zero(), PropagatorConfig(0.01, 10),
                      snapshot_every=np.int64(5))
    assert len(snaps) == 3
    samples = sample_detections(_far_field(), np.int64(4), np.uint64(7))
    assert samples == sample_detections(_far_field(), 4, 7)
    md = modular_distribution(psi, 2.0, bins=np.int32(8), k_max=np.int64(2))
    assert md.bins == 8 and len(md.fourier) == 2
    assert len(taylor_divergence_demo(psi, 0.5, np.int64(3))) == 4
    assert weyl_moment(psi, MomentSpec(np.int64(2), np.int64(0))) > 0.0
    assert ellipse_check(1.0, 2.0, 1.0, samples=np.int64(16)) < 1e-12
    ScatterConfig(1.0, 10.0, (0.0,), np.int64(64))


def test_infinite_barrier_bounds_stay_one_sided():
    g = _grid()
    left = PotentialSpec.barrier(2.0, -math.inf, 0.0).values(g)
    right = PotentialSpec.barrier(2.0, 0.0, math.inf).values(g)
    assert np.array_equal(left, np.where(g.x < 0.0, 2.0, 0.0))
    assert np.array_equal(right, np.where(g.x >= 0.0, 2.0, 0.0))


def test_numpy_integer_seeds_draw_as_python_ints():
    far = _far_field()
    assert sample_detections(far, 50, np.int64(3)) == sample_detections(far, 50, 3)
    walks = [random_walk_experiment(_PAIR, _grid(), 10, 100, seed).columns["final_recoil"]
             for seed in (np.int64(3), 3)]
    assert np.array_equal(*walks)
