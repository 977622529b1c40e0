"""Tests of the benchmark itself: every check can fail, inputs follow the
seed, and the tracer leaves modlab as it found it."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.special

import checks
import workloads
from tracer import Tracer, installed_wrappers, layer_metrics


@pytest.fixture(scope="module")
def phase_lab(tmp_path_factory):
    inputs = workloads.phase_lab_inputs(3, 0)
    outputs = workloads.phase_lab_op(inputs, tmp_path_factory.mktemp("phase-lab"))
    return inputs, outputs


def test_phase_lab_op_passes_its_checks(phase_lab):
    assert workloads.phase_lab_check(*phase_lab) == []


def test_two_particle_check_rejects_drift():
    good = {"max_t12_drift": 3e-13, "max_t1_change": 0.05}
    assert checks.check_two_particle(good) == []
    assert checks.check_two_particle({**good, "max_t12_drift": 1e-6})
    assert checks.check_two_particle({**good, "max_t1_change": 1e-4})
    assert checks.check_two_particle({**good, "max_t12_drift": math.nan})


def test_eom_ratio_check_rejects_ratio_2():
    assert checks.check_eom_ratios({"L_snapped": 8.0, "ratio_1": 4.01, "ratio_2": 3.99}) == []
    assert checks.check_eom_ratios({"L_snapped": 8.0, "ratio_1": 2.0, "ratio_2": 4.0})
    assert checks.check_eom_ratios({"L_snapped": 8.0})  # no ratio at all is a failure


def test_bessel_check_rejects_error_1e_8():
    points = [(0.25, 3.0), (40.5, 14.9), (40.5, 15.1), (199.0, 480.0)]
    exact = [float(scipy.special.jv(nu, z)) for nu, z in points]
    assert checks.check_bessel(points, exact) == []
    doctored = list(exact)
    doctored[2] += 1e-8
    assert checks.check_bessel(points, doctored)


def test_rerun_check_rejects_mismatched_file(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    a.write_bytes(b"x,y\n1,0.10000000000000001\n")
    b.write_bytes(a.read_bytes())
    c.write_bytes(b"x,y\n1,0.1\n")
    assert checks.compare_files([a], [b]) == []
    assert checks.compare_files([a], [c])


def test_phase_lab_checks_reject_doctored_outputs(phase_lab):
    inputs, outputs = phase_lab
    rec = outputs["records"]
    alpha = inputs["configs"][0]["params"]["alpha"]
    assert checks.check_two_slit({**rec["two-slit"].summary, "abs_c1": 0.5 + 1e-6}, alpha)
    assert checks.check_two_slit(rec["two-slit"].summary, alpha + 1e-6)
    assert checks.check_grating(rec["grating"].columns["p_peak"] + 0.1, 8.0, 2 * math.pi / 128,
                                inputs["configs"][1]["params"]["phase_pattern"] == "alternating")
    assert checks.check_uncertainty({**rec["uncertainty"].columns,
                                     "c2": np.array([1e-9, 0.0, 0.0])}, 32)
    assert checks.check_classical_limit({"tv_final": 0.02})
    assert checks.check_taylor({"min_abs_err": 1e-3})
    assert checks.check_random_walk({**rec["random-walk"].summary,
                                     "rms_final_recoil": 1.1 * rec["random-walk"].summary["predicted_rms"]})
    assert checks.check_cli(2, outputs["cli_file"])
    moments = outputs["moments"].copy()
    moments[5, 7] += 1e-9
    assert checks.check_moment_sweep(moments, outputs["c1"], outputs["c1_translate"],
                                     inputs["sweep_alphas"])
    assert checks.check_moment_sweep(outputs["moments"], outputs["c1"] * 1.01,
                                     outputs["c1_translate"] * 1.01, inputs["sweep_alphas"])
    samples = list(outputs["samples"])
    samples[10] = dataclasses.replace(samples[10], p_detected=samples[10].p_detected + 1e-3)
    assert checks.check_detections(samples, outputs["lattice"])


def test_oracle_checks_reject_doctored_values():
    assert checks.check_dense_vs_factored(0.125, 0.125 + 1e-9) == []
    assert checks.check_dense_vs_factored(0.125, 0.125 + 1e-7)
    assert checks.check_eom_identity([(1e-14, 2.0), (1e-13, 164.0)]) == []
    assert checks.check_eom_identity([(1e-11, 2.0)])
    good = {(10.0, 3): (0.9, 0.9, 0.9, 0.81)}
    assert checks.check_flux_symmetries(good) == []
    assert checks.check_flux_symmetries({(10.0, 3): (0.9, 0.9 + 1e-8, 0.9, 0.81)})
    assert checks.check_flux_symmetries({(10.0, 3): (0.9, 0.9, 0.9 - 1e-8, 0.81)})


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    make = workloads.WORKLOADS[name].inputs
    assert _same(make(7, 2), make(7, 2))
    assert not _same(make(7, 2), make(8, 2))
    assert not _same(make(7, 2), make(7, 3))


def test_different_seed_draws_different_alpha():
    assert (workloads.phase_lab_inputs(1, 0)["configs"][0]["params"]["alpha"]
            != workloads.phase_lab_inputs(2, 0)["configs"][0]["params"]["alpha"])
    assert (workloads.oracles_inputs(1, 0)["flux"][0]["alpha"]
            != workloads.oracles_inputs(2, 0)["flux"][0]["alpha"])


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    import modlab
    from modlab import cli, evolve, experiments

    originals = (experiments.run, cli.run, experiments.propagate, evolve.propagate, modlab.run)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.run is experiments.run is modlab.run  # one wrapper, all names
        assert experiments.run is not originals[0]
        assert experiments.propagate is evolve.propagate is not originals[3]
        tracer.op = 1
        experiments.run(experiments.ExperimentConfig(
            "eom-check", {"n": "256", "steps": "8", "levels": "2", "dt": "2e-3"},
            seed=4, out_dir=str(tmp_path), format="csv"))
    finally:
        tracer.op = -1
        tracer.uninstall()
    assert installed_wrappers() == []
    assert (experiments.run, cli.run, experiments.propagate, evolve.propagate,
            modlab.run) == originals

    m = layer_metrics(tracer)
    assert m["experiments.run.calls"][0] == 1
    assert m["evolve.propagate.calls"][0] == 2
    assert m["evolve.propagate.steps"][0] == 8 + 16
    assert m["evolve.site_steps"][0] == (8 + 16) * 256
    assert m["records.bytes_written"][0] == (tmp_path / "eom-check-4.csv").stat().st_size
    names = {span["name"] for span in tracer.span_records()}
    assert {"experiments.run", "evolve.propagate", "observables.eom_residual"} <= names


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1, 1), ("b", 1.0, 4.0, 0, 1), ("c", 5.0, 6.0, 0, 1),
                    ("d", 2.0, 3.0, 1, 1)]
    times = tracer.self_times()[1]
    assert times["a"] == [1, pytest.approx(6.0)]
    assert times["b"] == [1, pytest.approx(2.0)]
    assert times["d"] == [1, pytest.approx(1.0)]
