"""Argument guards, one case each: the error type every refusal raises, and a
message fragment that shows the guard itself fired, not a later failure."""

import math

import numpy as np
import pytest

from modlab import (
    ClassicalState,
    ExperimentRecord,
    MomentumAmplitudes,
    OperatorMatrix,
    PacketSpec,
    PotentialSpec,
    SlitArraySpec,
    WaveFunction,
    classical_limit_experiment,
    ellipse_check,
    fringe_peaks,
    make_grid,
    make_packet,
    product_state,
    random_walk_experiment,
    superpose,
    write_record,
)
from modlab.errors import (
    ArgumentError,
    GridMismatch,
    IoFailure,
    ModlabError,
    NoPeaks,
    ZeroState,
)
from modlab.operators import _classical_force


def _grid(length=16.0):
    return make_grid(128, -length / 2.0, length)


def _packet(grid):
    return make_packet(grid, PacketSpec("gaussian", 0.0, 1.0))


_BUMP = PacketSpec("bump", -1.0, 0.5)


def _record(**columns):
    return ExperimentRecord("demo", {}, columns, "p")


def _write_into_a_file(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    write_record(_record(x=[1.0]), blocker, "csv", 0)


# name -> (error type, message fragment, call taking pytest's tmp_path)
_GUARDS = {
    "potential-unknown-kind": (
        ArgumentError, "kind must be one of", lambda tmp: PotentialSpec(kind="cubic")),
    "potential-sampled-without-samples": (
        ArgumentError, "needs samples", lambda tmp: PotentialSpec(kind="sampled")),
    "product-state-grids-differ": (
        GridMismatch, "different grids",
        lambda tmp: product_state(_packet(_grid()), _packet(_grid(24.0)))),
    "classical-limit-non-positive-hbar": (
        ArgumentError, "must be positive",
        lambda tmp: classical_limit_experiment(1.0, [0.5, 0.0], PacketSpec("gaussian", 0.0, 1.0),
                                               _grid())),
    "random-walk-few-repeats": (
        ArgumentError, "n_repeats must be >= 100",
        lambda tmp: random_walk_experiment(SlitArraySpec(2, 2.0, _BUMP, (0.0, 0.0)),
                                           _grid(), 10, 99, 0)),
    "amplitudes-wrong-shape": (
        GridMismatch, "expected shape", lambda tmp: WaveFunction(_grid(), np.ones(32))),
    "fringe-peaks-zero-density": (
        NoPeaks, "identically zero",
        lambda tmp: fringe_peaks(MomentumAmplitudes(_grid(), np.zeros(128)))),
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
    "superpose-nothing": (ZeroState, "no states given", lambda tmp: superpose([])),
}


@pytest.mark.parametrize("case", list(_GUARDS))
def test_guard_refuses(case, tmp_path):
    error, fragment, call = _GUARDS[case]
    with pytest.raises(error, match=fragment) as info:
        call(tmp_path)
    assert isinstance(info.value, ModlabError)
