import json

import pytest

from modlab.cli import EXIT_GUARD, EXIT_OK, EXIT_SCHEMA, main, read_config
from modlab.errors import SchemaViolation


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_list_command(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("two-slit", "grating", "scattering", "random-walk", "taylor-demo"):
        assert name in out
    assert "(required)" in out


def test_list_prints_minimums(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bins: int, default 32, min 8" in out
    assert "n_electrons: int, (required), min 1" in out


def test_read_config_parsing(tmp_path):
    path = write_config(tmp_path, "# comment\nalpha = 3.14\n\nwidth=1.5\n")
    assert read_config(path) == {"alpha": "3.14", "width": "1.5"}
    with pytest.raises(SchemaViolation):
        read_config(write_config(tmp_path, "alpha 3.14\n", "bad.cfg"))
    with pytest.raises(SchemaViolation):
        read_config(write_config(tmp_path, "a = 1\na = 2\n", "dup.cfg"))


def test_run_two_slit(tmp_path, capsys):
    cfg = write_config(tmp_path, "alpha = 0\n")
    code = main(["two-slit", "--config", str(cfg), "--out", str(tmp_path), "--seed", "3"])
    assert code == EXIT_OK
    out_file = tmp_path / "two-slit-3.csv"
    assert out_file.exists()
    assert "wrote" in capsys.readouterr().out
    header = out_file.read_text().splitlines()
    assert header[0].startswith("# provenance: modlab")
    assert "seed=3" in header[0]


def test_unknown_experiment_exit_code(tmp_path, capsys):
    assert main(["warp-drive", "--out", str(tmp_path)]) == EXIT_SCHEMA
    assert "valid names" in capsys.readouterr().err


def test_unknown_key_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "alpha = 0\nnonsense = 1\n")
    code = main(["two-slit", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_SCHEMA
    assert "nonsense" in capsys.readouterr().err


def test_missing_key_exit_code(tmp_path, capsys):
    code = main(["two-slit", "--out", str(tmp_path)])
    assert code == EXIT_SCHEMA
    assert "alpha" in capsys.readouterr().err


def test_guard_failure_exit_code(tmp_path, capsys):
    # width >= spacing/2 violates the disjointness guard at run time
    cfg = write_config(tmp_path, "widths = 1.5\nspacing = 2.0\n")
    code = main(["uncertainty", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_GUARD
    assert "error" in capsys.readouterr().err


def test_bad_seed_exit_code(tmp_path):
    cfg = write_config(tmp_path, "alpha = 0\n")
    assert main(["two-slit", "--config", str(cfg), "--seed", "-1"]) == EXIT_SCHEMA


def test_json_format_flag(tmp_path):
    cfg = write_config(tmp_path, "alpha = 0.5\nk = 1.0\nr = 10.0\n")
    code = main([
        "scattering", "--config", str(cfg), "--out", str(tmp_path),
        "--format", "json", "--seed", "9",
    ])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "scattering-9.json").read_text())
    assert data["summary"]["reduced_flux"] == 0.5
    assert len(data["columns"]["theta"]) == 64


def test_missing_config_file(tmp_path, capsys):
    code = main(["two-slit", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("experiment,text", [
    ("two-slit", "alpha = nan\n"),
    ("two-slit", "alpha = inf\n"),
    ("scattering", "alpha = nan\n"),
    ("scattering", "alpha = -inf\n"),
    ("uncertainty", "widths = 0.3,nan\n"),
])
def test_non_finite_float_exit_code(tmp_path, capsys, experiment, text):
    cfg = write_config(tmp_path, text)
    code = main([experiment, "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cannot parse" in err


@pytest.mark.parametrize("experiment,text", [
    ("two-slit", "alpha = 0\nwidth = -1\n"),
    ("two-slit", "alpha = 0\nkind = square\n"),
    ("two-slit", "alpha = 0\nn = 1000\n"),
    ("random-walk", "n_electrons = 10\nn_repeats = 3\n"),
    ("scattering", "alpha = 0.5\nk = -1\n"),
    ("scattering", "alpha = 0.5\nn_max = 5\n"),
    ("two-particle", "steps = 20\nsnapshot_every = 7\n"),
    ("two-particle", "steps = 20\nsnapshot_every = 0\n"),
    ("classical-limit", "bins = 0\n"),
    ("classical-limit", "hbar_values =\n"),
    ("taylor-demo", "mode = gaussian\norders = -1\n"),
    ("eom-check", "levels = 0\n"),
    ("scattering", "alpha = 0.5\nn_thetas = 0\n"),
    ("random-walk", "n_electrons = 0\nn_repeats = 100\n"),
    ("uncertainty", "widths =\n"),
])
def test_argument_error_exit_code(tmp_path, capsys, experiment, text):
    # out-of-range values and degenerate counts are argument errors: exit 2
    # with one error line and no traceback
    cfg = write_config(tmp_path, text)
    code = main([experiment, "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not list(tmp_path.glob(f"{experiment}-*"))
