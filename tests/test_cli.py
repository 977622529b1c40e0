import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab import experiments
from modlab.cli import EXIT_GUARD, EXIT_OK, EXIT_SCHEMA, main, print_schemas, read_config
from modlab.errors import SchemaViolation
from modlab.experiments import _REQUIRED, SCHEMAS
from modlab.states import _PACKET_KINDS


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


def test_list_prints_choices(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "phase_pattern: str, (required), one of zero|alternating" in out
    assert "mode: str, (required), one of two-bump|gaussian" in out


def test_list_prints_int_choices(capsys):
    assert main(["list"]) == EXIT_OK
    assert "strict: int, default 0, one of 0|1" in capsys.readouterr().out


@pytest.mark.parametrize("name, key, base", [
    ("random-walk", "n_repeats", "n_electrons = 25\n"),
    ("random-walk", "m_slits", "n_electrons = 25\nn_repeats = 100\n"),
    ("grating", "m_slits", "phase_pattern = zero\n"),
    ("random-walk", "kind", "n_electrons = 25\nn_repeats = 100\n"),
    ("grating", "kind", "phase_pattern = zero\n"),
    ("two-slit", "kind", "alpha = 0\n"),
])
def test_list_prints_the_bound_the_library_enforces(name, key, base, tmp_path, capsys):
    # the value just past the bound `modlab list` prints exits 2
    listing = io.StringIO()
    print_schemas(listing)
    block = listing.getvalue().split(f"\n{name}\n")[1].split("\n")
    line = next(ln for ln in block if ln.startswith(f"  {key}: "))
    if ", min " in line:
        value = int(line.split(", min ")[1].split()[0]) - 1
    else:
        value = "square"
        assert ", one of bump|gaussian" in line
    cfg = write_config(tmp_path, f"{base}{key} = {value}\n")
    assert main([name, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_SCHEMA
    assert key in capsys.readouterr().err


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


def test_scattering_flux_far_past_its_reduced_value_exit_code(tmp_path, capsys):
    # |floor(alpha)| > 2**16 is out of the envelope: exit 3, not a traceback
    cfg = write_config(tmp_path, "alpha = 1e300\n")
    code = main(["scattering", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_GUARD
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not list(tmp_path.glob("scattering-*"))


def test_off_lattice_two_particle_spacing_exit_code(tmp_path, capsys):
    # dx = 32/256 = 0.125; the sector identity behind <T12> needs L = m*dx
    cfg = write_config(tmp_path, "spacing = 2.01\nsteps = 20\n")
    code = main(["two-particle", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_GUARD
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "spacing" in err
    assert not list(tmp_path.glob("two-particle-*"))


def test_two_particle_grid_cap_exits_before_the_product_state(tmp_path, capsys, monkeypatch):
    # n = 1024 is past the cap of 512 per axis: refused before any n x n array exists
    def product_state(*args):
        raise AssertionError("product_state called past the grid cap")

    monkeypatch.setattr(experiments, "product_state", product_state)
    cfg = write_config(tmp_path, "n = 1024\nsteps = 20\n")
    code = main(["two-particle", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_GUARD
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "512" in err
    assert not list(tmp_path.glob("two-particle-*"))


def test_memory_error_exit_code(tmp_path, capsys, monkeypatch):
    # a run that cannot allocate its arrays is refused like an out-of-range value
    def runner(params, seed):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setitem(experiments._RUNNERS, "two-slit", runner)
    cfg = write_config(tmp_path, "alpha = 0.5\n")
    code = main(["two-slit", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: two-slit:") and err.count("\n") == 1 and "memory" in err
    assert not list(tmp_path.glob("two-slit-*"))


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


def test_non_utf8_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"alpha = \xff\n")
    code = main(["two-slit", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.glob("two-slit-*"))


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
    ("scattering", "alpha = 0.5\nk = 10\nr = 1e308\n"),
    ("scattering", "alpha = 0.5\nk = 1e-300\nr = 1e-300\n"),
    ("taylor-demo", "mode = gaussian\norders = 41\n"),
    ("uncertainty", "widths = 0.3\nk_max = -3\n"),
    ("uncertainty", "widths = 0.3\nbins = 7\n"),
    ("grating", "phase_pattern = bogus\n"),
    ("taylor-demo", "mode = bogus\n"),
    ("eom-check", "steps = 1\n"),
    ("eom-check", "spacing = 1e308\n"),
    ("two-particle", "well_width = 1e-300\nsteps = 20\n"),
    ("random-walk", "spacing = 5e-324\nn_electrons = 25\nn_repeats = 400\n"),
    ("random-walk", "strict = -7\nn_electrons = 25\nn_repeats = 400\n"),
    ("random-walk", "strict = 2\nn_electrons = 25\nn_repeats = 400\n"),
    ("classical-limit", "spacing = 0\n"),
    ("classical-limit", "spacing = -1\n"),
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


# Property test: configs drawn from every schema. Values sit at and just past
# each declared minimum, on each declared choice and one bogus string, and on
# extreme finite floats. The cost keys take only small values, so one example
# runs in milliseconds; valid values come first because hypothesis draws the
# first entries of a list most often.
_CAPPED = {
    "n": (1024, 256, 64, 8, 7, 0, -1),
    "steps": (20, 1, 0, -1),
    "n_repeats": (100, 101, 99, 0),
    "n_electrons": (5, 2, 1, 0),
    "n_thetas": (16, 2, 1, 0),
}
_EXTREME_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-8, 0.5, 1.0, -1.0,
                   3.0, 1e8, 1e300, -1e300, sys.float_info.max, -sys.float_info.max)


def _draw_value(key, spec):
    if key in _CAPPED:
        return st.sampled_from(_CAPPED[key])
    default = () if spec.default is _REQUIRED else (spec.default,)
    if spec.kind == "str":
        return st.sampled_from((spec.choices or _PACKET_KINDS) + ("bogus",))
    if spec.kind == "int":
        near = () if spec.lo is None else (spec.lo - 1, spec.lo, spec.lo + 1)
        return st.sampled_from(default + near + (-1, 0, 1, 2))
    number = st.sampled_from(_EXTREME_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    if spec.kind == "floats":
        return st.lists(number, max_size=3)
    return st.sampled_from(default) | number if default else number


def _config_text(value):
    if isinstance(value, list):
        return ",".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _drawn_config(name):
    schema = SCHEMAS[name]
    # missing keys have their own tests; cost keys always take a capped value
    always = {k: _draw_value(k, spec) for k, spec in schema.items()
              if k in _CAPPED or spec.default is _REQUIRED}
    maybe = {k: _draw_value(k, spec) for k, spec in schema.items() if k not in always}
    return st.tuples(st.just(name), st.fixed_dictionaries(always, optional=maybe))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(sorted(SCHEMAS)).flatmap(_drawn_config))
def test_cli_exit_codes_on_drawn_configs(case):
    # every config ends in exit 0, 2 or 3 with at most one error line; an
    # exception escaping main fails the test
    name, params = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        cfg = Path(out) / "drawn.cfg"
        cfg.write_text("".join(f"{k} = {_config_text(v)}\n" for k, v in params.items()),
                       encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([name, "--config", str(cfg), "--out", out])
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_GUARD)
    assert err.getvalue().count("error:") <= 1
