"""Golden records: the nine seed-7 CI configs, run in process, against the CSV
records committed under tests/golden.

Param lines, summary names, column names and row counts must match exactly.
Every value must agree within 1e-12 relative to itself plus 1e-12 of the
largest |value| in its column (the summary counts as one column), so a change
in the last bits passes and a change in the results does not. Byte identity is
reported without failing, because it can differ between numpy versions.

A change that is meant to move the records regenerates the goldens from the
tree it changes:

    PYTHONPATH=src python tests/test_golden.py

which prints, for each record it rewrites, the largest absolute change per
column and summary value against the file it replaces, or "byte-identical".
"""

import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from modlab import ExperimentConfig, run, write_record

GOLDEN = Path(__file__).parent / "golden"
SEED = 7
RTOL = ATOL = 1e-12

# the CI configs, one per experiment
CONFIGS = {
    "two-slit": {"alpha": "3.141592653589793"},
    "grating": {"phase_pattern": "alternating"},
    "eom-check": {},
    "uncertainty": {"widths": "0.4,0.6,0.8"},
    "classical-limit": {},
    "two-particle": {},
    "scattering": {"alpha": "0.37"},
    "random-walk": {"n_electrons": "25", "n_repeats": "400"},
    "taylor-demo": {"mode": "two-bump"},
}


def _write(name: str, out_dir) -> Path:
    return run(ExperimentConfig(name, dict(CONFIGS[name]), SEED, str(out_dir), "csv"),
               with_path=True)[1]


def _parse(text: str):
    """(param lines, {summary name: value}, column names, 2-D value array)."""
    lines = text.splitlines()
    params = [ln for ln in lines if ln.startswith("# param ")]
    summary = {}
    for ln in lines:
        if ln.startswith("# summary "):
            key, _, value = ln[len("# summary "):].partition(" = ")
            summary[key] = float(value)
    body = [ln for ln in lines if not ln.startswith("#")]
    names = body[0].split(",")
    values = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    return params, summary, names, values.reshape(len(body) - 1, len(names))


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| <= RTOL |b| + ATOL max|b| over axis 0 (a column)."""
    scale = np.max(np.abs(b), axis=0, initial=0.0)
    return np.abs(a - b) <= RTOL * np.abs(b) + ATOL * scale


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_record_matches_golden(name, tmp_path, record_property):
    golden = (GOLDEN / f"{name}-{SEED}.csv").read_text(encoding="utf-8")
    text = _write(name, tmp_path).read_text(encoding="utf-8")
    params, summary, names, values = _parse(text)
    g_params, g_summary, g_names, g_values = _parse(golden)
    assert params == g_params
    assert list(summary) == list(g_summary)
    assert names == g_names
    assert values.shape == g_values.shape
    bad = ~_close(values, g_values)
    assert not bad.any(), (
        f"{name}: {int(bad.sum())} values moved beyond tolerance, first in column "
        f"{names[np.argwhere(bad)[0][1]]!r}")
    s, gs = np.array(list(summary.values())), np.array(list(g_summary.values()))
    assert _close(s, gs).all(), f"{name}: summary moved beyond tolerance"
    identical = text == golden
    record_property("byte_identical", identical)
    if not identical:
        warnings.warn(f"{name}: record agrees with its golden within tolerance "
                      "but is not byte-identical")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_json_record_holds_the_csv_values(name, tmp_path):
    # one run written in both formats, each printing every number with 17
    # significant digits
    config = ExperimentConfig(name, dict(CONFIGS[name]), SEED, str(tmp_path), "json")
    rec, path = run(config, with_path=True)
    record = json.loads(path.read_text(encoding="utf-8"))
    csv_text = write_record(rec, tmp_path, "csv", SEED).read_text(encoding="utf-8")
    _, summary, names, values = _parse(csv_text)
    assert record["summary"] == summary
    assert list(record["columns"]) == names
    columns = np.array(list(record["columns"].values()), dtype=float)
    assert np.array_equal(columns.T.reshape(values.shape), values)


# A fresh interpreter in which importing scipy fails runs every CI config
# through the CLI: the package's runtime needs numpy alone.
_WITHOUT_SCIPY = """
import json, sys
from pathlib import Path

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from modlab.cli import main

configs, out = json.loads(sys.argv[1]), Path(sys.argv[2])
codes = {}
for name, params in configs.items():
    cfg = out / f"{name}.cfg"
    cfg.write_text("".join(f"{k} = {v}\\n" for k, v in params.items()), encoding="utf-8")
    codes[name] = main([name, "--config", str(cfg), "--seed", "7", "--out", str(out)])
print(json.dumps({"codes": codes, "scipy_loaded": "scipy" in sys.modules}))
"""


def test_ci_configs_run_without_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(CONFIGS),
                           str(tmp_path)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == dict.fromkeys(CONFIGS, 0), done.stderr
    assert not result["scipy_loaded"]


def _changes(old: str, new: str) -> str:
    """The largest absolute change per column and summary value from the
    record `old` to `new`, or "byte-identical"."""
    if old == new:
        return "byte-identical"
    _, summary, names, values = _parse(new)
    _, g_summary, g_names, g_values = _parse(old)
    if names != g_names or values.shape != g_values.shape or list(summary) != list(g_summary):
        return "columns, rows or summary names changed"
    moved = dict(zip(names, np.max(np.abs(values - g_values), axis=0, initial=0.0)))
    moved.update((f"summary {k}", abs(v - g_summary[k])) for k, v in summary.items())
    return "max |change| " + ", ".join(f"{k} {v:.2g}" for k, v in moved.items())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            path = _write(name, tmp)
            target = GOLDEN / path.name
            new = path.read_text(encoding="utf-8")
            old = target.read_text(encoding="utf-8") if target.exists() else None
            target.write_bytes(path.read_bytes())
            print(f"wrote {target}: "
                  + ("new record" if old is None else _changes(old, new)))
