"""Experiment result records and their deterministic CSV/JSON serialization.

Numbers are written with 17 significant digits, which round-trips IEEE-754
doubles exactly; identical records therefore serialize to byte-identical
files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ArgumentError, IoFailure


# printf conversions giving format_number's output for the Python values
# tolist returns, by dtype kind; "%.17g" is the conversion format(x, ".17g") makes
_PRINTF_BY_KIND = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}
_CSV_ROWS = 2**14  # rows formatted at a time: bounds the per-block value lists


@dataclass(frozen=True)
class ExperimentRecord:
    """One run's result; each column becomes a 1-D bool, int or float array of
    the common length on construction, or raises ArgumentError."""

    experiment: str
    params_echo: dict
    columns: dict[str, np.ndarray]
    provenance: str
    summary: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        columns = {k: np.asarray(v) for k, v in self.columns.items()}
        bad = [k for k, v in columns.items() if v.ndim != 1 or v.dtype.kind not in _PRINTF_BY_KIND]
        if bad:
            raise ArgumentError(f"columns {bad} are not 1-D bool, int or float arrays")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ArgumentError(f"columns have unequal lengths: {lengths}")
        object.__setattr__(self, "columns", columns)


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _format_param(v) -> str:
    if isinstance(v, (list, tuple)):
        return ",".join(_format_param(i) for i in v)
    if isinstance(v, str):
        return v
    return format_number(v)


def _csv_text(record: ExperimentRecord) -> str:
    lines = [f"# provenance: {record.provenance}"]
    for k, v in record.params_echo.items():
        lines.append(f"# param {k} = {_format_param(v)}")
    for k, v in record.summary.items():
        lines.append(f"# summary {k} = {format_number(v)}")
    lines.append(",".join(record.columns))
    columns = list(record.columns.values())
    row = ",".join(_PRINTF_BY_KIND[v.dtype.kind] for v in columns)
    for i in range(0, len(columns[0]) if columns else 0, _CSV_ROWS):
        values = [v[i:i + _CSV_ROWS].tolist() for v in columns]
        block = "\n".join([row] * len(values[0]))
        lines.append(block % tuple(chain.from_iterable(zip(*values))))
    return "\n".join(lines) + "\n"


def _json_value(v) -> str:
    # strings through the stdlib escaper; numbers through the 17-digit format
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype.kind in _PRINTF_BY_KIND:
        return "[" + ", ".join([_PRINTF_BY_KIND[v.dtype.kind]] * len(v)) % tuple(v.tolist()) + "]"
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(i) for i in v) + "]"
    if isinstance(v, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    return format_number(v)


def _json_text(record: ExperimentRecord) -> str:
    obj = {
        "experiment": record.experiment,
        "provenance": record.provenance,
        "params": record.params_echo,
        "summary": record.summary,
        "columns": record.columns,
    }
    return _json_value(obj) + "\n"


def write_record(record: ExperimentRecord, out_dir, fmt: str, seed: int) -> Path:
    """Write <experiment>-<seed>.<fmt> under out_dir; returns the path."""
    if fmt not in ("csv", "json"):
        raise ArgumentError(f"format must be csv or json, got {fmt!r}")
    text = _csv_text(record) if fmt == "csv" else _json_text(record)
    path = Path(out_dir) / f"{record.experiment}-{seed}.{fmt}"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e
    return path
