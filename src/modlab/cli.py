"""Command-line experiment runner.

    modlab <experiment-name> --config <path> [--out <dir>] [--format csv|json]
                             [--seed <u64>]
    modlab list

Config files are flat UTF-8 key/value text, one `key = value` per line, with
`#` comments; keys and types are documented by `modlab list`. Exit codes:
0 success, 1 I/O failure, 2 schema violation (including unknown experiment or
key), 3 numerical guard failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    IoFailure,
    ModlabError,
    SchemaViolation,
    UnknownExperiment,
)
from .experiments import (
    _REQUIRED,
    ExperimentConfig,
    SCHEMAS,
    experiment_names,
    run,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_GUARD = 3


def read_config(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise IoFailure(f"cannot read config {path}: {e}") from e
    out: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaViolation(f"{path}:{ln}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in out:
            raise SchemaViolation(f"{path}:{ln}: duplicate key {key!r}")
        out[key] = value
    return out


def print_schemas(stream=None) -> None:
    stream = stream or sys.stdout
    for name in experiment_names():
        print(name, file=stream)
        for key, spec in SCHEMAS[name].items():
            if spec.default is _REQUIRED:
                default = "(required)"
            elif isinstance(spec.default, (list, tuple)):
                default = "default " + ",".join(str(v) for v in spec.default)
            else:
                default = f"default {spec.default}"
            help_text = f"  {spec.help}" if spec.help else ""
            print(f"  {key}: {spec.kind}, {default}{help_text}", file=stream)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="modlab",
        description="Seeded, reproducible interference and scattering experiments.",
    )
    parser.add_argument("experiment", help="experiment name, or 'list' to enumerate")
    parser.add_argument("--config", type=Path, help="flat key=value parameter file")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print_schemas()
        return EXIT_OK
    try:
        if args.seed < 0 or args.seed >= 2**64:
            raise SchemaViolation("seed must fit an unsigned 64-bit integer")
        raw = read_config(args.config) if args.config else {}
        config = ExperimentConfig(
            name=args.experiment,
            params=raw,
            seed=args.seed,
            out_dir=str(args.out),
            format=args.format,
        )
        record = run(config)
    except ModlabError as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (SchemaViolation, UnknownExperiment)):
            return EXIT_SCHEMA
        return 1 if isinstance(e, IoFailure) else EXIT_GUARD
    out_path = Path(config.out_dir) / f"{record.experiment}-{config.seed}.{config.format}"
    print(f"wrote {out_path}")
    for key, value in record.summary.items():
        print(f"  {key} = {value:.6g}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
