"""Alternating pairs of perfbench runs on two checkouts, summarized in one file.

    python3 .github/bench.py --parent DIR --change DIR --workload W [--workload W ...] \
        --seeds A-B --seconds S [--trace] --out BENCH_<tag>.json

For each workload and each seed from A to B, `python3 perfbench/run.py` runs
once in each checkout, the parent first in the first pair and the sides
taking turns after that, so neither side always meets the host in the same
state.
Both JSON lines of every run are kept. Per metric, the corrected metrics of
the result line and the uncorrected `wall_times` of the line before it get
each side's median and quartiles, and the number of pairs in which the
change read better. Which way is better comes from the change's
BENCHMARK.json; `wall_times.reference_p50_s` is better lower. The
provenance names the host as numpy sees it: its version, its SIMD baseline
and found extensions, the C library, and the core its bundled OpenBLAS
picked (null where the library has no `scipy_openblas_get_corename64_`).
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

# run in a child process, so the host is read as numpy loads it there
_HOST = """
import ctypes, glob, json, os, platform
import numpy

def openblas_core():
    root = os.path.dirname(numpy.__file__)
    for path in sorted(glob.glob(os.path.join(root, "..", "numpy.libs", "*openblas*"))
                       + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None

print(json.dumps({"numpy": numpy.__version__,
                  "numpy_simd": numpy.show_config(mode="dicts")["SIMD Extensions"],
                  "libc": platform.libc_ver(), "openblas_core": openblas_core()}))
"""


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--seeds", required=True, help="A-B, inclusive")
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", action="store_true", help="per-layer metrics (perfbench --trace 1)")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    args.seeds = list(range(int(first), int(last or first) + 1))
    return args


def _git(checkout: Path, *cmd: str) -> str | None:
    proc = subprocess.run(["git", *cmd], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _side_provenance(checkout: Path) -> dict:
    return {"git_head": _git(checkout, "rev-parse", "HEAD"),
            "src_tree": _git(checkout, "rev-parse", "HEAD:src"),
            "dirty": bool(_git(checkout, "status", "--porcelain", "--", "src", "perfbench"))}


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in lines[-2:]]


def _spread(values: list[float]) -> dict:
    q1, q3 = values[0], values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def _summary(pairs: list[dict], read, higher: set[str]) -> dict:
    """Per metric: each side's spread, and the pairs in which the change read better."""
    out = {}
    for name in read(pairs[0]["parent"]):
        sides = {side: [read(p[side])[name] for p in pairs] for side in SIDES}
        sign = 1.0 if name in higher else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {**{side: _spread(v) for side, v in sides.items()},
                     "change_better_pairs": wins, "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    higher = {m["name"] for m in spec["end_to_end"] + spec["per_layer"] if m["better"] == "higher"}
    checkouts = {"parent": args.parent, "change": args.change}
    host = json.loads(subprocess.run([sys.executable, "-c", _HOST], capture_output=True,
                                     text=True, check=True).stdout)
    report = {
        "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
        "provenance": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       **host,
                       **{side: _side_provenance(path) for side, path in checkouts.items()}},
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = _run(checkouts[side], workload, seed, args.seconds, args.trace)
            pairs.append(pair)
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        report["workloads"][workload] = {
            "metrics": _summary(pairs, lambda run: {k: m["value"] for k, m in
                                                    run[1]["metrics"].items()}, higher),
            "wall_times": _summary(pairs, lambda run: run[0]["wall_times"],
                                   {"throughput_ops_s"}),
            "runs": pairs,
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
