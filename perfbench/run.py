"""modlab benchmark: one closed-loop client driving one workload.

    python3 perfbench/run.py --workload two-particle|phase-lab|oracles \
        --seed N --seconds S --trace 0|1

Run from the root of a modlab checkout; the package is imported from its
`src/`. The client starts the next op only after the previous one finished
and passed its checks, as a researcher running seeded experiments does.

--trace 0 reports the end-to-end metrics, times at the reference host speed
(see hostref.py):
  setup_s           median over this process and SETUP_PROBES fresh ones of the
                    time from process start to the end of the first, cold,
                    checked op
  peak_rss_mib      median peak resident memory of those processes at that point
  op_p50_s          median time of the timed ops
  throughput_ops_s  ops that passed their checks / time of the timed run
  ok_ratio          ops that passed their checks / ops attempted
--trace 1 alternates untraced and traced ops and reports the per-layer
metrics (see README.md), with the spans written to .perfbench_out/.

The last line of standard output is the JSON result; the line before it
holds the provenance, the sample counts and the uncorrected wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostref import NOMINAL_S, reference_seconds
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 2  # fresh processes, besides this one


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("two-particle", "phase-lab", "oracles"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-dir", help=argparse.SUPPRESS)  # internal: one cold op
    return ap.parse_args(argv)


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _since_start() -> float:
    """Seconds since this process was created, at clock-tick resolution."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def _cold_op(wl, inputs, out_dir: Path) -> dict:
    """The first op of a process, as a set-up sample."""
    _, problems, _ = _run_op(wl, inputs, out_dir)
    wall, rss = _since_start(), _rss_mib()
    reference_seconds()  # warm-up: the first pass pays for FFT plans and BLAS threads
    ref = statistics.median(reference_seconds() for _ in range(3))
    return {"setup_s": wall * NOMINAL_S / ref, "setup_wall_s": wall, "rss_mib": rss,
            "problems": problems}


def _run_op(workload, inputs, out_dir: Path) -> tuple[float, list[str], dict | None]:
    """Run and check one op; an exception counts as a failed op, never aborts."""
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        outputs = workload.op(inputs, out_dir)
    except Exception as e:  # a failed op is data; the run goes on
        return time.perf_counter() - start, [f"{type(e).__name__}: {e}"], None
    elapsed = time.perf_counter() - start
    try:
        problems = workload.check(inputs, outputs)
    except Exception as e:
        problems = [f"check raised {type(e).__name__}: {e}"]
    return elapsed, problems, outputs


def _probe(args) -> int:
    """Child process: the first, cold op of a fresh process."""
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    print(json.dumps(_cold_op(wl, wl.inputs(args.seed, 0), Path(args.probe_dir))))
    return 0


def _setup_probes(args, run_dir: Path) -> list[dict]:
    """Set-up samples from fresh processes, run one after another."""
    results = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--probe-dir",
               str(run_dir / f"probe{k}")]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        try:
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        except (IndexError, json.JSONDecodeError):
            results.append({"setup_s": None, "setup_wall_s": None, "rss_mib": None,
                            "problems": [f"setup probe exited {proc.returncode} without a report"]})
    return results


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def _provenance(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset (OpenBLAS default = nproc)"),
        "git_sha": _git_sha(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "modlab" / "__init__.py").is_file():
        print(f"error: no modlab sources under {ROOT / 'src'}; run from a modlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe_dir:
        return _probe(args)

    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, run_dir: Path) -> int:
    import checks
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    # the first op of this process is cold and untimed, a set-up sample, and
    # the reference for the rerun check
    warm_inputs = wl.inputs(args.seed, 0)
    setups = [_cold_op(wl, warm_inputs, run_dir / "op0")]
    if not args.trace:
        setups += _setup_probes(args, run_dir)
    failures = [p for r in setups for p in r["problems"]]
    attempted, failed = len(setups), sum(1 for r in setups if r["problems"])

    tracer = Tracer() if args.trace else None
    wall = {False: [], True: []}  # traced? -> op wall times
    timed = {False: [], True: []}  # traced? -> op times at the reference speed
    refs = [reference_seconds()]
    ref_cpu = 0.0  # CPU time of the reference passes, left out of proc.cpu_s_per_op
    busy = 0.0  # time of the timed run at the reference speed
    ok_timed = 0
    bessel_err = 0.0  # worst bessel_j error against scipy over the traced ops
    index = 0
    cpu0, loop0 = time.process_time(), time.perf_counter()
    while (time.perf_counter() - loop0 < args.seconds
           or (tracer and not (timed[False] and timed[True]))):
        index += 1
        iteration0 = time.perf_counter()
        inputs = wl.inputs(args.seed, index)
        traced = bool(tracer) and index % 2 == 0
        if traced:
            tracer.install()
            tracer.op = index
        try:
            elapsed, problems, outputs = _run_op(wl, inputs, run_dir / f"op{index}")
        finally:
            if traced:
                tracer.op = -1
                tracer.uninstall()
        if traced and outputs and "bessel" in outputs:
            err = checks.bessel_errors(inputs["bessel_points"], outputs["bessel"])
            bessel_err = max(bessel_err, float(err.max()))
        shutil.rmtree(run_dir / f"op{index}", ignore_errors=True)
        iteration = time.perf_counter() - iteration0
        cpu_before = time.process_time()
        refs.append(reference_seconds())
        ref_cpu += time.process_time() - cpu_before
        scale = NOMINAL_S / statistics.fmean(refs[-2:])  # the host speed around this op
        wall[traced].append(elapsed)
        timed[traced].append(elapsed * scale)
        busy += iteration * scale
        ok_timed += not problems
        attempted, failed, failures = attempted + 1, failed + bool(problems), failures + problems
    loop_wall = time.perf_counter() - loop0
    cpu = time.process_time() - cpu0 - ref_cpu
    n_timed = index

    # acceptance criterion 12: the first op's records, written again by the
    # set-up processes (or by a rerun here), must be byte-identical
    reference = workloads.record_files(warm_inputs, run_dir / "op0")
    try:
        if args.trace:
            copies = [workloads.rerun(warm_inputs, run_dir / "rerun")]
        else:
            copies = [workloads.record_files(warm_inputs, run_dir / f"probe{k}")
                      for k in range(SETUP_PROBES)]
        problems = [p for copy in copies for p in checks.compare_files(reference, copy)]
    except Exception as e:
        problems = [f"rerun raised {type(e).__name__}: {e}"]
    attempted, failed, failures = attempted + 1, failed + bool(problems), failures + problems

    measured = [r for r in setups if r["setup_s"] is not None]
    samples = {"setup_processes": len(measured), "timed_ops": n_timed,
               "traced_ops": len(timed[True]), "untraced_ops": len(timed[False]),
               "reference_passes": len(refs)}
    wall_times = {"setup_s": statistics.median(r["setup_wall_s"] for r in measured),
                  "op_p50_s": statistics.median(wall[False]),
                  "throughput_ops_s": ok_timed / loop_wall,
                  "reference_p50_s": statistics.median(refs)}
    if args.trace:
        metrics = _layer_metrics(tracer, timed, cpu / n_timed, bessel_err, args)
        metrics["proc.reference_p50_s"] = (wall_times["reference_p50_s"], "s")
    else:
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r in measured), "s"),
            "throughput_ops_s": (ok_timed / busy, "1/s"),
            "op_p50_s": (statistics.median(timed[False]), "s"),
            "peak_rss_mib": (statistics.median(r["rss_mib"] for r in measured), "MiB"),
            "ok_ratio": ((attempted - failed) / attempted, "fraction"),
        }
    for problem in failures[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": _provenance(args), "samples": samples,
                      "wall_times": wall_times}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _layer_metrics(tracer, timed: dict, cpu_per_op: float, bessel_err: float, args) -> dict:
    traced_mean = statistics.fmean(timed[True])
    untraced_mean = statistics.fmean(timed[False])
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(
        json.dumps(tracer.span_records()))
    metrics = layer_metrics(tracer)
    metrics["proc.cpu_s_per_op"] = (cpu_per_op, "s")
    metrics["proc.trace_overhead_pct"] = (100.0 * (traced_mean / untraced_mean - 1.0), "%")
    metrics["proc.peak_rss_loop_mib"] = (_rss_mib(), "MiB")
    metrics["scattering.bessel_max_abs_err"] = (bessel_err, "abs")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
