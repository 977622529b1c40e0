"""Run Python code or a module in this process and gate its peak resident set size.

    python .github/peak_rss.py BOUND_MIB -c CODE [ARG ...]
    python .github/peak_rss.py BOUND_MIB -m MODULE [ARG ...]

CODE or MODULE runs as `python -c` or `python -m` would run it, with
sys.argv[1:] set to the ARGs. The script then prints the peak RSS and exits
non-zero if the run failed (an exception, or a non-zero exit status) or if the
peak reached BOUND_MIB.
"""

import resource
import runpy
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] not in ("-c", "-m"):
        print(__doc__, file=sys.stderr)
        return 2
    bound, mode, target, *args = argv
    sys.argv = ["-c", *args]  # run_module puts the module's path in argv[0]
    status = 0
    try:
        if mode == "-c":
            exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
        else:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
    except SystemExit as e:
        status = e.code
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"peak RSS {peak:.1f} MiB, bound {bound} MiB")
    if status not in (0, None):
        print(f"run exited with status {status}", file=sys.stderr)
        return 1
    return int(peak >= float(bound))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
