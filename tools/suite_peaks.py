"""Find what sets the memory peak of a benchmark workload.

    python3 tools/suite_peaks.py --seed 0
    python3 tools/suite_peaks.py --workload lattices-nd --seed 0
    python3 tools/suite_peaks.py --workload chains-1d --in-process

Without --workload it runs `verify all --seed N` in this fresh process, one
suite after another as the command does, and prints one row per suite: the
process's peak RSS (`ru_maxrss`) after the suite has run, the tracemalloc
peak of the suite alone, and its wall time. A suite whose RSS row jumps
above the row before sets the peak. The first row is the RSS after the
imports, before any suite.

With --workload chains-1d or lattices-nd it runs each operation of that
workload (`perfbench/workloads.py`, read only) alone in a fresh process and
prints one row per operation: that process's `ru_maxrss`, the operation's
wall time and its exit code. The first row is a fresh process that only
imports. With --in-process as well, the operations run in this one process
instead, in list order, for two passes, and each row is the process's
`ru_maxrss` after that operation: the high-water mark the benchmark's
in-process workload reads, which climbs past every fresh-process row as
the heap that earlier operations left behind is reused or grown.

scipy.spatial is imported before any measurement, as in the benchmark
(`perfbench/child.py` and `run.py`, through the speed kernel), so that no
row holds the import, and tracemalloc, started per suite, keeps no record
of it. The library is imported from this checkout's src/. Without
--workload the exit code is that of the command.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import scipy.spatial  # noqa: E402,F401
import delone_lab.verify as verify  # noqa: E402
import workloads  # noqa: E402
from delone_lab.cli import main as cli_main  # noqa: E402


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli_main(argv)
        except SystemExit as exc:
            return exc.code


def verify_suites(seed: int) -> int:
    rows = [("(imports)", rss_mb(), 0.0, 0.0)]

    def measured(name, suite):
        @functools.wraps(suite)
        def run(*a, **kw):
            tracemalloc.start()
            t = time.perf_counter()
            try:
                return suite(*a, **kw)
            finally:
                wall = time.perf_counter() - t
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                rows.append((name, rss_mb(), peak / 2**20, wall))

        return run

    for name, suite in list(verify.SUITES.items()):
        verify.SUITES[name] = measured(name, suite)
    code = run_cli(["verify", "all", "--seed", str(seed)])
    print("%-14s %12s %12s %8s" % ("suite", "rss_after_mb", "traced_mb", "wall_s"))
    for name, rss, traced, wall in rows:
        print("%-14s %12.1f %12.2f %8.3f" % (name, rss, traced, wall))
    return code


def run_op(workload: str, seed: int, name: str, label: str = "") -> None:
    """One operation in this process, or none for an empty name; prints its
    row, its name followed by the label."""
    code, wall = 0, 0.0
    if name:
        op = next(op for op in workloads.WORKLOADS[workload](seed) if op.name == name)
        with tempfile.TemporaryDirectory() as tmp:
            t = time.perf_counter()
            code = run_cli(op.argv(seed) + ["--out", os.path.join(tmp, "artifact")])
            wall = time.perf_counter() - t
    print("%-32s %10.1f %8.3f %5s" % ((name or "(imports)") + label, rss_mb(), wall, code), flush=True)


def workload_ops(workload: str, seed: int, in_process: bool) -> None:
    print("%-32s %10s %8s %5s" % ("operation", "rss_mb", "wall_s", "exit"), flush=True)
    if in_process:
        run_op(workload, seed, "")
        for p in (1, 2):
            for op in workloads.WORKLOADS[workload](seed):
                run_op(workload, seed, op.name, " (pass %d)" % p)
        return
    for name in [""] + [op.name for op in workloads.WORKLOADS[workload](seed)]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--op", name]
        if subprocess.run(cmd).returncode:
            print("%-32s the process failed" % name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", choices=["chains-1d", "lattices-nd"])
    ap.add_argument("--in-process", action="store_true",
                    help="run the workload's operations in this process, for two passes")
    ap.add_argument("--op", help=argparse.SUPPRESS)  # one operation, in a child
    args = ap.parse_args(argv)
    if args.workload is None:
        if args.in_process:
            ap.error("--in-process needs --workload")
        return verify_suites(args.seed)
    if args.op is None:
        workload_ops(args.workload, args.seed, args.in_process)
    else:
        run_op(args.workload, args.seed, args.op)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
