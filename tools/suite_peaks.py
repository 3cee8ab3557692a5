"""Find the verify suite that sets the memory peak of `verify all`.

    python3 tools/suite_peaks.py --seed 0

Runs `verify all --seed N` in this fresh process, one suite after another as
the command does, and prints one row per suite: the process's peak RSS
(`ru_maxrss`) after the suite has run, the tracemalloc peak of the suite
alone, and its wall time. A suite whose RSS row jumps above the row before
sets the peak. The first row is the RSS after the imports, before any
suite. scipy.spatial is among them, as in the benchmark's verify child
(`perfbench/child.py`, through its speed kernel), so that no suite's row
holds the import, and tracemalloc, started per suite, keeps no record of
it. The library is imported from this checkout's src/. The exit code is
that of the command.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import resource
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import scipy.spatial  # noqa: E402,F401
import delone_lab.verify as verify  # noqa: E402
from delone_lab.cli import main as cli_main  # noqa: E402


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
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
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli_main(["verify", "all", "--seed", str(args.seed)])
        except SystemExit as exc:
            code = exc.code
    print("%-14s %12s %12s %8s" % ("suite", "rss_after_mb", "traced_mb", "wall_s"))
    for name, rss, traced, wall in rows:
        print("%-14s %12.1f %12.2f %8.3f" % (name, rss, traced, wall))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
