"""Write every benchmark operation's artifact, so two checkouts compare with
one `diff -r`.

    python3 tools/dump_artifacts.py --seed 0 --out DIR

For each operation of the chains-1d and lattices-nd workloads
(`perfbench/workloads.py`) at the seed, DIR/<workload>/<op>.csv and .json
receive the artifact in that format; each atlas operation also writes
<op>-cube.csv and .json, run with `--shape cube`. DIR/exit_codes.json holds each run's
exit code and the message it wrote to stderr, and DIR/verify-all.txt the
stdout of `verify all --seed N`. The library is imported from this
checkout's src/, so

    for s in 0 1 2; do
        python3 OLD/tools/dump_artifacts.py --seed $s --out /tmp/old/$s
        python3 NEW/tools/dump_artifacts.py --seed $s --out /tmp/new/$s
    done
    diff -r /tmp/old /tmp/new

prints nothing when the two checkouts give the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from delone_lab.cli import main as cli_main  # noqa: E402


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err, crash = io.StringIO(), io.StringIO(), None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the next operations still run
            code, crash = "%s: %s" % (type(exc).__name__, exc), exc
    if crash is not None:  # the record holds no paths, the traceback does
        traceback.print_exception(crash)
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args(argv)
    codes = {}
    for name in ("chains-1d", "lattices-nd"):
        os.makedirs(os.path.join(args.out, name), exist_ok=True)
        for op in workloads.WORKLOADS[name](args.seed):
            runs = [(op.name, [])]
            if op.command == "atlas":
                runs.append((op.name + "-cube", ["--shape", "cube"]))
            for label, extra in runs:
                for fmt in ("csv", "json"):
                    path = os.path.join(args.out, name, "%s.%s" % (label, fmt))
                    code, _, err = run(op.argv(args.seed) + extra + ["--format", fmt, "--out", path])
                    codes["%s/%s.%s" % (name, label, fmt)] = [code, err]
    code, out, err = run(["verify", "all", "--seed", str(args.seed)])
    codes["verify-all"] = [code, err]
    with open(os.path.join(args.out, "verify-all.txt"), "w") as fh:
        fh.write(out)
    with open(os.path.join(args.out, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
