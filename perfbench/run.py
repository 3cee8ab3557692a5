"""Benchmark of the delone-lab CLI: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload chains-1d --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src. A run measures set-up, then repeats whole passes over the
workload's operations for --seconds, checks every artifact against
references computed apart from the program, and prints one JSON object as
its last line. With --trace 1 it alternates untraced and traced passes and
reports per-layer metrics instead of end-to-end ones; the metrics' names
and units are read from BENCHMARK.json. Run records and spans go to
perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 10  # fresh interpreters timed in a --trace 0 run, spread over it
MIN_PASSES = 3  # untraced passes in a --trace 0 run
MIN_TRACED_PAIRS = 1  # untraced/traced pass pairs in a --trace 1 run
CHILD_TIMEOUT = 150
FRESH_SLICES = 4  # kernel slices before and after each fresh process

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    _DECLARED = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list) -> tuple:
    """Run a fresh interpreter to its end: (wall time, exit code, stdout, stderr).

    The wait blocks in waitpid instead of polling, so wall times are not
    rounded up to a polling step; a timer kills a child that hangs.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
    return time.perf_counter() - t0, proc.returncode, out, err


def setup_sample(kernel) -> tuple:
    """Fresh interpreter to ready: package import plus the scipy.spatial
    import that the first geometric command triggers. Returns the wall
    time and the slowness factor measured around it."""
    before = kernel.factor(FRESH_SLICES)
    wall, code, _, err = run_child([sys.executable, "-c", "import delone_lab.cli, scipy.spatial"])
    if code != 0:
        raise RuntimeError("set-up failed: " + err.decode()[-300:])
    return wall, (before + kernel.factor(FRESH_SLICES)) / 2.0


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# passes: each run_pass(k, traced) returns the records of its operations
# (wall time, exit code, artifact digest), its slowness factor, and its spans


class InProcess:
    """chains-1d and lattices-nd: CLI calls through delone_lab.cli.main."""

    def __init__(self, ops, seed, scratch, kernel):
        from delone_lab.cli import main

        self.cli_main, self.ops, self.seed, self.scratch = main, ops, seed, scratch
        self.kernel = kernel

    def run_pass(self, k: int, traced: bool) -> tuple:
        tracer = spans.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            rec, slices = {}, []
            for op in self.ops:
                gc.collect()  # every command starts from a clean heap, as in a fresh process
                slices.append(self.kernel.slice())
                rec[op.name] = self._run_op(op, k, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        return rec, statistics.fmean(slices) / speed.NOMINAL_SLICE_S, tracer.spans if tracer else []

    def _run_op(self, op, k: int, tracer) -> dict:
        path = os.path.join(self.scratch, "%s.%d.csv" % (op.name, k))
        argv = op.argv(self.seed) + ["--out", path]
        sink = io.StringIO()
        root = tracer.open("cli", command=op.command, op=op.name, pass_=k) if tracer else None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = self.cli_main(argv)
            except SystemExit as exc:
                code = exc.code
            dt = time.perf_counter() - t0
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            if k > 0:  # the first pass's artifacts are kept for the checks
                os.remove(path)
        if root is not None:
            tracer.close(root)
            root["attrs"].update(ok=code == 0, bytes=len(data))
        return {"s": dt, "code": code, "sha": sha(data), "path": path, "msg": sink.getvalue()[-300:]}


class FreshProcess:
    """verify-all: `delone-lab verify all` in a new interpreter per pass,
    started through child.py, which runs a kernel slice before each verify
    suite; FRESH_SLICES more run before and after the process."""

    def __init__(self, seed, scratch, kernel):
        self.seed, self.scratch, self.kernel = seed, scratch, kernel
        self.outputs = []  # (exit code, stdout) per pass

    def run_pass(self, k: int, traced: bool) -> tuple:
        record_path = os.path.join(self.scratch, "child.%d.json" % k)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), record_path, "1" if traced else "0",
               "verify", "all", "--seed", str(self.seed)]
        before = [self.kernel.slice() for _ in range(FRESH_SLICES)]
        wall, code, out, err = run_child(cmd)
        after = [self.kernel.slice() for _ in range(FRESH_SLICES)]
        child = {"slices": [], "slice_s": 0.0, "spans": []}  # if the child died early
        if os.path.exists(record_path):
            with open(record_path) as fh:
                child = json.load(fh)
        self.outputs.append((code, out.decode()))
        for s in child.get("spans", []):
            if s["parent"] is None:
                s["attrs"]["pass_"] = k
        factor = statistics.fmean(before + child["slices"] + after) / speed.NOMINAL_SLICE_S
        rec = {"verify-all": {"s": wall - child["slice_s"], "code": code, "sha": sha(out), "msg": err.decode()[-300:]}}
        return rec, factor, child.get("spans", [])


def run_passes(runner, kernel, seconds: float, trace: bool) -> tuple:
    """Whole passes for about `seconds`; with --trace 0 also SETUP_SAMPLES
    set-up samples, spread between the passes so that they see the same
    drift of the machine's speed. Returns (records, factors, traced flags,
    spans, set-up samples)."""
    passes, factors, kinds, span_list, setup = [], [], [], [], []
    want_setup = 0 if trace else SETUP_SAMPLES
    setup_cost = 0.0  # wall time of the set-up samples taken so far
    round_size = 2 if trace else 1  # --trace 1 adds untraced/traced pairs
    min_passes = 2 * MIN_TRACED_PAIRS if trace else MIN_PASSES
    t_start = round_start = time.perf_counter()
    last_round = 0.0
    while True:
        if len(passes) % round_size == 0:
            now = time.perf_counter()
            if passes:
                last_round = now - round_start
            # set-up samples keep pace with the clock
            due = min(want_setup, want_setup * (now - t_start) / seconds + 1)
            while len(setup) < due:
                setup.append(setup_sample(kernel))
            now2 = time.perf_counter()
            setup_cost += now2 - now
            setup_left = (want_setup - len(setup)) * setup_cost / max(len(setup), 1)
            # stop before a round that, as long as the last one, would end past `seconds`
            if len(passes) >= min_passes and now2 + last_round + setup_left > t_start + seconds:
                break
            round_start = now2
        traced = trace and len(passes) % 2 == 1
        rec, factor, chunk = runner.run_pass(len(passes), traced)
        base = len(span_list)  # span ids are unique within a pass; make them unique in the run
        span_list += [dict(s, id=s["id"] + base, parent=None if s["parent"] is None else s["parent"] + base)
                      for s in chunk]
        passes.append(rec)
        factors.append(factor)
        kinds.append(traced)
    while len(setup) < want_setup:
        setup.append(setup_sample(kernel))
    return passes, factors, kinds, span_list, setup


def outcome(passes: list, expect_fail: set) -> tuple:
    """(attempted, failed, problems) over every operation of every pass."""
    attempted = failed = 0
    problems = []
    for p in passes:
        for name, r in p.items():
            attempted += 1
            if r["code"] != 0:
                failed += 1
                if name not in expect_fail:
                    problems.append("%s exited %s: %s" % (name, r["code"], r["msg"].strip()))
    for name in passes[0]:
        if name not in expect_fail and len({p[name]["sha"] for p in passes}) != 1:
            problems.append("%s: artifact differs between passes" % name)
    return attempted, failed, problems


def check_artifacts(runner, ops, first_pass: dict, seed: int) -> dict:
    """Checks against references, outside every timed region."""
    if not ops:
        ok, detail, fp = checks.check_verify_outputs(runner.outputs)
        return {"verify-all": {"ok": ok, "detail": detail, "fingerprint": fp}}
    results = {}
    for op in ops:
        if first_pass[op.name]["code"] == 0:
            ok, detail, fp = checks.check_op(op, first_pass[op.name]["path"], seed)
            results[op.name] = {"ok": ok, "detail": detail, "fingerprint": fp}
    return results


def per_layer(span_list: list, factors: list) -> dict:
    """Median over traced passes of each per-layer metric, at the reference speed."""
    by_pass, pass_of = {}, {}
    for s in span_list:
        k = s["attrs"]["pass_"] if s["parent"] is None else pass_of[s["parent"]]
        pass_of[s["id"]] = k
        by_pass.setdefault(k, []).append(s)
    per_pass = []
    for k, chunk in sorted(by_pass.items()):
        scale = {"s": 1.0 / factors[k], "1/s": factors[k]}
        per_pass.append({n: v * scale.get(PER_LAYER[n], 1.0) for n, v in spans.derive(chunk).items()})
    return {n: statistics.median(m[n] for m in per_pass) for n in per_pass[0]}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(_DECLARED["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "delone_lab", "__init__.py")):
        print("no delone_lab sources under %s; run from the repository root" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    scratch = os.path.join(OUT, tag)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)

    import numpy
    import scipy
    import scipy.spatial  # noqa: F401  (the lazy import the first command pays)

    kernel = speed.Kernel()
    if args.workload == "verify-all":
        ops, runner = [], FreshProcess(args.seed, scratch, kernel)
        per_command = {"verify": ["verify-all"]}
    else:
        ops = workloads.WORKLOADS[args.workload](args.seed)
        runner = InProcess(ops, args.seed, scratch, kernel)
        per_command = {}
        for op in ops:
            if not op.expect_fail:
                per_command.setdefault(op.command, []).append(op.name)
    expect_fail = {op.name for op in ops if op.expect_fail}

    t_start = time.perf_counter()
    passes, factors, kinds, span_list, setup = run_passes(runner, kernel, args.seconds, bool(args.trace))
    measure_s = time.perf_counter() - t_start
    usage = resource.RUSAGE_CHILDREN if args.workload == "verify-all" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    attempted, failed, problems = outcome(passes, expect_fail)
    results = check_artifacts(runner, ops, passes[0], args.seed)
    problems += ["%s: %s" % (n, r["detail"]) for n, r in results.items() if not r["ok"]]
    shutil.rmtree(scratch, ignore_errors=True)

    # times at the reference speed: wall time over the slowness factor. The
    # slices around one set-up sample hardly track it, so every sample is
    # scaled by the median factor of all of them, spread over the run.
    setup_factor = statistics.median(f for _, f in setup) if setup else None

    def pass_time(p, f):
        return sum(r["s"] for name, r in p.items() if name not in expect_fail) / f

    untraced = [(p, f) for p, f, t in zip(passes, factors, kinds) if not t]
    traced = [(p, f) for p, f, t in zip(passes, factors, kinds) if t]
    pass_s = [pass_time(p, f) for p, f in untraced]
    setup_s = [t / setup_factor for t, _ in setup]
    command_s = {c: [sum(p[n]["s"] for n in members) / f for p, f in untraced]
                 for c, members in per_command.items()}

    if args.trace:
        values = per_layer(span_list, factors)
        values["trace.overhead_s"] = statistics.median(pass_time(p, f) for p, f in traced) - statistics.median(pass_s)
        metrics = {n: {"value": values[n], "unit": unit} for n, unit in PER_LAYER.items()}
        with open(os.path.join(OUT, tag + "-spans.jsonl"), "w") as fh:
            for s in span_list:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
    else:
        values = {"setup_s": statistics.median(setup_s), "pass_s": statistics.median(pass_s), "peak_rss_mb": peak_rss_mb}
        metrics = {n: {"value": values[n], "unit": unit} for n, unit in END_TO_END.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured_s": measure_s,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "DELONE_LAB_THREADS": os.environ.get("DELONE_LAB_THREADS"),
            "platform": platform.platform(),
        },
        "operations": [op.describe() for op in ops] or [{"op": "verify-all", "argv": ["verify", "all", "--seed", str(args.seed)]}],
        "setup_wall_s": [t for t, _ in setup],
        "setup_factor": [f for _, f in setup],
        "setup_factor_median": setup_factor,
        "setup_s": setup_s,
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "pass_factor": [f for _, f in untraced],
        "pass_wall_s": [pass_time(p, 1.0) for p, _ in untraced],
        "pass_s": pass_s,
        "command_s": command_s,
        "op_wall_s": {n: [p[n]["s"] for p, _ in untraced] for n in passes[0]},
        "fingerprint": {n: r["fingerprint"] for n, r in results.items()},
        "checks": {n: r["detail"] for n, r in results.items()},
        "problems": problems,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("%s seed %d: %d untraced + %d traced passes in %.1f s" % (
        args.workload, args.seed, len(untraced), len(traced), measure_s))
    for c, vals in command_s.items():
        print("  %-13s median %.4f s over %d passes" % (c + "_s", statistics.median(vals), len(vals)))
    for p in problems:
        print("  PROBLEM " + p)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
