"""The tools that compare two checkouts run end to end: the artifact dump
and the memory-peak table of a workload."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def workload_ops(name, seed=0):
    """The operation names of one benchmark workload (perfbench/workloads.py)."""
    spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # its dataclasses look their module up by name
    return [op.name for op in module.WORKLOADS[name](seed)]


def run_tool(script, *args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), *args],
        capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_dump_artifacts_writes_every_operation(tmp_path):
    run_tool("dump_artifacts.py", "--seed", "0", "--out", str(tmp_path))
    codes = json.loads((tmp_path / "exit_codes.json").read_text())
    want = {"verify-all"}
    for workload in ("chains-1d", "lattices-nd"):
        for name in workload_ops(workload):
            for fmt in ("csv", "json"):
                want.add("%s/%s.%s" % (workload, name, fmt))
                assert (tmp_path / workload / ("%s.%s" % (name, fmt))).stat().st_size > 0
    assert set(codes) == want
    assert {key: code for key, (code, _) in codes.items() if code != 0} == {}
    assert (tmp_path / "verify-all.txt").read_text().strip()


def test_suite_peaks_has_one_row_per_operation_and_pass():
    out = run_tool("suite_peaks.py", "--workload", "chains-1d", "--in-process")
    header, imports, *rows = out.splitlines()
    assert header.split() == ["operation", "rss_mb", "wall_s", "exit"]
    assert imports.split()[0] == "(imports)"
    ops = workload_ops("chains-1d")
    labels = ["%s (pass %d)" % (name, p) for p in (1, 2) for name in ops]
    assert [row.rsplit(None, 3)[0] for row in rows] == labels
    assert all(row.split()[-1] == "0" for row in rows)
    assert all(float(row.rsplit(None, 3)[1]) > 0 for row in rows)
