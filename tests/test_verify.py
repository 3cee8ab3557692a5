"""Verify suites: each one builds only the constructions its checks read."""

import delone_lab.verify as verify_mod
from delone_lab.verify import repetitivity_sweep, run_suite


def test_one_label_sweep_equals_its_rows_of_the_full_sweep():
    full = [row for row in repetitivity_sweep() if row.generator == "fibonacci"]
    alone = repetitivity_sweep(["fibonacci"])
    assert len(alone) == 4
    assert alone == full  # dataclass equality: field by field


def test_fibonacci_suite_builds_no_other_sweep_construction(monkeypatch):
    def broken():
        raise RuntimeError("built a construction another suite owns")

    for label, entry in list(verify_mod.SWEEP_PLAN.items()):
        if label != "fibonacci":
            monkeypatch.setitem(verify_mod.SWEEP_PLAN, label, (broken,) + entry[1:])
    results = run_suite("fibonacci")
    assert {"bracket-sweep", "cubical-identity"} <= {r.name for r in results}
    assert all(r.passed for r in results), [r for r in results if not r.passed]
