"""Verify suites: each one builds only the constructions its checks read."""

import numpy as np
import pytest

import delone_lab.verify as verify_mod
from delone_lab.contfrac import recurrence_formula
from delone_lab.verify import factor_counts, repetitivity_sweep, run_suite, sturmian_alphas, word_complexity


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


def tuple_set_counts(word, k, starts):
    """Distinct length-k factors starting before starts, and in all of the
    word, as sets of tuples."""
    first = {tuple(word[i : i + k]) for i in range(starts)}
    both = {tuple(word[i : i + k]) for i in range(len(word) - k + 1)}
    return len(first), len(both)


@pytest.mark.parametrize("label", [label for label, _ in sturmian_alphas()])
def test_word_complexity_equals_tuple_sets(label):
    cf = dict(sturmian_alphas())[label]
    for k in range(1, 31):
        prefix = max(64, 2 * (recurrence_formula(cf, k) + k))
        first, both = tuple_set_counts(cf.beatty_word(1, 2 * prefix), k, prefix - k + 1)
        assert word_complexity(cf, k) == (both, first == both)


def test_factor_counts_on_three_symbols_equal_tuple_sets():
    # the tribonacci word and a random word: a key word holds 31 3-ary
    # symbols (2 bits each), so k = 31, 32 and 62, 63 cross key words
    tribonacci = "a"
    while len(tribonacci) < 400:
        tribonacci = "".join({"a": "ab", "b": "ac", "c": "a"}[c] for c in tribonacci)
    noise = np.random.default_rng(3).integers(0, 3, 300).tolist()
    for word in (list(tribonacci[:400]), noise * 2):
        for k in list(range(1, 36)) + [61, 62, 63, 64]:
            for starts in (1, 50, len(word) - k + 1):
                assert factor_counts(word, k, starts) == tuple_set_counts(word, k, starts)
