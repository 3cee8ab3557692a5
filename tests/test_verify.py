"""Verify suites: each one builds only the constructions its checks read."""

import numpy as np
import pytest

import delone_lab.verify as verify_mod
from delone_lab.contfrac import recurrence_formula
from delone_lab.repetitivity import factor_ranks
from delone_lab.verify import repetitivity_sweep, run_suite, sturmian_alphas, word_complexities


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
    got = word_complexities(cf, range(1, 31))
    assert sorted(got) == list(range(1, 31))
    for k in range(1, 31):
        prefix = max(64, 2 * (recurrence_formula(cf, k) + k))
        first, both = tuple_set_counts(cf.beatty_word(1, 2 * prefix), k, prefix - k + 1)
        assert got[k] == (both, first == both)


def test_factor_counts_on_three_symbols_equal_tuple_sets():
    # the tribonacci word and a random word; ranks double at powers of two,
    # so k = 31, 32, 33 and 63, 64, 65 sit either side of a doubling
    tribonacci = "a"
    while len(tribonacci) < 400:
        tribonacci = "".join({"a": "ab", "b": "ac", "c": "a"}[c] for c in tribonacci)
    noise = np.random.default_rng(3).integers(0, 3, 300).tolist()
    ks = list(range(1, 36)) + [61, 62, 63, 64, 65]
    for word in (list(tribonacci[:400]), noise * 2):
        for k, ranks in factor_ranks(word, ks):
            for starts in (1, 50, len(word) - k + 1):
                distinct = len(set(ranks[:starts].tolist())), len(set(ranks.tolist()))
                assert distinct == tuple_set_counts(word, k, starts)


class FixedWord:
    """A stand-in for a ContinuedFraction: its Beatty word from 1 is `word`,
    and it must be asked for whole."""

    def __init__(self, word):
        self.word = word

    def beatty_word(self, start, count):
        assert (start, count) == (1, len(self.word))
        return self.word


def test_word_complexities_count_each_k_on_its_own_two_prefixes(monkeypatch):
    # k = 1 has prefix 64: it counts starts 0..63, then 0..127; k = 2 has
    # prefix 2 * (100 + 2) = 204, so the one word is 408 symbols long
    monkeypatch.setattr(verify_mod, "recurrence_formula", lambda cf, k: 100 if k == 2 else 0)
    for at, k1 in [(63, (2, True)), (64, (2, False)), (127, (2, False)), (128, (1, True))]:
        word = FixedWord([0] * at + [1] + [0] * (407 - at))
        assert word_complexities(word, [2, 1])[1] == k1


def test_recurrence_scan_reads_the_starts_of_its_own_prefix(monkeypatch):
    # l = 1 reads word[:50] of a 100-symbol word: its one 1, at 49, occurs
    # once there, while word[:49] and word[:51] give gaps of 1
    monkeypatch.setattr(verify_mod, "recurrence_formula", lambda cf, ell: 0)
    word = FixedWord([0] * 49 + [1, 1] + [0] * 49)
    assert verify_mod.recurrence_vs_oracle(word, [1, 2])[0] == "l=1 formula=0 scan=inf"
