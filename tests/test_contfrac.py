"""Continued fractions: exact floors, convergents, recurrence values.

Oracles: integer-sqrt floor formulas for the two classic quadratic
irrationals, checked before anything that depends on floor_multiple.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delone_lab.contfrac as contfrac_mod
from delone_lab.contfrac import (
    ContinuedFraction,
    construct_alpha_for_growth,
    is_badly_approximable,
    recurrence_formula,
)
from delone_lab.errors import InvalidArgument, NeedsMoreTerms, ResourceLimit


def floor_golden(k: int) -> int:
    """Exact floor(k * (sqrt5 - 1) / 2) via integer square roots."""
    return (math.isqrt(5 * k * k) - k) // 2


def floor_sqrt2_minus_1(k: int) -> int:
    """Exact floor(k * (sqrt2 - 1))."""
    return math.isqrt(2 * k * k) - k


def silver() -> ContinuedFraction:
    return ContinuedFraction([2], extend=lambda k: 2)


def stair() -> ContinuedFraction:
    return ContinuedFraction([1, 2, 3, 4, 5], extend=lambda k: (k - 1) % 5 + 1)


ALPHAS = {
    "golden": ContinuedFraction.golden,
    "silver": silver,
    "stair": stair,
    "rational": lambda: ContinuedFraction.parse("cf:1,2,3,4,5,6,7,8,9,10"),
}
INT64_MAX = 2**63 - 1
# small, window-sized, and at the int64 edge, where products of j with a
# convergent overflow and the kernel must fall back to Python ints
INT64_ENTRIES = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(10**6), 10**6),
    st.integers(-INT64_MAX - 1, INT64_MAX),
    st.sampled_from([0, 1, -1, INT64_MAX, -INT64_MAX, -INT64_MAX - 1, 2**62, -(2**62), 2**40]),
)


class TestExactFloors:
    def test_golden_floors_match_isqrt_oracle(self):
        g = ContinuedFraction.golden()
        for j in range(1, 501):
            assert g.floor_multiple(j) == floor_golden(j)

    def test_sqrt2_floors_match_isqrt_oracle(self):
        s = silver()
        for j in range(1, 501):
            assert s.floor_multiple(j) == floor_sqrt2_minus_1(j)

    def test_rational_floors_are_integer_division(self):
        cf = ContinuedFraction.from_fraction(Fraction(3, 7))
        for j in range(1, 200):
            assert cf.floor_multiple(j) == (3 * j) // 7

    def test_floor_zero_and_negative(self):
        g = ContinuedFraction.golden()
        assert g.floor_multiple(0) == 0
        # floor(-x) = -floor(x) - 1 for irrational x > 0
        for j in range(1, 50):
            assert g.floor_multiple(-j) == -floor_golden(j) - 1


class TestVectorFloors:
    @given(st.sampled_from(sorted(ALPHAS)), st.lists(INT64_ENTRIES, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_floor(self, name, js):
        cf = ALPHAS[name]()
        got = cf.floor_multiples(np.array(js, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [cf.floor_multiple(j) for j in js]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_floor_at_level_edges(self, data):
        """Entries where floor_multiples changes its start level or its
        arithmetic, mixed in one array: multiples of a denominator q_k (j
        alpha next to a bracket end), q_k + q_{k+1} (where an entry's start
        level moves), and INT64_MAX // max(p, q) (where products stop
        fitting), each give or take a little, beside small and far entries."""
        name = data.draw(st.sampled_from(sorted(ALPHAS)))
        cf = ALPHAS[name]()
        edges = []
        for k in range(1, 60):
            try:
                (p1, q1), (p2, q2) = cf.convergent(k), cf.convergent(k + 1)
            except NeedsMoreTerms:
                break
            edges += [q1, 2 * q1, 3 * q2, q1 + q2, INT64_MAX // max(p1, q1, p2, q2)]
        edges = [e for e in edges if 0 < e <= INT64_MAX - 2]
        near = st.builds(
            lambda e, d, sign: sign * min(e + d, INT64_MAX),
            st.sampled_from(edges),
            st.integers(-2, 2),
            st.sampled_from([1, -1]),
        )
        far = st.integers(299_000, 305_000) | st.integers(-305_000, -299_000)
        js = data.draw(st.lists(near | far | st.integers(-50, 50), min_size=1, max_size=40))
        got = cf.floor_multiples(np.array(js, dtype=np.int64))
        assert got.tolist() == [cf.floor_multiple(j) for j in js]

    def test_golden_window_far_from_origin(self):
        g = ContinuedFraction.golden()
        js = np.arange(-300_500, -299_000)
        js = np.concatenate([js, -js, np.arange(-500, 500)])
        want = [floor_golden(j) if j >= 0 else -floor_golden(-j) - 1 for j in js.tolist()]
        assert g.floor_multiples(js).tolist() == want

    def test_python_fallback_only_near_the_int64_edge(self, monkeypatch):
        g = ContinuedFraction.golden()
        calls = []
        scalar = ContinuedFraction.floor_multiple
        monkeypatch.setattr(
            ContinuedFraction, "floor_multiple", lambda self, j: calls.append(j) or scalar(self, j)
        )
        js = np.array([2**62, 5, -(2**62), 0, 10**12, -INT64_MAX - 1], dtype=np.int64)
        got = g.floor_multiples(js)
        assert sorted(calls) == sorted([2**62, -(2**62), -INT64_MAX - 1])
        assert got[1] == 3 and got[3] == 0 and got[4] == floor_golden(10**12)
        assert got[0] == floor_golden(2**62)

    @given(
        st.sampled_from(["golden", "rational"]),
        st.lists(st.lists(INT64_ENTRIES, min_size=1, max_size=6), min_size=2, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_instance_across_calls(self, name, calls):
        """Calls of rising and falling magnitudes on one instance, whose
        level table carries over from call to call."""
        cf = ALPHAS[name]()
        for js in calls:
            got = cf.floor_multiples(np.array(js, dtype=np.int64))
            assert got.tolist() == [cf.floor_multiple(j) for j in js]

    @pytest.mark.parametrize("name", ["golden", "rational"])
    def test_table_grows_only_for_a_larger_entry(self, name):
        cf = ALPHAS[name]()
        sequence = [5, 300_000, 2, 10**12, 7, 2**62, 1, INT64_MAX, 40, -INT64_MAX - 1, 10**15, 3]
        top = 0
        for j in sequence:
            js = np.array([j, -(j // 7), j // 3, 0], dtype=np.int64)
            table = cf._floor_levels(top)
            assert cf.floor_multiples(js).tolist() == [cf.floor_multiple(v) for v in js.tolist()]
            if abs(j) <= top:  # the table of a larger magnitude serves it as it is
                assert cf._floor_levels(abs(j)) is table
            top = max(top, abs(j))
        if name == "rational":
            assert cf._floor_levels(0)[1].size == 1  # one level, its exact value

    def test_a_larger_entry_extends_the_table(self, monkeypatch):
        g = ContinuedFraction.golden()
        assert g.floor_multiples([5]).tolist() == [3]
        js = [10**8, -(10**7), 300_001]
        want = [g.floor_multiple(j) for j in js]

        def no_fallback(self, j):
            raise AssertionError("entry %d left the vector path" % j)

        # far from the int64 edge, deeper levels are added, not left to Python ints
        monkeypatch.setattr(ContinuedFraction, "floor_multiple", no_fallback)
        assert g.floor_multiples(js).tolist() == want

    def test_empty_and_list_input(self):
        g = ContinuedFraction.golden()
        assert g.floor_multiples(np.zeros(0, dtype=np.int64)).shape == (0,)
        assert g.floor_multiples([0, 1, 2, 3, -1]).tolist() == [0, 0, 1, 1, -1]


class TestWords:
    def test_golden_word_frozen(self):
        word = ContinuedFraction.golden().beatty_word(1, 10)
        assert word == [1, 0, 1, 1, 0, 1, 0, 1, 1, 0]

    def test_word_equals_floor_differences(self):
        g = ContinuedFraction.golden()
        word = g.beatty_word(1, 300)
        assert word == [floor_golden(k + 1) - floor_golden(k) for k in range(1, 301)]

    def test_word_partial_sums(self):
        g = ContinuedFraction.golden()
        word = g.beatty_word(1, 200)
        total = 0
        for k, b in enumerate(word, start=1):
            total += b
            assert total == floor_golden(k + 1) - floor_golden(1)

    def test_word_symbols_binary(self):
        for cf in (ContinuedFraction.golden(), silver()):
            assert set(cf.beatty_word(1, 400)) <= {0, 1}

    def test_word_from_negative_start(self):
        g = ContinuedFraction.golden()
        word = g.beatty_word(-20, 40)
        assert len(word) == 40
        assert word[20:25] == g.beatty_word(0, 5)


class TestConvergents:
    def test_golden_convergents_frozen(self):
        g = ContinuedFraction.golden()
        assert [g.convergent(k) for k in range(6)] == [
            (0, 1),
            (1, 1),
            (1, 2),
            (2, 3),
            (3, 5),
            (5, 8),
        ]

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12))
    def test_determinant_identity(self, quotients):
        cf = ContinuedFraction(quotients)
        for k in range(1, len(quotients) + 1):
            p_k, q_k = cf.convergent(k)
            p_prev, q_prev = cf.convergent(k - 1)
            assert p_k * q_prev - p_prev * q_k == (-1) ** (k - 1)

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=12))
    def test_value_between_consecutive_convergents(self, quotients):
        cf = ContinuedFraction(quotients)
        value = cf.value()
        last = len(quotients)
        for k in range(1, last):
            lo, hi = cf.value_bounds(k)
            assert lo <= value <= hi

    def test_rational_value(self):
        cf = ContinuedFraction.from_fraction(Fraction(7, 16))
        assert cf.value() == Fraction(7, 16)

    def test_from_fraction_round_trip(self):
        for num in range(1, 30):
            for den in range(num + 1, 40):
                f = Fraction(num, den)
                assert ContinuedFraction.from_fraction(f).value() == f

    @pytest.mark.parametrize(
        "make, approx",
        [
            (ContinuedFraction.golden, (math.sqrt(5) - 1) / 2),
            (silver, math.sqrt(2) - 1),
            (lambda: ContinuedFraction([1], extend=lambda k: 2), math.sqrt(0.5)),
            (lambda: ContinuedFraction([1], extend=lambda k: 2 - k % 2), math.sqrt(3) - 1),
            # e - 2 = [0; 1, 2, 1, 1, 4, 1, 1, 6, ...]
            (lambda: ContinuedFraction([1], extend=lambda k: 2 * (k + 1) // 3 if k % 3 == 2 else 1), math.e - 2),
            (lambda: ContinuedFraction.from_fraction(Fraction(7, 16)), 7 / 16),
        ],
    )
    def test_value_float_is_the_float_of_the_fraction_bounds(self, make, approx):
        cf, ref = make(), make()
        if ref.is_rational:
            want = float(ref.value())
        else:
            k = 2
            while float((bounds := ref.value_bounds(k))[0]) != float(bounds[1]):
                k += 1
            want = float(bounds[0])
        assert cf.value_float() == want
        assert abs(want - approx) <= 2e-16

    def test_quotient_validation(self):
        with pytest.raises(InvalidArgument):
            ContinuedFraction([1, 0, 2])
        with pytest.raises(InvalidArgument):
            ContinuedFraction([])

    def test_needs_more_terms(self):
        cf = ContinuedFraction([1, 2, 3])
        with pytest.raises(NeedsMoreTerms):
            cf.quotient(4)


class TestParse:
    def test_golden_name(self):
        g = ContinuedFraction.parse("golden")
        assert [g.quotient(k) for k in range(1, 6)] == [1, 1, 1, 1, 1]

    def test_cf_prefix(self):
        cf = ContinuedFraction.parse("cf:2,2,2")
        assert cf.value() == Fraction(5, 12)

    def test_decimal_text(self):
        assert ContinuedFraction.parse("0.5").value() == Fraction(1, 2)

    def test_number(self):
        assert ContinuedFraction.parse(0.25).value() == Fraction(1, 4)

    def test_passthrough(self):
        g = ContinuedFraction.golden()
        assert ContinuedFraction.parse(g) is g


class TestRecurrenceFormula:
    def test_golden_frozen(self):
        g = ContinuedFraction.golden()
        assert recurrence_formula(g, 1) == 3
        assert recurrence_formula(g, 2) == 5
        assert recurrence_formula(g, 3) == 8

    def test_silver_frozen(self):
        # q: 1, 2, 5, 12, 29 -> for length 5 the bracket is q_2 = 5, giving 5 + 12
        assert recurrence_formula(silver(), 5) == 17

    def test_monotone_in_length(self):
        g = ContinuedFraction.golden()
        values = [recurrence_formula(g, ell) for ell in range(1, 40)]
        assert values == sorted(values)

    def test_rational_rejected(self):
        with pytest.raises(NeedsMoreTerms):
            recurrence_formula(ContinuedFraction([1, 2, 3]), 2)

    def test_bad_length(self):
        with pytest.raises(InvalidArgument):
            recurrence_formula(ContinuedFraction.golden(), 0)


class TestBoundedQuotients:
    def test_golden(self):
        rep = is_badly_approximable(ContinuedFraction.golden(), 30)
        assert rep.bounded and rep.max_quotient == 1
        assert "30" in rep.caveat

    def test_explicit_bound(self):
        wild = ContinuedFraction([1, 30], extend=lambda k: 1)
        rep = is_badly_approximable(wild, 10, bound=5)
        assert not rep.bounded and rep.max_quotient == 30

    def test_finite_prefix_truncates(self):
        rep = is_badly_approximable(ContinuedFraction([1, 2, 3]), 10)
        assert rep.examined_terms == 3 and rep.max_quotient == 3


class TestGrowthConstruction:
    def test_strictly_beats_quadratic(self):
        built = construct_alpha_for_growth(lambda q: float(q * q), 8)
        assert len(built.table) == 8
        for _, q_k, rec, g_val in built.table:
            assert rec > g_val
        assert all(a >= 1 for a in built.quotients)

    def test_strictly_beats_exponential(self):
        # 2^q drives the denominators past float range after three terms
        built = construct_alpha_for_growth(lambda q: 2.0**q, 3)
        for _, _, rec, g_val in built.table:
            assert rec > g_val

    def test_bit_budget(self, monkeypatch):
        # quadratic growth squares the denominator each step, so its bit
        # length crosses any fixed cap after a few terms
        monkeypatch.setattr(contfrac_mod, "GROWTH_MAX_BITS", 500)
        with pytest.raises(ResourceLimit, match="exceeded 500 bits"):
            construct_alpha_for_growth(lambda q: float(q * q), 12)

    def test_float_overflow_mapped_to_budget(self):
        with pytest.raises(ResourceLimit):
            construct_alpha_for_growth(lambda q: 4.0**q, 60)

    def test_non_finite_growth_target(self):
        with pytest.raises(ResourceLimit):
            construct_alpha_for_growth(lambda q: float("inf"), 3)
