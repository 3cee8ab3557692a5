"""Construction generators: walks, congruences, hierarchical colorings."""

import inspect
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone_lab.contfrac import ContinuedFraction
from delone_lab.core import Region
from delone_lab.errors import InvalidArgument, WindowTooSmall
from delone_lab.generators import (
    GOLDEN_TAU,
    TwoColorStructure,
    _int_grid,
    build_source,
    gen_beatty,
    gen_cut_project_1d,
    gen_deleted_lines,
    gen_fibonacci,
    gen_integer_lattice,
    gen_product,
    gen_two_color,
    rho_sequence,
)


def isqrt_floor_golden(k: int) -> int:
    return (math.isqrt(5 * k * k) - k) // 2


def signed(floor_nonneg):
    """Extend an exact floor(k alpha), k >= 0, to k < 0 (alpha irrational)."""
    return lambda k: floor_nonneg(k) if k >= 0 else -floor_nonneg(-k) - 1


RATIONAL_CF = "cf:1,2,3,4,5,6,7,8,9,10"
RATIONAL = ContinuedFraction.parse(RATIONAL_CF).value()
# (alpha spec, tau, exact floor(k alpha) computed apart from contfrac)
CHAINS = {
    "fibonacci": ("golden", GOLDEN_TAU, signed(isqrt_floor_golden)),
    "golden-silver-tau": ("golden", 1.0 + math.sqrt(2.0), signed(isqrt_floor_golden)),
    "golden-long-gap": ("golden", 7.5, signed(isqrt_floor_golden)),
    "silver": (
        ContinuedFraction([2], extend=lambda k: 2),
        1.3,
        signed(lambda k: math.isqrt(2 * k * k) - k),
    ),
    "rational": (RATIONAL_CF, 1.7, lambda k: k * RATIONAL.numerator // RATIONAL.denominator),
}
# at the origin, 3e5 away on both sides, empty, sub-unit and point-edged
WINDOWS = [
    (-50.0, 50.0),
    (300_000.0, 304_000.0),
    (-304_000.0, -300_000.0),
    (0.2, 0.3),
    (0.9, 1.1),
    (300_000.25, 300_000.75),
    (0.0, 1.0),
    (-7.3, 11.9),
]
_WALKS = {}


def walk_oracle(name, a, b):
    """(u, v) addresses in [a, b] of the chain walked one gap at a time.

    From x_0 = 0 the gap after x_i is tau when floor((i+1) alpha) -
    floor(i alpha) = 1 and 1 otherwise; both directions are walked once to
    305 000 and cached, then cut to the window with the generator's float
    rule a - 1e-9 <= u + tau v <= b + 1e-9.
    """
    _, tau, floor = CHAINS[name]
    if name not in _WALKS:
        addrs = {0: (0, 0)}
        for step in (1, -1):
            u = v = 0
            i = 0
            while abs(u + tau * v) <= 305_000:
                nxt = i + step
                if abs(floor(nxt) - floor(i)):
                    v += step
                else:
                    u += step
                i = nxt
                addrs[i] = (u, v)
        _WALKS[name] = [addrs[i] for i in sorted(addrs)]
    return [[u, v] for u, v in _WALKS[name] if a - 1e-9 <= u + tau * v <= b + 1e-9]


def strip_oracle(a, b):
    """(m, p) addresses in [a, b] of the golden cut-and-project chain.

    Brute force over m with p the one integer in [alpha m, alpha m + 1),
    from exact isqrt floors; p = 0 at m = 0.
    """
    floor = signed(isqrt_floor_golden)
    af = (math.sqrt(5.0) - 1.0) / 2.0
    norm = math.sqrt(1.0 + af * af)
    out = []
    # t = m norm + (p - alpha m) alpha / norm, so m lies near t / norm
    for m in range(math.floor(a / norm) - 10, math.ceil(b / norm) + 10):
        p = 0 if m == 0 else floor(m) + 1
        if a - 1e-9 <= (m + p * af) / norm <= b + 1e-9:
            out.append([m, p])
    return out


class TestIntegerLattice:
    def test_line_count(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-3, 3)]))
        assert len(ps) == 7
        assert sorted(ps.points[:, 0]) == list(range(-3, 4))

    def test_square_count(self):
        ps = gen_integer_lattice(2).materialize(Region.box([(-5, 5)] * 2))
        assert len(ps) == 121

    def test_deletions(self):
        src = gen_integer_lattice(2, deletions=[(0, 0), (1, 1)])
        ps = src.materialize(Region.box([(-5, 5)] * 2))
        assert len(ps) == 119
        as_tuples = {tuple(a) for a in ps.addresses}
        assert (0, 0) not in as_tuples and (1, 1) not in as_tuples

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(min_value=0, max_value=6),
                # holes inside and outside the window, repeats allowed
                st.lists(
                    st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
                    max_size=12,
                ),
                st.booleans(),
            )
        )
    )
    def test_hole_filter_matches_set_membership(self, case):
        n, half, holes, ball = case
        region = Region.ball([0.5] * n, half + 0.3) if ball else Region.centered_box(n, half + 0.5)
        full = gen_integer_lattice(n).materialize(region).addresses
        dels = set(map(tuple, holes))
        expected = np.array([row for row in full.tolist() if tuple(row) not in dels], dtype=np.int64)
        got = gen_integer_lattice(n, deletions=holes).materialize(region).addresses
        assert np.array_equal(got, expected.reshape(-1, n))

    def test_declared_constants(self):
        src = gen_integer_lattice(3)
        assert src.declared_r == 0.5
        assert src.declared_R == pytest.approx(math.sqrt(3) / 2)
        assert gen_integer_lattice(2, deletions=[(0, 0)]).declared_R is None

    def test_ball_window(self):
        ps = gen_integer_lattice(2).materialize(Region.ball([0.0, 0.0], 2.0))
        # |.|^2 <= 4: 13 lattice points
        assert len(ps) == 13


class TestBeatty:
    def test_golden_gap_word(self):
        src = gen_fibonacci()
        ps = src.materialize(Region.box([(-1, 30)]))
        x = np.sort(ps.points[:, 0])
        i0 = int(np.argmin(np.abs(x)))
        gaps = np.diff(x)[i0:]
        word = [1 if g > 1.3 else 0 for g in gaps[:11]]
        # index-0 symbol is floor(alpha) - floor(0) = 0, a unit gap
        assert word == [0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0]
        assert word[1:] == ContinuedFraction.golden().beatty_word(1, 10)

    def test_positions_match_floor_formula(self):
        # the k-th point right of the origin sits at k + floor(k alpha) tau
        src = gen_fibonacci()
        ps = src.materialize(Region.box([(0, 40)]))
        x = np.sort(ps.points[:, 0])
        assert x[0] == pytest.approx(0.0)
        for k in range(1, len(x)):
            want = (k - isqrt_floor_golden(k)) + isqrt_floor_golden(k) * GOLDEN_TAU
            assert x[k] == pytest.approx(want, abs=1e-9)

    def test_addresses_project_exactly(self):
        ps = gen_fibonacci().materialize(Region.box([(-50, 50)]))
        rebuilt = ps.addresses[:, 0] + GOLDEN_TAU * ps.addresses[:, 1]
        assert np.allclose(ps.points[:, 0], rebuilt)

    def test_backward_walk_symmetry(self):
        big = gen_fibonacci().materialize(Region.box([(-40, 40)]))
        left = gen_fibonacci().materialize(Region.box([(-40, 0)]))
        left_addr = {tuple(a) for a in left.addresses}
        big_addr = {tuple(a) for a in big.addresses}
        assert left_addr <= big_addr

    def test_rational_alpha_periodic_gaps(self):
        src = gen_beatty(ContinuedFraction.parse("0.5"), 2.0)
        ps = src.materialize(Region.box([(0, 20)]))
        gaps = np.diff(np.sort(ps.points[:, 0]))
        assert set(np.round(gaps, 9)) == {1.0, 2.0}
        # alternating pattern: no two equal gaps in a row
        assert all(gaps[i] != gaps[i + 1] for i in range(len(gaps) - 1))

    @pytest.mark.parametrize("name", sorted(CHAINS))
    @pytest.mark.parametrize("window", WINDOWS)
    def test_box_and_ball_match_walk(self, name, window):
        alpha, tau, _ = CHAINS[name]
        src = gen_beatty(alpha, tau)
        a, b = window
        c, r = (a + b) / 2, (b - a) / 2
        box = src.materialize(Region.box([window]))
        ball = src.materialize(Region.ball([c], r))
        assert box.addresses.dtype == np.int64
        assert box.addresses.tolist() == walk_oracle(name, a, b)
        assert ball.addresses.tolist() == walk_oracle(name, c - r, c + r)

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_subwindows_are_restrictions(self, name):
        alpha, tau, _ = CHAINS[name]
        src = gen_beatty(alpha, tau)
        big = src.materialize(Region.box([(299_990.0, 300_400.0)]))
        x = big.addresses[:, 0] + tau * big.addresses[:, 1]
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = np.sort(rng.uniform(299_990.0, 300_400.0, size=2))
            sub = src.materialize(Region.box([(a, b)]))
            keep = (a - 1e-9 <= x) & (x <= b + 1e-9)
            assert sub.addresses.tolist() == big.addresses[keep].tolist()

    def test_tau_validation(self):
        with pytest.raises(InvalidArgument):
            gen_beatty(ContinuedFraction.golden(), 1.0)
        with pytest.raises(InvalidArgument):
            gen_beatty(ContinuedFraction.golden(), float("inf"))


class TestCutProject:
    def setup_method(self):
        self.src = gen_cut_project_1d(ContinuedFraction.golden())
        self.alpha = self.src.extras["alpha_float"]
        self.norm = self.src.extras["norm"]

    def test_origin_and_norm(self):
        ps = self.src.materialize(Region.box([(-10, 10)]))
        assert np.any(np.abs(ps.points[:, 0]) < 1e-12)
        assert self.norm == pytest.approx(math.sqrt(1 + self.alpha**2))

    def test_two_gap_values(self):
        ps = self.src.materialize(Region.box([(-40, 40)]))
        gaps = np.diff(np.sort(ps.points[:, 0]))
        short, long_ = 1.0 / self.norm, (1.0 + self.alpha) / self.norm
        for g in gaps:
            assert abs(g - short) < 1e-9 or abs(g - long_) < 1e-9
        assert 1 / math.sqrt(2) < gaps.min() <= gaps.max() < math.sqrt(2)

    def test_word_matches_symbols_away_from_origin(self):
        ps = self.src.materialize(Region.box([(-60, 60)]))
        x = np.sort(ps.points[:, 0])
        gaps = np.diff(x)
        mid = (1.0 + self.alpha / 2.0) / self.norm
        word = [1 if g > mid else 0 for g in gaps]
        i0 = int(np.argmin(np.abs(x)))
        cf = ContinuedFraction.golden()
        tail = word[i0 + 2 : i0 + 30]
        assert tail == cf.beatty_word(2, len(tail))

    def test_selection_rule_addresses(self):
        # address (m, p): p = floor(alpha m) + 1 away from the origin
        ps = self.src.materialize(Region.box([(-20, 20)]))
        cf = ContinuedFraction.golden()
        for m, p in ps.addresses:
            if m == 0:
                assert p == 0
            else:
                assert p == cf.floor_multiple(int(m)) + 1

    @pytest.mark.parametrize("window", WINDOWS)
    def test_box_and_ball_match_strip_oracle(self, window):
        a, b = window
        c, r = (a + b) / 2, (b - a) / 2
        box = self.src.materialize(Region.box([window]))
        ball = self.src.materialize(Region.ball([c], r))
        assert box.addresses.tolist() == strip_oracle(a, b)
        assert ball.addresses.tolist() == strip_oracle(c - r, c + r)

    def test_subwindows_are_restrictions(self):
        big = self.src.materialize(Region.box([(-300_400.0, -299_990.0)]))
        m, p = big.addresses[:, 0], big.addresses[:, 1]
        t = (m + p * self.alpha) / self.norm
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = np.sort(rng.uniform(-300_400.0, -299_990.0, size=2))
            sub = self.src.materialize(Region.box([(a, b)]))
            keep = (a - 1e-9 <= t) & (t <= b + 1e-9)
            assert sub.addresses.tolist() == big.addresses[keep].tolist()

    def test_rational_rejected(self):
        with pytest.raises(InvalidArgument):
            gen_cut_project_1d(ContinuedFraction.parse("0.5"))


class TestOffsetIndependence:
    @pytest.mark.parametrize(
        "src",
        [gen_fibonacci(), gen_beatty("golden", math.sqrt(2.0)), gen_cut_project_1d("golden")],
        ids=["fibonacci", "beatty", "cut_project"],
    )
    def test_far_window_makes_no_scalar_floor_calls(self, src, monkeypatch):
        calls = []
        scalar = ContinuedFraction.floor_multiple
        monkeypatch.setattr(
            ContinuedFraction, "floor_multiple", lambda self, j: calls.append(j) or scalar(self, j)
        )
        near = src.materialize(Region.box([(-2000.0, 2000.0)]))
        near_calls = len(calls)
        far = src.materialize(Region.box([(300_000.0, 304_000.0)]))
        assert len(near) > 2000 and len(far) > 2000
        assert len(calls) - near_calls == near_calls <= 2


class TestProduct:
    def test_box_counts_multiply(self):
        src = gen_product([gen_integer_lattice(1), gen_integer_lattice(1)])
        ps = src.materialize(Region.box([(-5, 5), (-3, 3)]))
        assert len(ps) == 11 * 7
        assert src.dimension == 2 and src.rank == 2

    def test_mixed_ranks(self):
        src = gen_product([gen_integer_lattice(1), gen_fibonacci()])
        assert src.dimension == 2 and src.rank == 3
        ps = src.materialize(Region.box([(-4, 4), (-4, 4)]))
        z_count = 9
        fib_count = len(gen_fibonacci().materialize(Region.box([(-4, 4)])))
        assert len(ps) == z_count * fib_count

    def test_ball_window_filters(self):
        src = gen_product([gen_integer_lattice(1), gen_integer_lattice(1)])
        ps = src.materialize(Region.ball([0.0, 0.0], 2.0))
        assert len(ps) == 13

    def test_needs_two_factors(self):
        with pytest.raises(InvalidArgument):
            gen_product([gen_integer_lattice(2)])


class TestIntGrid:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(1e-3, 5.0)), min_size=1, max_size=4))
    def test_equals_the_meshgrid_form(self, boxes):
        ivs = [(a, a + w) for a, w in boxes]
        axes = [np.arange(math.ceil(a), math.floor(b) + 1, dtype=np.int64) for a, b in ivs]
        want = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        got = _int_grid(ivs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


class TestDeletedLines:
    @settings(max_examples=40, deadline=None)
    @given(
        a=st.sampled_from([[1, 5], [2], [2, 10]]),
        lows=st.lists(st.floats(-30.0, 30.0), min_size=3, max_size=3),
        widths=st.lists(st.floats(0.5, 12.0), min_size=3, max_size=3),
    )
    def test_window_is_the_grid_filtered_by_level(self, a, lows, widths):
        # the plane-by-plane rows equal the whole grid's rows of even level
        src = gen_deleted_lines(a)
        region = Region.box((lo, lo + w) for lo, w in zip(lows, widths))
        grid = _int_grid(region.extent())
        want = grid[(src.extras["levels"](grid) % 2 == 0) & region.contains(grid.astype(float))]
        assert np.array_equal(src.materialize(region).addresses, want)

    def test_materialize_in_bounded_memory(self):
        """a1 = 4 on [-24, 24]^3 (116 326 points): the level mask is built
        over the grid's axes and the kept rows are written one plane at a
        time, so the traced peak stays at most 5.5e6 bytes, some twice the
        2.8e6 of the addresses. The whole grid, its level array and a
        filtered copy peaked at 8.4e6. Bytes are bounded, not time."""
        src = gen_deleted_lines([4])
        tracemalloc.start()
        try:
            ps = src.materialize(Region.box([(-24, 24)] * 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ps) == 116_326
        assert peak <= 5.5e6

    def test_scale_validation(self):
        gen_deleted_lines([4, 20])  # quotient 5: fine
        gen_deleted_lines([4, 36])  # quotient 9: fine
        for bad in ([4, 12], [4, 8], [4, 4], [4, 21], [0], [-4]):
            with pytest.raises(InvalidArgument):
                gen_deleted_lines(bad)

    def test_single_level_membership(self):
        src = gen_deleted_lines([4])
        present = src.extras["present"]
        # x-axis family at level 1: y = 4 mod 16, z = -4 mod 16
        assert not present(np.array([[0, 4, -4]]))[0]
        assert not present(np.array([[7, 4, 12]]))[0]
        # z-axis family fixes x and y instead
        assert not present(np.array([[4, -4, 3]]))[0]
        assert present(np.array([[0, 0, 0]]))[0]
        assert present(np.array([[0, 5, -5]]))[0]

    def test_level_two_returns_points(self):
        src = gen_deleted_lines([1, 5])
        levels = src.extras["levels"](np.array([[0, 5, -5], [0, 1, -1], [0, 0, 0]]))
        assert list(levels) == [2, 1, 0]
        present = src.extras["present"]
        assert present(np.array([[0, 5, -5]]))[0]  # even depth: kept
        assert not present(np.array([[0, 1, -1]]))[0]  # odd depth: removed

    def test_window_matches_congruences(self):
        src = gen_deleted_lines([2])
        ps = src.materialize(Region.box([(-10, 10)] * 3))
        kept = {tuple(a) for a in ps.addresses}
        m = 8
        for x in range(-10, 11):
            for y in range(-10, 11):
                for z in range(-10, 11):
                    on_line = (
                        ((y - 2) % m == 0 and (z + 2) % m == 0)
                        or ((z - 2) % m == 0 and (x + 2) % m == 0)
                        or ((x - 2) % m == 0 and (y + 2) % m == 0)
                    )
                    assert ((x, y, z) in kept) == (not on_line)

    def test_declared_constants(self):
        src = gen_deleted_lines([4])
        assert src.declared_r == 0.5
        assert src.declared_R == pytest.approx(math.sqrt(5) / 2)


ONE_D = TwoColorStructure(1, [16, 32, 64, 128])
TWO_D = TwoColorStructure(2, [256, 1024])


def white_cells_by_cell(structure, lo, hi) -> int:
    """White cells of the box [lo, hi), one cell_is_white verdict per cell."""
    axes = [np.arange(l, max(l, h)) for l, h in zip(lo, hi)]
    cells = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, structure.n)
    return int(np.count_nonzero(structure.cell_is_white(cells)))


@st.composite
def two_color_boxes(draw, structure, width):
    """Boxes inside [-S, S)^n: negative, across 0, tile-aligned, empty or inverted."""
    S = structure.sides[-1]
    lo, hi = [], []
    for _ in range(structure.n):
        side = draw(st.sampled_from(structure.sides[:-1]))
        l = draw(st.one_of(st.integers(-S, S - 1), st.integers(-width, width)))
        if draw(st.booleans()):
            l = side * (l // side)
        h = l + draw(st.integers(-3, width))
        if draw(st.booleans()):
            h = side * (h // side)
        lo.append(l)
        hi.append(min(h, S))
    return lo, hi


class TestTwoColor:
    def test_first_scale_pattern(self):
        src = gen_two_color(1, [16, 32, 64, 128])
        st = src.extras["structure"]
        pattern = "".join(
            "W" if st.cell_is_white(np.array([c])) else "B" for c in range(16)
        )
        assert pattern == "WWWBBWBBBBBBBBBB"

    def test_mirror_fold(self):
        st = gen_two_color(1, [16, 32, 64, 128]).extras["structure"]
        for c in range(40):
            assert st.cell_is_white(np.array([-1 - c])) == st.cell_is_white(
                np.array([c])
            )

    def test_white_counts_frozen(self):
        st = gen_two_color(1, [16, 32, 64, 128]).extras["structure"]
        sides = [16, 512, 32768, 4194304]
        counts = [st.white_count_in_box([0], [s]) for s in sides]
        assert counts == [4, 352, 11008, 2742272]
        for k, (c, s) in enumerate(zip(counts, sides), start=1):
            assert Fraction(c, s) == st.rho(k)

    def test_rho_sequence_dual_route(self):
        recursion, closed = rho_sequence(1, [16, 32, 64, 128])
        assert recursion == closed
        assert closed[0] == 1
        assert closed[1:] == [
            Fraction(1, 4),
            Fraction(11, 16),
            Fraction(43, 128),
            Fraction(1339, 2048),
        ]

    def test_counts_out_of_range_raise(self):
        st = gen_two_color(1, [16, 32]).extras["structure"]
        with pytest.raises(WindowTooSmall):
            st.cell_is_white(np.array([512]))

    def test_coded_points(self):
        src = gen_two_color(1, [16, 32, 64, 128])
        ps = src.materialize(Region.box([(-8, 8)]))
        st = src.extras["structure"]
        is_white = src.extras["is_white_address"](ps.addresses)
        for pos, white in zip(ps.points[:, 0], is_white):
            if white:
                assert abs(pos - round(pos)) < 1e-12
                assert st.cell_is_white(np.array([int(round(pos))]))
            else:
                cell = int(math.floor(pos + 0.5))
                assert abs(abs(pos - cell) - 1.0 / 3.0) < 1e-9

    @pytest.mark.parametrize(
        "structure, lo, hi",
        [
            (ONE_D, [-300], [-17]),
            (ONE_D, [-20], [50]),
            (ONE_D, [5], [5]),
            (ONE_D, [9], [3]),
            (ONE_D, [-150_000], [70_001]),
            (ONE_D, [-32768], [32768]),
            (TWO_D, [-40, -9], [23, 31]),
            (TWO_D, [-16, 0], [32, 512]),
            (TWO_D, [3, -7], [3, 9]),
        ],
        ids=[
            "1d-negative",
            "1d-across-0",
            "1d-empty",
            "1d-inverted",
            "1d-wide",
            "1d-aligned",
            "2d-across-0",
            "2d-aligned",
            "2d-empty",
        ],
    )
    def test_white_count_matches_cells(self, structure, lo, hi):
        assert structure.white_count_in_box(lo, hi) == white_cells_by_cell(structure, lo, hi)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_white_count_matches_cells_on_random_boxes(self, data):
        structure, width = data.draw(st.sampled_from([(ONE_D, 5000), (TWO_D, 60)]))
        lo, hi = data.draw(two_color_boxes(structure, width))
        assert structure.white_count_in_box(lo, hi) == white_cells_by_cell(structure, lo, hi)

    @pytest.mark.parametrize("structure", [TwoColorStructure(1, [16, 32]), TWO_D], ids=["1d", "2d"])
    def test_white_count_window_edges(self, structure):
        n, S = structure.n, structure.sides[-1]
        whole = structure.white_count_in_box([-S] * n, [S] * n)
        assert whole == 2**n * structure.white_count_in_box([0] * n, [S] * n)
        if n == 1:
            assert whole == white_cells_by_cell(structure, [-S], [S])
        for lo, hi in (([-S - 1] + [-S] * (n - 1), [S] * n), ([-S] * n, [S] * (n - 1) + [S + 1])):
            with pytest.raises(WindowTooSmall):
                structure.white_count_in_box(lo, hi)
        assert structure.white_count_in_box([S + 5] * n, [S + 5] * n) == 0
        with pytest.raises(InvalidArgument):
            structure.white_count_in_box([0] * n, [1] * (n + 1))

    @pytest.mark.parametrize("n, a", [(1, [16]), (1, [16, 32]), (2, [100])], ids=["1d", "1d-two-levels", "2d"])
    def test_window_on_the_last_level(self, n, a):
        """The box [0, side_K - 1]^n draws its points from cells of level K
        alone: every point sits within 1/3 of its cell on each axis. So it
        materializes, with every such point the box holds. A ring of one
        more cell per side reached past level K and raised WindowTooSmall."""
        src = gen_two_color(n, a)
        structure = src.extras["structure"]
        side = structure.sides[-1]
        region = Region.box([(0, side - 1)] * n)
        ps = src.materialize(region)
        cells = np.indices((side,) * n).reshape(n, -1).T.astype(float)
        white = structure.cell_is_white(cells.astype(np.int64))
        want = np.concatenate([cells[white], cells[~white] - 1.0 / 3.0, cells[~white] + 1.0 / 3.0])
        want = want[region.contains(want)]
        assert len(ps) == len(want)
        got = ps.points[np.lexsort(ps.points.T[::-1])]
        want = want[np.lexsort(want.T[::-1])]
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_white_count_half_per_level(self):
        # each scale places exactly half its new color budget as white blocks
        st = gen_two_color(1, [16, 32, 64, 128]).extras["structure"]
        assert st.white_count_in_box([0], [8]) == 4  # N/2 whites among N slots

    def test_declared_radius(self):
        src = gen_two_color(1, [16, 32, 64, 128])
        assert src.declared_r == pytest.approx(1.0 / 6.0)

    def test_scale_validation(self):
        with pytest.raises(InvalidArgument):
            gen_two_color(1, [4])  # scale below the color budget
        with pytest.raises(InvalidArgument):
            gen_two_color(1, [])


class TestRegistry:
    def test_known_names(self):
        for name in ("zn", "beatty", "fibonacci", "cut_project", "deleted_lines", "two_color"):
            src = build_source(name, None)
            assert src.dimension >= 1

    def test_unknown_name(self):
        with pytest.raises(InvalidArgument):
            build_source("nope", None)

    def test_bad_params(self):
        with pytest.raises(InvalidArgument):
            build_source("zn", {"n": "many"})

    def test_product_recursive(self):
        src = build_source(
            "product",
            {"factors": [{"set": "zn"}, {"set": "fibonacci"}]},
        )
        assert src.dimension == 2


# One source per case, and at least one case for every name build_source knows.
MEMBERSHIP_CASES = {
    "zn-1": ("zn", {"n": 1}),
    "zn-2-holes": ("zn", {"n": 2, "deletions": [[1, 1], [1, -1], [-2, 3]]}),
    "zn-3-holes": ("zn", {"n": 3, "deletions": [[0, 0, 1], [1, 0, -1]]}),
    "beatty-rational": ("beatty", {"alpha": RATIONAL_CF, "tau": 1.7}),
    "fibonacci": ("fibonacci", {}),
    "cut_project": ("cut_project", {"alpha": "golden"}),
    "product": ("product", {"factors": [{"set": "fibonacci"}, {"set": "zn", "params": {"n": 1}}]}),
    "deleted_lines": ("deleted_lines", {"a": [2, 10]}),
    "two_color-1": ("two_color", {"n": 1}),
    "two_color-2": ("two_color", {"n": 2, "a": [100, 144]}),  # cells reach 120 from the origin
}
MEMBERSHIP_SOURCES = {case: build_source(*spec) for case, spec in MEMBERSHIP_CASES.items()}


def assert_window_is_a_restriction(src, window):
    """materialize(window) holds exactly the points of a larger box that
    window.contains accepts, in the box's order. The box reaches a unit
    past the window on every side, so it holds window.extent(). Returns the
    window's point set."""
    if window.kind == "box":
        ivs = window.intervals
    else:
        ivs = [(c - window.radius, c + window.radius) for c in window.center]
    big = src.materialize(Region.box((a - 1.0, b + 1.0) for a, b in ivs))
    ps = src.materialize(window)
    assert ps.addresses.tolist() == big.addresses[window.contains(big.points)].tolist()
    return ps


@st.composite
def membership_windows(draw, src):
    """Boxes and balls: zero and sub-1e-4 radii at off-lattice centers,
    balls within 2e-9 of a point's distance, and one-dimensional centers
    near 3e5."""
    offset = draw(st.sampled_from([0.0, 300_000.0, -300_000.0])) if src.dimension == 1 else 0.0
    center = [
        offset + draw(st.one_of(st.integers(-6, 6).map(float), st.floats(-6.0, 6.0)))
        for _ in range(src.dimension)
    ]
    if draw(st.booleans()):
        near = src.materialize(Region.box((c - 4.0, c + 4.0) for c in center)).points
        edges = np.sqrt(np.sum((near - center) ** 2, axis=1)).tolist()
        radius = draw(
            st.one_of(
                st.just(0.0),
                st.floats(0.0, 1e-4),
                st.floats(0.0, 4.0),
                st.tuples(st.sampled_from(edges), st.floats(-2e-9, 2e-9)).map(
                    lambda e: max(e[0] + e[1], 0.0)
                ),
            )
        )
        return Region.ball(center, radius)
    halves = [draw(st.one_of(st.floats(1e-6, 1e-4), st.floats(0.01, 4.0))) for _ in center]
    return Region.box((c - h, c + h) for c, h in zip(center, halves))


class TestWindowMembership:
    def test_every_registered_name_has_a_case(self):
        names = set(re.findall(r'name == "(\w+)"', inspect.getsource(build_source)))
        assert names and names == {name for name, _ in MEMBERSHIP_CASES.values()}

    @pytest.mark.parametrize("case", sorted(MEMBERSHIP_CASES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_window_is_a_restriction_of_a_larger_box(self, case, data):
        src = MEMBERSHIP_SOURCES[case]
        assert_window_is_a_restriction(src, data.draw(membership_windows(src)))

    @pytest.mark.parametrize(
        "case, window, count",
        [
            # half a nanometre short of the point at 1 + tau, which the
            # squared-distance BALL_TOL leaves out and a linear 1e-9 let in
            pytest.param("fibonacci", Region.ball([0.0], 1 + GOLDEN_TAU - 5e-10), 3, id="fibonacci-edge"),
            # likewise short of the seventh-nearest point, at 3.6034146498
            pytest.param("cut_project", Region.ball([0.0], 3.603414648794387), 6, id="cut_project-edge"),
            # the origin lies within sqrt(BALL_TOL) of a tiny off-lattice ball
            pytest.param("zn-2-holes", Region.ball([1e-5, 0.0], 1e-6), 1, id="zn-2-tiny-ball"),
            pytest.param("zn-3-holes", Region.ball([0.0, 1e-5, 0.0], 1e-6), 1, id="zn-3-tiny-ball"),
            pytest.param("zn-1", Region.ball([0.0], 0.0), 1, id="zn-zero-radius"),
            pytest.param("deleted_lines", Region.ball([0.0] * 3, 0.0), 1, id="deleted_lines-zero-radius"),
            pytest.param("two_color-2", Region.ball([0.0, 0.0], 0.0), 1, id="two_color-zero-radius"),
            pytest.param("product", Region.ball([0.0, 0.0], 0.0), 1, id="product-zero-radius"),
        ],
    )
    def test_ball_edges_follow_region_contains(self, case, window, count):
        assert len(assert_window_is_a_restriction(MEMBERSHIP_SOURCES[case], window)) == count
