"""Exact address coordinates and how linearly they track position."""

import functools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delone_lab.address as address_mod
from delone_lab.address import (
    AddressMap,
    _residues,
    _sum_of_squares,
    build_address_map,
    hermite_basis,
    lattice_basis,
    linear_fit,
    lipschitz_constant,
    meyer_residual,
    path_displacement_distribution,
)
from delone_lab.core import ExactPointSet, Region
from delone_lab.errors import (
    DegenerateGeometry,
    InsufficientData,
    InvalidArgument,
    WindowTooSmall,
)
from delone_lab.generators import (
    GOLDEN_TAU,
    build_source,
    gen_beatty,
    gen_fibonacci,
    gen_integer_lattice,
    gen_product,
)


def in_span(basis, row):
    """Exact membership of row in the integer row span of a triangular basis."""
    r = list(row)
    for b in basis:
        lead = next(j for j, v in enumerate(b) if v != 0)
        q, rem = divmod(r[lead], b[lead])
        if rem:
            return False
        r = [a - q * c for a, c in zip(r, b)]
    return not any(r)


class TestLatticeBasis:
    def test_identity(self):
        assert lattice_basis([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]

    def test_gcd_collapse(self):
        assert lattice_basis([[2, 0], [3, 0], [0, 1]]) == [[1, 0], [0, 1]]

    def test_pivot_sign(self):
        assert lattice_basis([[-2, 1]]) == [[2, -1]]

    def test_reduction_above_pivot(self):
        got = lattice_basis([[1, 5], [0, 3]])
        assert got == [[1, 2], [0, 3]]

    def test_dependent_rows_drop(self):
        assert lattice_basis([[1, 2], [2, 4]]) == [[1, 2]]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    def test_span_rank_and_canonicalness(self, rows):
        basis = lattice_basis(rows)
        for row in rows:
            assert in_span(basis, row)
        assert len(basis) == np.linalg.matrix_rank(np.array(rows)) if any(
            any(r) for r in rows
        ) else len(basis) == 0
        assert lattice_basis(basis) == basis
        assert lattice_basis(rows[::-1]) == basis


def spanned_rows(entry):
    """Strategy: (rows, origin) with 1-4 columns and 1-300 rows, drawn as small
    integer combinations of at most s generators with entries from `entry`, so
    sets may be rank deficient and hold zero and duplicate rows."""

    @st.composite
    def build(draw):
        s = draw(st.integers(1, 4))
        gens = draw(st.lists(st.lists(entry, min_size=s, max_size=s), min_size=1, max_size=s))
        coef = st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens))
        combos = draw(st.lists(coef, min_size=1, max_size=300))
        rows = [[sum(c * g[j] for c, g in zip(cs, gens)) for j in range(s)] for cs in combos]
        origin = rows[draw(st.integers(0, len(rows) - 1))]
        return rows, origin

    return build()


class TestHermiteBasis:
    # 2^37 generators and coefficients up to 2 in at most 4 of them keep
    # every entry within 2^40
    @settings(max_examples=150, deadline=None)
    @given(spanned_rows(st.one_of(st.integers(-3, 3), st.integers(-(2**37), 2**37))))
    def test_grown_basis_is_lattice_basis(self, case):
        rows, origin = case
        want = lattice_basis([[a - o for a, o in zip(r, origin)] for r in rows])
        assert hermite_basis(np.array(rows, dtype=np.int64), origin) == want

    @settings(max_examples=60, deadline=None)
    @given(spanned_rows(st.integers(2**31, 2**37)))
    @example(([[0, 0], [0, -1]], [0, 0]))  # generators that cancel: int64 suffices
    def test_past_the_int64_bound(self, case):
        rows, origin = case
        want = lattice_basis([[a - o for a, o in zip(r, origin)] for r in rows])
        rows = np.array(rows, dtype=np.int64)
        assert hermite_basis(rows, origin) == want
        if want:  # the residue pass leaves int64 for Python ints exactly at its bound
            top = max(max(-int(c.min()), int(c.max())) + abs(o) for c, o in zip(rows.T, origin))
            big = max(abs(v) for b in want for v in b)
            coords, rest = _residues(rows, origin, want)
            assert (coords.dtype == object) == (top * (1 + big) ** len(want) >= 1 << 62)
            assert not any(np.any(c) for c in rest)

    def test_rows_outside_the_first_rounds(self):
        # the first 8 nonzero rows span only 2Z x 4Z; [3, 0] and [0, 6] come later
        rows = [[2 * k, 0] for k in range(-6, 7)] + [[0, 4 * k] for k in range(1, 9)]
        rows += [[3, 0]] + [[2, 4]] * 20 + [[0, 6], [5, 8]]
        want = lattice_basis(rows)
        assert want == [[1, 0], [0, 2]]
        assert hermite_basis(np.array(rows), [0, 0]) == want

    def test_phi_exact_past_int64(self):
        # q * basis wrapped int64 here, so phi rejected a lattice point
        m = 2**70 // (2**41 + 1)
        rows = [[0, 0], [1, 2**40], [0, 2**41 + 1], [2**30, 2**70 - m * (2**41 + 1)]]
        basis = lattice_basis(rows)
        assert basis == [[1, 2**40], [0, 2**41 + 1]]
        assert hermite_basis(np.array(rows), [0, 0]) == basis
        amap = AddressMap(
            origin_address=np.zeros(2, dtype=np.int64),
            basis=np.array(basis, dtype=np.int64),
            rank=2,
            degenerate_combination=None,
            convention="origin at 0",
        )
        coords = amap.phi(np.array(rows, dtype=np.int64)).tolist()
        rebuilt = [[sum(int(c) * b[j] for c, b in zip(row, basis)) for j in range(2)] for row in coords]
        assert rebuilt == rows

    def test_phi_rejects_off_lattice_past_int64(self):
        basis = [[1, 2**40], [0, 2**41 + 1]]
        amap = AddressMap(np.zeros(2, dtype=np.int64), np.array(basis), 2, None, "")
        with pytest.raises(InvalidArgument):
            amap.phi(np.array([[2**30, 2**41]]))


class TestAddressMap:
    def test_lattice_identity(self):
        ps = gen_integer_lattice(2).materialize(Region.box([(-5, 5)] * 2))
        amap = build_address_map(ps)
        assert amap.rank == 2
        assert np.array_equal(amap.basis, np.eye(2, dtype=np.int64))
        assert tuple(amap.origin_address) == (0, 0)
        assert amap.degenerate_combination is None
        assert np.array_equal(amap.phi(ps.addresses), ps.addresses)

    def test_phi_round_trip(self):
        ps = gen_fibonacci().materialize(Region.box([(-30, 30)]))
        amap = build_address_map(ps)
        coords = amap.phi(ps.addresses)
        rebuilt = amap.origin_address + coords @ amap.basis
        assert np.array_equal(rebuilt, ps.addresses)

    def test_phi_rejects_off_lattice(self):
        proj = np.array([[0.5]])
        ps = ExactPointSet(1, 1, proj, np.array([[0], [2], [4]]), Region.box([(-1, 3)]))
        amap = build_address_map(ps)
        assert amap.basis.tolist() == [[2]]
        with pytest.raises(InvalidArgument):
            amap.phi(np.array([[3]]))

    def test_origin_lex_tie_break(self):
        src = gen_integer_lattice(1, deletions=[(0,)])
        ps = src.materialize(Region.box([(-1, 1)]))
        amap = build_address_map(ps)
        assert tuple(amap.origin_address) == (-1,)

    def test_degenerate_combination_found(self):
        ps = gen_beatty("golden", 2.0).materialize(Region.box([(-20, 20)]))
        amap = build_address_map(ps)
        assert amap.degenerate_combination == (-2, 1)

    def test_square_rank_deficient_projection_is_searched(self):
        # s <= n, yet (-2, 1) maps to 0: the search must still run
        proj = np.array([[1.0, 0.0], [2.0, 0.0]])
        addr = np.array([[0, 0], [1, 0], [1, 1]])
        ps = ExactPointSet(2, 2, proj, addr, Region.box([(-1, 4), (-1, 1)]))
        assert build_address_map(ps).degenerate_combination == (-2, 1)

    def test_irrational_projection_nondegenerate(self):
        ps = gen_fibonacci().materialize(Region.box([(-20, 20)]))
        assert build_address_map(ps).degenerate_combination is None

    def test_empty_and_deficient(self):
        empty = gen_integer_lattice(1).materialize(Region.box([(0.2, 0.8)]))
        with pytest.raises(InsufficientData):
            build_address_map(empty)
        thin = gen_fibonacci().materialize(Region.box([(0, 1.1)]))
        with pytest.raises(InsufficientData, match="widen the window"):
            build_address_map(thin)


def full_scan(ps, amap, seed=0):
    """(value, pairs, mode) of the Lipschitz scan that looks at every covered
    pair, by brute force: all pairs up to LIPSCHITZ_EXACT_LIMIT points,
    otherwise all pairs of the seeded subset."""
    from scipy.spatial.distance import cdist

    coords = amap.phi(ps.addresses).astype(float)
    pts, P, mode = ps.points, len(ps), "all-pairs"
    if P > address_mod.LIPSCHITZ_EXACT_LIMIT:
        m = max(m for m in range(P + 1) if m * (m - 1) // 2 <= address_mod.LIPSCHITZ_SAMPLE_PAIRS)
        pick = np.random.default_rng(seed).choice(P, m, replace=False)
        pts, coords, P, mode = pts[pick], coords[pick], m, "sampled"
    upper = np.triu_indices(P, 1)
    with np.errstate(divide="ignore"):
        best = float(np.max(cdist(coords, coords)[upper] / cdist(pts, pts)[upper]))
    return best, P * (P - 1) // 2, mode


FIB_X_FIB = {"factors": [{"set": "fibonacci"}] * 2}
# construction, its parameters and the center of its windows
LIPSCHITZ_SETS = {
    "fibonacci": ("fibonacci", {}, 0.0),
    "cut_project": ("cut_project", {"alpha": "golden"}, 0.0),
    "beatty-far": ("beatty", {"alpha": "golden", "tau": math.sqrt(2.0)}, 3e5),
    "fib-x-fib": ("product", FIB_X_FIB, 0.0),
    "z2-holes": ("zn", {"n": 2, "deletions": [[0, 0], [3, 1], [-2, 4]]}, 0.0),
    "deleted-lines": ("deleted_lines", {"a": [2, 10]}, 0.0),
}


def lipschitz_set(name, half, shift):
    """A window of one LIPSCHITZ_SETS entry, of some 40 to 900 points."""
    kind, params, center = LIPSCHITZ_SETS[name]
    src = build_source(kind, params)
    n = src.dimension
    half = {1: 60.0 + 4.0 * half, 2: 4.0 + half / 12.0, 3: 2.0 + half / 60.0}[n]
    return src.materialize(Region.box([(center + shift - half, center + shift + half)] * n))


def dist2(u, v):
    """Squared distance of two vectors of floats or Fractions, exactly."""
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(u, v))


class TestLipschitz:
    def test_lattice_exact(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-40, 40)]))
        rep = lipschitz_constant(ps)
        assert rep.value == 1.0
        assert rep.mode == "all-pairs"
        assert rep.pairs_used == 81 * 80 // 2

    def test_sampled_mode(self, monkeypatch):
        monkeypatch.setattr(address_mod, "LIPSCHITZ_EXACT_LIMIT", 10)
        monkeypatch.setattr(address_mod, "LIPSCHITZ_SAMPLE_PAIRS", 5000)
        ps = gen_integer_lattice(1).materialize(Region.box([(-40, 40)]))
        rep = lipschitz_constant(ps, seed=3)
        assert rep.mode == "sampled"
        assert rep.value == pytest.approx(1.0)

    def test_fibonacci_unit_gap_pairs(self):
        ps = gen_fibonacci().materialize(Region.box([(-60, 60)]))
        rep = lipschitz_constant(ps)
        assert rep.value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "src, window, sample_pairs, value, pairs",
        [
            (gen_fibonacci(), [(-10_000, 10_000)], 1_000_000, "1.0", 998_991),
            (gen_integer_lattice(2, deletions=[(0, 0), (3, 1)]), [(-60, 60)] * 2, 1_000_000, "1.0", 998_991),
            (
                build_source("product", {"factors": [{"set": "fibonacci"}] * 2}),
                [(-60, 60)] * 2,
                1_000,
                "1.0",
                990,
            ),
        ],
        ids=["fibonacci", "z2-holes", "fib-x-fib-1000"],
    )
    def test_sampled_values_frozen(self, src, window, sample_pairs, value, pairs, monkeypatch):
        monkeypatch.setattr(address_mod, "LIPSCHITZ_EXACT_LIMIT", 1_000)
        monkeypatch.setattr(address_mod, "LIPSCHITZ_SAMPLE_PAIRS", sample_pairs)
        ps = src.materialize(Region.box(window))
        rep = lipschitz_constant(ps, seed=0)
        assert rep.mode == "sampled"
        assert (repr(rep.value), rep.pairs_used) == (value, pairs)

    @pytest.mark.parametrize("exact_limit", [1_000, 10_000], ids=["sampled", "all-pairs"])
    @pytest.mark.parametrize("block", [1, 7, 4_096])
    def test_block_size_changes_no_value(self, exact_limit, block, monkeypatch):
        ps = build_source("product", {"factors": [{"set": "fibonacci"}] * 2}).materialize(
            Region.box([(-30, 30)] * 2)
        )
        amap = build_address_map(ps)
        monkeypatch.setattr(address_mod, "LIPSCHITZ_EXACT_LIMIT", exact_limit)
        monkeypatch.setattr(address_mod, "LIPSCHITZ_SAMPLE_PAIRS", 20_000)
        want = lipschitz_constant(ps, amap, seed=5)
        monkeypatch.setattr(address_mod, "LIPSCHITZ_BLOCK_PAIRS", block)
        got = lipschitz_constant(ps, amap, seed=5)
        assert (got.mode, got.pairs_used) == (want.mode, want.pairs_used)
        assert np.float64(got.value).view(np.uint64) == np.float64(want.value).view(np.uint64)

    @pytest.mark.parametrize(
        "src, window, seed, value, pairs, scanned",
        [
            (gen_fibonacci(), [(-10_000, 10_000)], 0, "1.0", 998_991, 106_959),
            (gen_fibonacci(), [(-10_000, 10_000)], 1, "1.0", 998_991, 106_959),
            (gen_integer_lattice(2, deletions=[(0, 0), (3, 1)]), [(-60, 60)] * 2, 0, "1.0", 998_991, 0),
            (gen_integer_lattice(2, deletions=[(0, 0), (3, 1)]), [(-60, 60)] * 2, 1, "1.0", 998_991, 0),
        ],
        ids=["fibonacci-0", "fibonacci-1", "z2-holes-0", "z2-holes-1"],
    )
    def test_sampled_scan_in_blocks(self, src, window, seed, value, pairs, scanned):
        """The default sample, all pairs of 1 414 seeded points: its value
        and pair counts, at a tracemalloc peak of at most 2.5e6 bytes. Two
        seeded 10^6-index pair draws, scanned in blocks, peaked at 5.8e6 and
        6.6e6 here. Z^2 with holes is an identity map and scans none."""
        import tracemalloc

        from scipy.spatial.distance import cdist  # noqa: F401  (its import is no part of the scan)

        ps = src.materialize(Region.box(window))
        amap = build_address_map(ps)
        ps.points  # the point set keeps its positions once computed
        tracemalloc.start()
        try:
            rep = lipschitz_constant(ps, amap, seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.mode == "sampled"
        assert (repr(rep.value), rep.pairs_used, rep.pairs_scanned) == (value, pairs, scanned)
        assert peak <= 2.5e6

    @pytest.mark.parametrize(
        "window, mode, fixed_bytes",
        [
            # the sampled scan copies its subset's rows of 1 position and 2
            # coordinates twice (drawn, then sorted) and holds their ends; the
            # draw permutes all 14 472 indices
            ([(-10_000, 10_000)], "sampled", 8 * (1_414 * (2 * 3 + 1) + 14_472)),
            ([(-2_000, 2_000)], "all-pairs", 0),
        ],
        ids=["sampled", "all-pairs"],
    )
    def test_scan_peak_is_bounded(self, window, mode, fixed_bytes):
        """tracemalloc peak of one scan: the fixed arrays plus 96 bytes per
        cdist entry of one LIPSCHITZ_BLOCK_PAIRS block, 6.5 MB sampled and
        6.3 MB all-pairs. Scanning a whole 10^6-pair sample at once peaked at
        47.9 MB here (fibonacci ±10⁴), and 4 M-entry cdist blocks at 12.6 MB
        (fibonacci ±2000, 2 895 points)."""
        import tracemalloc

        from scipy.spatial.distance import cdist  # noqa: F401  (its import is no part of the scan)

        ps = gen_fibonacci().materialize(Region.box(window))
        amap = build_address_map(ps)
        tracemalloc.start()
        try:
            rep = lipschitz_constant(ps, amap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.mode == mode
        assert peak <= fixed_bytes + 96 * address_mod.LIPSCHITZ_BLOCK_PAIRS

    @pytest.mark.parametrize("width", range(1, 8))
    def test_column_squares_are_row_sums(self, width):
        rng = np.random.default_rng(width)
        d = rng.standard_normal((5_000, width)) * 10.0 ** rng.integers(-8, 9, size=(5_000, width))
        got = _sum_of_squares(np.ascontiguousarray(d.T))
        assert np.array_equal(got.view(np.uint64), np.sum(d * d, axis=1).view(np.uint64))

    def test_needs_two_points(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-0.5, 0.5)]))
        with pytest.raises(InsufficientData):
            lipschitz_constant(ps)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(LIPSCHITZ_SETS)),
        st.integers(0, 120),
        st.floats(-40.0, 40.0),
        st.sampled_from(["all-pairs", "sampled"]),
        st.sampled_from([1 << 16, 4_096, 7]),
        st.integers(0, 3),
    )
    def test_equals_the_full_scan_bitwise(self, name, half, shift, mode, block, seed):
        """The bound skips pairs, never the maximum: value, pair count and
        mode are those of the scan over every covered pair. The identity
        maps of Z^2 with holes and of deleted lines scan none."""
        ps = lipschitz_set(name, half, shift)
        amap = build_address_map(ps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(address_mod, "LIPSCHITZ_BLOCK_PAIRS", block)
            mp.setattr(address_mod, "LIPSCHITZ_SAMPLE_PAIRS", 30_000)
            if mode == "sampled":
                mp.setattr(address_mod, "LIPSCHITZ_EXACT_LIMIT", 10)
            want = full_scan(ps, amap, seed)
            rep = lipschitz_constant(ps, amap, seed=seed)
        assert (rep.pairs_used, rep.mode) == want[1:]
        assert np.float64(rep.value).view(np.uint64) == np.float64(want[0]).view(np.uint64)
        if name in ("z2-holes", "deleted-lines"):
            assert rep.pairs_scanned == 0
        else:
            assert 0 < rep.pairs_scanned <= rep.pairs_used

    def test_identity_past_2_52_still_scans(self):
        """Z^2 addresses past 2^52 may not all be exact floats, so the
        identity map takes the scan, and equals the full scan bitwise."""
        ps = gen_integer_lattice(2).materialize(Region.box([(2.0**52 - 6, 2.0**52 + 6), (-6, 6)]))
        assert np.abs(ps.addresses).max() >= 2**52
        amap = build_address_map(ps)
        want = full_scan(ps, amap)
        rep = lipschitz_constant(ps, amap)
        assert (rep.pairs_used, rep.mode) == want[1:]
        assert np.float64(rep.value).view(np.uint64) == np.float64(want[0]).view(np.uint64)
        assert rep.pairs_scanned > 0

    @pytest.mark.parametrize(
        "src, window, scans",
        [
            (gen_fibonacci(), [(-2_000, 2_000)], "few"),
            (gen_integer_lattice(2, deletions=[(0, 0), (3, 1)]), [(-60, 60)] * 2, "none"),
            (build_source("deleted_lines", {"a": [2, 10]}), [(-6, 6)] * 3, "none"),
            (ExactPointSet(1, 1, [[0.75]], np.arange(-300, 301)[:, None], Region.box([(-300, 300)])), None, "all"),
            (ExactPointSet(1, 1, [[0.625]], np.arange(-300, 301)[:, None], Region.box([(-300, 300)])), None, "all"),
        ],
        ids=["fibonacci-allpairs", "z2-holes-sampled", "deleted-lines", "lattice-0.75", "lattice-0.625"],
    )
    def test_pairs_scanned(self, src, window, scans):
        """Fibonacci ±2000 scans under 5 % of its 4.19 M pairs. On a lattice
        every ratio is the same and the bound never falls below it, so every
        pair is scanned; an identity map (Z^2 with holes, deleted lines)
        needs no scan, as every ratio is exactly 1."""
        ps = src if window is None else src.materialize(Region.box(window))
        rep = lipschitz_constant(ps)
        if scans == "few":
            assert rep.pairs_scanned < 0.05 * rep.pairs_used
        else:
            assert rep.pairs_scanned == {"none": 0, "all": rep.pairs_used}[scans]

    @pytest.mark.parametrize(
        "name, half, shift",
        [
            ("fibonacci", 10, 0.0),
            ("cut_project", 30, 7.5),
            ("beatty-far", 0, 0.0),
            ("fib-x-fib", 0, 0.3),
            ("z2-holes", 0, 0.0),
            ("lattice-0.75", 0, 0.0),
            ("lattice-0.1", 0, 0.0),
        ],
    )
    def test_ratio_bound_is_rounded_outward(self, name, half, shift):
        """In exact arithmetic on the float inputs: B(d) = head + tail / d
        exceeds (|L| + 2 rho / d)(1 + R), where R = (n + s) / 2 + 3 ulps
        bounds the rounding of a computed ratio; and no computed ratio
        exceeds its exact value by more than R."""
        if name.startswith("lattice-"):
            c = float(name.split("-")[1])
            ps = ExactPointSet(1, 1, [[c]], np.arange(-150, 151)[:, None], Region.box([(-150 * c, 150 * c)]))
        else:
            ps = lipschitz_set(name, half, shift)
        amap = build_address_map(ps)
        coords = amap.phi(ps.addresses).astype(float)
        x = ps.points - amap.origin_address.astype(float) @ ps.projection
        LT, head, tail, _ = address_mod._ratio_bound(coords, x)
        ulp = Fraction(math.ulp(1.0))
        R = 1 + (Fraction(x.shape[1] + coords.shape[1], 2) + 3) * ulp
        L = [[Fraction(v) for v in row] for row in LT.T.tolist()]
        rho2 = max(
            dist2(c, [sum(map(operator.mul, map(Fraction, xr), row)) for row in L])
            for xr, c in zip(x.tolist(), coords.tolist())
        )
        assert Fraction(head) ** 2 >= dist2(LT.ravel().tolist(), [0] * LT.size) * R * R
        assert Fraction(tail) ** 2 >= 4 * rho2 * R * R
        # the computed ratios of one point's pairs, in the scan's arithmetic,
        # against their exact values
        from scipy.spatial.distance import cdist

        pts = ps.points
        ratios = (cdist(coords[:1], coords[1:]) / cdist(pts[:1], pts[1:]))[0]
        for k, r in zip(range(1, len(ps)), ratios.tolist()):
            num = dist2(coords[k].tolist(), coords[0].tolist())
            den = dist2(pts[k].tolist(), pts[0].tolist())
            assert Fraction(r) ** 2 * den <= num * R * R

    @pytest.mark.parametrize(
        "src, window",
        [
            (gen_fibonacci(), [(-300, 300)]),
            (gen_beatty("golden", 2.0), [(-150, 150)]),
            (gen_integer_lattice(2, deletions=[(0, 0), (3, 1)]), [(-9, 9)] * 2),
            (build_source("product", {"factors": [{"set": "fibonacci"}] * 2}), [(-11, 11)] * 2),
        ],
        ids=["fibonacci", "degenerate-beatty", "z2-holes", "fib-x-fib"],
    )
    def test_upper_triangle_equals_full_matrix(self, src, window):
        ps = src.materialize(Region.box(window))
        amap = build_address_map(ps)
        coords = amap.phi(ps.addresses).astype(float)
        dx = ps.points[:, None, :] - ps.points[None, :, :]
        dphi = coords[:, None, :] - coords[None, :, :]
        nx = np.sqrt(np.sum(dx * dx, axis=2))
        np.fill_diagonal(nx, np.inf)
        with np.errstate(divide="ignore"):
            full = float(np.max(np.sqrt(np.sum(dphi * dphi, axis=2)) / nx))
        rep = lipschitz_constant(ps, amap)
        assert len(ps) > 32  # several row blocks
        assert rep.value == full
        assert rep.pairs_used == len(ps) * (len(ps) - 1) // 2


class TestLinearFit:
    def test_lattice_is_exactly_linear(self):
        ps = gen_integer_lattice(2).materialize(Region.box([(-8, 8)] * 2))
        fit = linear_fit(ps)
        assert fit.residuals_zero
        assert fit.max_residual < 1e-9
        assert fit.proj_residual < 1e-9
        assert np.allclose(fit.L, np.eye(2), atol=1e-9)
        assert fit.exponent is None

    def test_fibonacci_slopes(self):
        ps = gen_fibonacci().materialize(Region.box([(-400, 400)]))
        fit = linear_fit(ps)
        assert fit.L.shape == (2, 1)
        assert fit.L[0, 0] == pytest.approx(1.0 / (1.0 + GOLDEN_TAU**2), abs=1e-3)
        assert fit.L[1, 0] == pytest.approx(GOLDEN_TAU / (1.0 + GOLDEN_TAU**2), abs=1e-3)
        assert fit.proj_residual < 1e-9
        assert not fit.residuals_zero
        assert 0.0 < fit.max_residual < 2.0

    def test_meyer_bounded_for_fibonacci(self):
        ps = gen_fibonacci().materialize(Region.box([(-400, 400)]))
        rep = meyer_residual(linear_fit(ps))
        assert rep.bounded
        assert rep.variation < 0.20
        assert "finite-window" in rep.caveat

    def test_meyer_zero_residual_caveat(self):
        ps = gen_integer_lattice(2).materialize(Region.box([(-16, 16)] * 2))
        rep = meyer_residual(linear_fit(ps))
        assert rep.bounded and rep.variation == 0.0
        assert "zero" in rep.caveat

    def test_meyer_needs_annuli(self):
        ps = gen_fibonacci().materialize(Region.box([(-20, 20)]))
        with pytest.raises(InsufficientData):
            meyer_residual(linear_fit(ps))

    def test_collinear_positions_rejected(self):
        proj = np.array([[1.0, 0.0], [1.0, 0.0]])
        addr = np.array([[0, 0], [1, 0], [2, 1], [3, 1], [5, 2], [6, 3]])
        ps = ExactPointSet(2, 2, proj, addr, Region.box([(-1, 10), (-1, 1)]))
        with pytest.raises(DegenerateGeometry):
            linear_fit(ps)


class TestPathDisplacement:
    def test_lattice_2d_box(self):
        ps = gen_integer_lattice(2).materialize(Region.box([(-5, 5)] * 2))
        amap = build_address_map(ps)
        wd = path_displacement_distribution(ps, amap, axis=0, R=1.0)
        val = wd.evaluate(np.array([[[0, 2], [0, 2]], [[-1, 3], [0.5, 1.5]]]))
        assert np.allclose(val, [[4.0, 0.0], [4.0, 0.0]])
        assert wd.evaluate(np.zeros((0, 2, 2))).shape == (0, 2)

    def test_lattice_1d(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-10, 10)]))
        amap = build_address_map(ps)
        wd = path_displacement_distribution(ps, amap, axis=0, R=0.5)
        assert np.allclose(wd.evaluate(np.array([[[0, 7]]])), [[7.0]])

    def test_axis_and_R_validation(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-10, 10)]))
        amap = build_address_map(ps)
        with pytest.raises(InvalidArgument):
            path_displacement_distribution(ps, amap, axis=1, R=1.0)
        with pytest.raises(InvalidArgument):
            path_displacement_distribution(ps, amap, axis=0, R=0.0)

    def test_box_only(self):
        ps = gen_integer_lattice(2).materialize(Region.box([(-5, 5)] * 2))
        amap = build_address_map(ps)
        wd = path_displacement_distribution(ps, amap, axis=0, R=1.0)
        with pytest.raises(InvalidArgument):
            wd.evaluate(np.array([[[0.0, 2.0]]]))
        with pytest.raises(InvalidArgument):
            wd.evaluate(np.array([[0.0, 2.0], [0.0, 2.0]]))


def per_node_weight(ps, amap, axis, R):
    """Brute-force path displacement: one tree query per grid node, ties by
    a Python min over (position, address) tuples, a running sum per node."""
    from scipy.spatial import cKDTree

    n = ps.dimension
    pts = ps.points
    tree = cKDTree(pts)
    coords = amap.phi(ps.addresses)

    def nearest_index(t):
        dist, idx = tree.query(t, k=min(8, len(ps)))
        dist = np.atleast_1d(dist)
        idx = np.atleast_1d(idx)
        if dist[0] > R:
            raise WindowTooSmall(f"no set point within R = {R} of grid node {t.tolist()}")
        ties = idx[dist <= dist[0] + 1e-12]
        key = lambda i: (tuple(pts[i].tolist()), tuple(ps.addresses[i].tolist()))  # noqa: E731
        return int(min(ties, key=key))

    def ev(box):
        if box.kind != "box":
            raise InvalidArgument("path displacement is defined on boxes")
        a_ax, b_ax = box.intervals[axis]
        m_lo = math.floor(a_ax)
        m_hi = math.floor(b_ax)
        grids = []
        for j in (j for j in range(n) if j != axis):
            aj, bj = box.intervals[j]
            gj = np.arange(math.ceil(aj - 1e-9), math.floor(bj + 1e-9) + 1)
            if gj.size == 0:
                return np.zeros(amap.rank)
            grids.append((j, aj, bj, gj))
        total = np.zeros(amap.rank, dtype=float)
        mesh = (
            np.stack([g.ravel() for g in np.meshgrid(*[g[3] for g in grids], indexing="ij")], axis=1)
            if grids
            else np.zeros((1, 0))
        )
        for row in mesh:
            weight = 1.0
            t_lo = np.zeros(n)
            t_hi = np.zeros(n)
            t_lo[axis] = m_lo
            t_hi[axis] = m_hi
            for (j, aj, bj, _), val in zip(grids, row):
                t_lo[j] = val
                t_hi[j] = val
                if abs(val - aj) < 1e-9:
                    weight *= 0.5
                if abs(val - bj) < 1e-9:
                    weight *= 0.5
            i_lo = nearest_index(t_lo)
            i_hi = nearest_index(t_hi)
            total += weight * (coords[i_hi] - coords[i_lo]).astype(float)
        return total

    return ev


def _coincident(c, half=8):
    """1-D, rank 2: addresses (k, 0) and (k - 1, 1) both sit at x = k."""
    rows = [row for k in range(c - half, c + half + 1) for row in ((k, 0), (k - 1, 1))]
    return ExactPointSet(1, 2, np.ones((2, 1)), np.array(rows), Region.box([(c - half, c + half)]))


HALF = 7  # half-width of the materialized windows
PATH_SETS = {
    "z1": lambda c: gen_integer_lattice(1).materialize(Region.box([(c - HALF, c + HALF)])),
    "fibonacci": lambda c: gen_fibonacci().materialize(Region.box([(c - HALF, c + HALF)])),
    "coincident": lambda c: _coincident(c),
    "z2-holes": lambda c: gen_integer_lattice(
        2, deletions=[(c, c), (c + 1, c), (c - 2, c + 1), (c + 3, c - 2)]
    ).materialize(Region.box([(c - HALF, c + HALF)] * 2)),
    "fib-x-fib": lambda c: gen_product([gen_fibonacci(), gen_fibonacci()]).materialize(
        Region.box([(c - HALF, c + HALF)] * 2)
    ),
    "fib-x-z": lambda c: gen_product([gen_fibonacci(), gen_integer_lattice(1)]).materialize(
        Region.box([(c - HALF, c + HALF)] * 2)
    ),
    "z3-holes": lambda c: gen_integer_lattice(3, deletions=[(c, c, c), (c + 1, c, c - 1)]).materialize(
        Region.box([(c - 4, c + 4)] * 3)
    ),
    "fib-x-z-x-z": lambda c: gen_product(
        [gen_fibonacci(), gen_integer_lattice(1), gen_integer_lattice(1)]
    ).materialize(Region.box([(c - 4, c + 4)] * 3)),
}


@functools.lru_cache(maxsize=None)
def path_set(name, c):
    ps = PATH_SETS[name](c)
    return ps, build_address_map(ps)


def one_box(wd):
    """The weight of a single box, through the (1, n, 2) array it evaluates."""
    return lambda box: wd.evaluate(np.array([box.intervals]))[0]


def outcome(fn, box):
    try:
        return "value", fn(box).tobytes()
    except (InvalidArgument, WindowTooSmall) as exc:
        return type(exc), str(exc)


# interval ends relative to the window center: integers give half weights,
# half-integers and thirds do not; widths under 1 can empty a cross-section
FACE_STARTS = [-3.0, -2.5, -2.0, -1.0, -0.4, 0.0, 1.0 / 3.0, 0.5, 1.0, 2.0]
WIDTHS = [0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]


class TestPathDisplacementOracle:
    @settings(max_examples=250, deadline=None)
    @given(
        name=st.sampled_from(sorted(PATH_SETS)),
        c=st.sampled_from([0, 300_000]),
        data=st.data(),
        R=st.sampled_from([0.2, 0.5, 0.8, 1.0, 2.0]),
    )
    def test_equals_per_node_oracle(self, name, c, data, R):
        ps, amap = path_set(name, c)
        n = ps.dimension
        axis = data.draw(st.integers(0, n - 1))
        ivs = []
        for _ in range(n):
            a = c + data.draw(st.sampled_from(FACE_STARTS))
            ivs.append((a, a + data.draw(st.sampled_from(WIDTHS))))
        box = Region.box(ivs)
        got = outcome(one_box(path_displacement_distribution(ps, amap, axis, R)), box)
        assert got == outcome(per_node_weight(ps, amap, axis, R), box)

    @pytest.mark.parametrize("name", ["z2-holes", "coincident"])
    def test_ties_go_to_the_least_position_then_address(self, name):
        # z2-holes: (0, 0) and (1, 0) are holes, each with three points at
        # distance 1, and the least positions (-1, 0) and (1, -1) win;
        # coincident: x = 0 holds (0, 0) and (-1, 1), x = 1 holds (1, 0) and
        # (0, 1), and the least addresses win
        ps, amap = path_set(name, 0)
        box = Region.box([(0.0, 1.0)] + [(-0.5, 0.5)] * (ps.dimension - 1))
        wd = path_displacement_distribution(ps, amap, axis=0, R=1.0)
        assert outcome(one_box(wd), box) == outcome(per_node_weight(ps, amap, 0, 1.0), box)
        coords = amap.phi(ps.addresses)
        near = {"z2-holes": [-1, 0], "coincident": [-1, 1]}[name]
        far = {"z2-holes": [1, -1], "coincident": [0, 1]}[name]
        i_near = int(np.flatnonzero((ps.addresses == near).all(axis=1))[0])
        i_far = int(np.flatnonzero((ps.addresses == far).all(axis=1))[0])
        assert np.array_equal(one_box(wd)(box), (coords[i_far] - coords[i_near]).astype(float))

    def test_window_too_small_names_the_first_node(self):
        ps, amap = path_set("z2-holes", 0)
        wd = path_displacement_distribution(ps, amap, axis=1, R=0.5)
        box = Region.box([(-1.0, 1.0), (0.0, 2.0)])
        with pytest.raises(WindowTooSmall, match=r"grid node \[0\.0, 0\.0\]"):
            one_box(wd)(box)
        assert outcome(one_box(wd), box) == outcome(per_node_weight(ps, amap, 1, 0.5), box)


def box_by_box(wd, rank):
    """evaluate on each (1, n, 2) slice in turn, stopping at the first error."""
    return lambda boxes: np.array([wd.evaluate(b[None])[0] for b in boxes]).reshape(-1, rank)


class TestPathDisplacementBatch:
    @pytest.mark.parametrize("c", [0, 300_000])
    @pytest.mark.parametrize("name", sorted(PATH_SETS))
    def test_one_evaluate_equals_box_by_box(self, name, c):
        ps, amap = path_set(name, c)
        n = ps.dimension
        rng = np.random.default_rng(7)
        starts = c + rng.choice(FACE_STARTS, size=(12, n))
        boxes = np.stack([starts, starts + rng.choice(WIDTHS, size=(12, n))], axis=2)
        boxes[3] = [c - 0.4, c - 0.1]  # no integer in any interval: empty cross-sections
        for axis in range(n):
            for R in (0.5, 2.0):  # R = 0.5 loses a node in some sets
                wd = path_displacement_distribution(ps, amap, axis, R)
                for batch in (boxes, boxes[:0], boxes[3:4]):
                    got = outcome(wd.evaluate, batch)
                    assert got == outcome(box_by_box(wd, amap.rank), batch)
        assert wd.evaluate(boxes[:0]).shape == (0, amap.rank)

    @pytest.mark.parametrize(
        "second, node",
        [
            ([(-1.0, 1.0), (0.0, 2.0)], r"\[0\.0, 0\.0\]"),
            ([(2.5, 3.5), (-2.0, 0.0)], r"\[3\.0, -2\.0\]"),
        ],
    )
    def test_failing_second_box_names_its_first_lost_node(self, second, node):
        # z2-holes misses (0, 0), (1, 0), (-2, 1) and (3, -2); with R = 0.5 a
        # node on a hole is lost, and the first box has none
        ps, amap = path_set("z2-holes", 0)
        wd = path_displacement_distribution(ps, amap, axis=1, R=0.5)
        other = [(-1.0, 1.0), (0.0, 2.0)] if second[0][0] == 2.5 else [(2.5, 3.5), (-2.0, 0.0)]
        boxes = np.array([[(4.0, 5.0), (4.0, 5.0)], second, other])
        with pytest.raises(WindowTooSmall, match="grid node " + node):
            wd.evaluate(boxes)
        assert outcome(wd.evaluate, boxes) == outcome(box_by_box(wd, amap.rank), boxes)
