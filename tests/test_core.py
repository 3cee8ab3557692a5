"""Regions, point sets, patch keys, Delone constants, set distance."""

import ast
import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

import delone_lab.core as core_mod
from delone_lab.atlas import compute_atlas
from delone_lab.core import (
    ExactPointSet,
    FloatPointSet,
    PairIndex,
    Region,
    delone_constants,
    lex_code,
    lex_order,
    load_point_set,
    make_patch_key,
    natural_distance,
    packing_radius,
    pairs_within,
    project,
    save_point_set,
    unique_rows,
    validate_patch_key,
)
from delone_lab.errors import InsufficientData, InvalidArgument, WindowTooSmall
from delone_lab.generators import (
    GOLDEN_TAU,
    gen_cut_project_1d,
    gen_deleted_lines,
    gen_fibonacci,
    gen_integer_lattice,
)


BOX_JSON = {"kind": "box", "intervals": [[-1, 2]]}


def line_set(positions):
    """Exact 1D set with unit projection; positions must be integers."""
    addr = np.asarray(positions, dtype=np.int64).reshape(-1, 1)
    lo, hi = addr.min() - 1.0, addr.max() + 1.0
    return ExactPointSet(
        dimension=1,
        rank=1,
        projection=np.array([[1.0]]),
        addresses=addr,
        region=Region.box([(lo, hi)]),
    )


class TestRegion:
    def test_box_contains_boundary(self):
        box = Region.box([(-2, 2), (0, 1)])
        inside = box.contains(np.array([[2.0, 1.0], [-2.0, 0.0], [0.0, 0.5]]))
        assert inside.all()
        outside = box.contains(np.array([[2.1, 0.5], [0.0, -0.1]]))
        assert not outside.any()

    def test_ball_contains(self):
        ball = Region.ball([1.0, 0.0], 2.0)
        assert ball.contains(np.array([[3.0, 0.0]])).all()
        assert not ball.contains(np.array([[3.2, 0.0]])).any()

    def test_erode_box(self):
        box = Region.box([(-5, 5)])
        shrunk = box.erode(2.0)
        assert shrunk.intervals == ((-3.0, 3.0),)

    def test_erode_too_far(self):
        with pytest.raises(WindowTooSmall):
            Region.box([(-1, 1)]).erode(1.5)

    def test_volume_and_width(self):
        box = Region.box([(-2, 2), (0, 3)])
        assert box.volume() == 12.0
        ball = Region.ball([0.0], 3.0)
        assert ball.volume() == 6.0

    def test_unit_ball_volumes(self):
        assert Region.ball([0.0, 0.0], 1.0).volume() == pytest.approx(math.pi)
        assert Region.ball([0.0] * 3, 1.0).volume() == pytest.approx(4 * math.pi / 3)

    def test_json_round_trip(self):
        for region in (Region.box([(-1, 2), (3, 4)]), Region.ball([0.5], 2.5)):
            again = Region.from_json(json.loads(json.dumps(region.to_json())))
            assert again == region

    def test_contains_region(self):
        outer = Region.box([(-5, 5)])
        assert outer.contains_region(Region.box([(-3, 3)]))
        assert outer.contains_region(Region.ball([0.0], 5.0))
        assert not outer.contains_region(Region.box([(-6, 0)]))

    @settings(max_examples=150, deadline=None)
    @given(
        center=st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=3),
        size=st.one_of(st.just(0.0), st.floats(0.0, 1e-4), st.floats(0.0, 5.0)),
        ball=st.booleans(),
    )
    def test_extent_holds_what_contains_accepts(self, center, size, ball):
        n = len(center)
        if ball:
            region, reach = Region.ball(center, size), math.sqrt(size**2 + core_mod.BALL_TOL)
        else:
            size += 1e-3
            region, reach = Region.box((c - size, c + size) for c in center), size + core_mod.REGION_SLACK
        # points along the axes and a diagonal, a few ulps either side of the reach
        dirs = np.vstack([np.eye(n), -np.eye(n), np.ones((1, n)) / math.sqrt(n)])
        base = np.asarray(center) + dirs * reach
        steps = np.arange(-4, 5)[None, :, None]
        pts = (base[:, None, :] + np.spacing(base)[:, None, :] * steps).reshape(-1, n)
        lo, hi = np.array(region.extent()).T
        assert np.all(lo < hi)
        inside = pts[region.contains(pts)]
        assert len(inside) and np.all((lo <= inside) & (inside <= hi))

    # integer and fractional edges, some within a few REGION_SLACK of an integer
    EDGES = st.integers(-6, 6) | st.sampled_from([0.5, -2.5, 1 / 3, 1e-9, -1e-9, 3 + 1e-9, 3 - 1e-9, 2 + 2e-9])
    WIDTHS = st.integers(1, 12) | st.sampled_from([0.5, 1e-9, 2 - 1e-9, 4 + 2e-9])

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 3),
        offset=st.sampled_from([0, 300_000, 2**53 + 1, -(2**60)]),
        ball=st.booleans(),
        data=st.data(),
    )
    def test_integer_rows_read_as_their_float_copy(self, n, offset, ball, data):
        """contains on integer rows equals contains on their float copy,
        bit for bit, past 2^53 too, where the copy rounds (2^53 + 3 to
        2^53 + 4, say). The rows are every integer vector of [-8, 8]^n
        about the offset."""
        rows = np.array(list(itertools.product(range(-8, 9), repeat=n)), dtype=np.int64) + offset
        if ball:
            radius = data.draw(st.sampled_from([0.0, 1.0, 2.0, 2.5, math.sqrt(5.0)]) | st.floats(0.0, 6.0))
            region = Region.ball([offset + data.draw(self.EDGES) for _ in range(n)], radius)
        else:
            edges = [data.draw(st.tuples(self.EDGES, self.WIDTHS)) for _ in range(n)]
            ivs = [(offset + a, offset + a + w) for a, w in edges]
            assume(all(float(a) < float(b) for a, b in ivs))  # far out, a float may join the ends
            region = Region.box(ivs)
        want = region.contains(rows.astype(float))
        assert np.array_equal(region.contains(rows), want)
        if offset == 0:
            assert np.array_equal(region.contains(rows.astype(np.int32)), want)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(InvalidArgument):
            Region.box([(2, 1)])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_regions_rejected(self, bad):
        with pytest.raises(InvalidArgument, match="must be finite"):
            Region.box([(0, 1), (0, bad)])
        with pytest.raises(InvalidArgument, match="must be finite"):
            Region.ball([0.0, bad], 1.0)
        with pytest.raises(InvalidArgument, match="must be finite"):
            Region.ball([0.0, 0.0], bad)


class TestPatchKeys:
    def test_make_sorted_with_zero(self):
        key = make_patch_key([(1, 0), (0, 0), (-1, 2)])
        assert key == ((-1, 2), (0, 0), (1, 0))
        validate_patch_key(key)

    def test_zero_required(self):
        with pytest.raises(InvalidArgument):
            validate_patch_key(((1,), (2,)))

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidArgument):
            make_patch_key([(0,), (1,), (1,)])

    @pytest.mark.parametrize(
        "diffs",
        [
            5, [0, 1], [(0,), ("x",)], [(0,), ("2",)], [(0,), (1.5,)], [(0,), (None,)],
            # operator.index(True) is 1, so booleans must be turned away by type
            [(0,), (True,)], [(False,), (1,)], [(0,), (np.bool_(True),)],
        ],
    )
    def test_entries_that_are_not_integer_vectors(self, diffs):
        with pytest.raises(InvalidArgument, match="list of integer vectors"):
            make_patch_key(diffs)

    @given(
        st.sets(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=0, max_size=8
        )
    )
    def test_always_canonical(self, offsets):
        key = make_patch_key(sorted(offsets | {(0, 0)}))
        assert key == tuple(sorted(key))
        assert (0, 0) in key
        validate_patch_key(key)


class TestExactPointSet:
    def test_points_are_projected_addresses(self):
        ps = gen_fibonacci().materialize(Region.box([(-10, 10)]))
        assert np.allclose(ps.points, ps.addresses @ ps.projection)

    def test_distinct_addresses_enforced(self):
        with pytest.raises(InvalidArgument):
            ExactPointSet(
                dimension=1,
                rank=1,
                projection=np.array([[1.0]]),
                addresses=np.array([[0], [0]]),
                region=Region.box([(-1, 1)]),
            )

    @staticmethod
    def rank_set(addresses, rank):
        return ExactPointSet(
            dimension=1,
            rank=rank,
            projection=np.ones((rank, 1)),
            addresses=np.asarray(addresses, dtype=np.int64).reshape(-1, rank),
            region=Region.box([(-1, 1)]),
        )

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_duplicate_rows_rejected_at_every_rank(self, rank):
        rows = np.arange(5 * rank, dtype=np.int64).reshape(5, rank) - 7
        dup = np.concatenate([rows, rows[3:4]])
        with pytest.raises(InvalidArgument, match="addresses must be distinct"):
            self.rank_set(dup, rank)
        assert len(self.rank_set(rows, rank)) == 5

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_rows_differing_in_sign_or_high_bits_accepted(self, rank):
        base = np.full(rank, 5, dtype=np.int64)
        rows = [base, -base, base + (1 << 40), base - (1 << 62)]
        for j in range(rank):
            flip = base.copy()
            flip[j] = -flip[j]
            high = base.copy()
            high[j] |= 1 << 61
            rows += [flip, high]
        rows = np.unique(np.array(rows), axis=0)
        assert len(self.rank_set(rows, rank)) == rows.shape[0]

    def test_full_int64_span_is_exact(self):
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        rows = np.array([[lo, 0], [hi, 0], [hi, 1], [lo + 1, 0]], dtype=np.int64)
        code, cells = lex_code(rows.T)  # a box of 2^65 cells: ranks instead
        assert code.tolist() == [0, 2, 3, 1] and cells == 4
        assert len(self.rank_set(rows, 2)) == 4
        with pytest.raises(InvalidArgument, match="addresses must be distinct"):
            self.rank_set(np.concatenate([rows, rows[1:2]]), 2)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_short_spans_code_in_their_box(self, rank):
        spans = np.random.default_rng(rank).integers(0, 101, size=(30, rank))
        spans[0] = 0
        spans[1, 0] = 200
        code, cells = lex_code((spans - (1 << 50)).T)
        sizes = spans.max(axis=0) + 1
        assert cells == np.prod(sizes)
        assert np.array_equal(code, np.ravel_multi_index(tuple(spans.T), sizes))

    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from([1, 1 << 40, 1 << 62]),
    )
    def test_lex_order_is_a_stable_lexsort(self, rows, scale):
        # duplicate rows keep their order; at scale 2^62 the box is too large
        # for one int64 key and the order falls back to np.lexsort
        rows = np.array(rows, dtype=np.int64) * np.array([scale, 1, 1])
        assert np.array_equal(lex_order(rows), np.lexsort(rows.T[::-1]))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda rank: st.tuples(
                st.lists(
                    st.lists(st.integers(-2, 2), min_size=rank, max_size=rank),
                    min_size=1,
                    max_size=30,
                ),
                st.lists(st.integers(-(1 << 40), 1 << 40), min_size=rank, max_size=rank),
            )
        )
    )
    def test_lex_codes_group_rows_on_every_route(self, case):
        entries, offset = case
        rows = np.array(entries, dtype=np.int64) + np.array(offset, dtype=np.int64)
        tuples = list(map(tuple, rows.tolist()))
        distinct = sorted(set(tuples))
        want = np.array([distinct.index(t) for t in tuples])

        def check(rows, want):
            code, cells = lex_code(rows.T)
            assert code.max() < cells
            # codes ascend in lex order and are equal exactly when rows are
            order = np.lexsort(rows.T[::-1])
            assert np.all(np.diff(code[order]) >= 0)
            steps = np.any(np.diff(rows[order], axis=0), axis=1)
            assert np.array_equal(np.diff(code[order]) > 0, steps)
            ids, first = unique_rows(list(rows.T))
            assert np.array_equal(ids, want)
            assert np.array_equal(rows[first][ids], rows)
            return cells

        # tiled until the box holds no more cells than there are rows: the
        # dense count
        cells = int(np.prod(np.ptp(rows, axis=0) + 1))
        reps = -(-cells // rows.shape[0])
        assert check(np.tile(rows, (reps, 1)), np.tile(want, reps)) <= reps * rows.shape[0]
        # spread out, which keeps lex order and grouping: one np.unique
        spread = (rows - rows.min(axis=0)) * 97 - (1 << 40)
        if len(distinct) > 1:
            assert check(spread, want) > rows.shape[0]
        # a box past LEX_CODE_CELLS: ranks from np.lexsort
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core_mod, "LEX_CODE_CELLS", 0)
            assert check(rows, want) == len(distinct)

    def test_empty_addresses_accepted(self):
        for rank in (1, 3):
            assert len(self.rank_set(np.zeros((0, rank)), rank)) == 0

    def test_projection_shape_enforced(self):
        with pytest.raises(InvalidArgument):
            ExactPointSet(
                dimension=2,
                rank=1,
                projection=np.array([[1.0]]),
                addresses=np.array([[0]]),
                region=Region.box([(-1, 1), (-1, 1)]),
            )

    def test_project_single_address(self):
        ps = gen_fibonacci().materialize(Region.box([(-10, 10)]))
        pos = project(ps, [2, 1])
        assert pos[0] == pytest.approx(2 + GOLDEN_TAU)

    def test_save_load_round_trip(self, tmp_path):
        ps = gen_fibonacci().materialize(Region.box([(-10, 10)]))
        path = str(tmp_path / "ps.json")
        save_point_set(ps, path)
        again = load_point_set(path)
        assert np.array_equal(ps.addresses, again.addresses)
        assert np.allclose(ps.projection, again.projection)
        assert ps.region == again.region


class TestFloatPointSet:
    def test_close_pair_rejected_with_offenders(self):
        with pytest.raises(InvalidArgument) as err:
            FloatPointSet(
                np.array([[0.0], [0.5], [0.5 + 1e-9]]),
                tolerance=1e-6,
                region=Region.box([(-1, 1)]),
            )
        assert "(1, 2)" in str(err.value)

    def test_first_twenty_offenders_in_order_as_plain_ints(self):
        # 60 random points with tolerance 0.1: the tree finds their pairs out of order
        pts = np.random.default_rng(0).random((60, 2))
        with pytest.raises(InvalidArgument) as err:
            FloatPointSet(pts, tolerance=0.1, region=Region.box([(0, 1)] * 2))
        close = [p for p in itertools.combinations(range(60), 2) if math.dist(*pts[list(p)]) <= 0.1]
        assert len(close) > 20
        assert str(err.value) == "points closer than tolerance at index pairs " + repr(close[:20])

    def test_round_trip(self, tmp_path):
        fps = FloatPointSet(
            np.array([[0.0], [1.0], [2.5]]), tolerance=0.1, region=Region.box([(-3, 3)])
        )
        path = str(tmp_path / "f.json")
        save_point_set(fps, path)
        again = load_point_set(path)
        assert isinstance(again, FloatPointSet)
        assert np.allclose(fps.points, again.points)
        assert again.tolerance == 0.1

    def test_bad_tolerance(self):
        # a NaN tolerance finds no close pair, so it would pass coincident points
        for tolerance in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidArgument, match="finite and positive"):
                FloatPointSet(np.array([[0.0], [0.0], [1.0]]), tolerance, Region.box([(-1, 2)]))

    @pytest.mark.parametrize(
        "obj, what",
        [
            ({"dimension": 1, "rank": 1, "addresses": [[0]], "region": BOX_JSON}, "KeyError: 'projection'"),
            ({"points": [[0.0], [1.0]], "tolerance": "abc", "region": BOX_JSON}, "ValueError"),
            ({"points": [[0.0], [1.0]], "tolerance": 0.1, "region": [[-1, 2]]}, "malformed region"),
            ([[0.0], [1.0]], "not a list"),
        ],
        ids=["exact-no-projection", "tolerance-not-a-number", "region-not-an-object", "top-level-list"],
    )
    def test_malformed_file(self, tmp_path, obj, what):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(InvalidArgument, match=what):
            load_point_set(str(path))

    def test_dimension_header_mismatch(self):
        obj = {
            "dimension": 3,
            "points": [[0.0, 1.0]],
            "tolerance": 1e-6,
            "region": {"kind": "box", "intervals": [[-1, 1], [-1, 1]]},
        }
        with pytest.raises(InvalidArgument):
            FloatPointSet.from_json(obj)


class TestDeloneConstants:
    def test_integer_lattice_line(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-20, 20)]))
        r, R = delone_constants(ps)
        assert r == pytest.approx(0.5)
        assert R == pytest.approx(0.5)

    def test_fibonacci_half_tau(self):
        ps = gen_fibonacci().materialize(Region.box([(-30, 30)]))
        r, R = delone_constants(ps)
        assert r == pytest.approx(0.5)
        assert R == pytest.approx(GOLDEN_TAU / 2, abs=1e-9)

    def test_square_lattice(self, monkeypatch):
        monkeypatch.setattr(core_mod, "COVERING_RESOLUTION_SHARE", 0.04)  # resolution 0.02 at r = 0.5
        ps = gen_integer_lattice(2).materialize(Region.box([(-8, 8)] * 2))
        r, R = delone_constants(ps)
        assert r == pytest.approx(0.5)
        # true covering radius is sqrt(2)/2; the certified bracket may
        # overshoot it by at most half the resolution
        assert math.sqrt(2) / 2 - 1e-9 <= R <= math.sqrt(2) / 2 + 0.05

    def test_needs_two_points(self):
        with pytest.raises(InsufficientData):
            delone_constants(line_set([0]))

    def test_window_that_cannot_be_eroded(self):
        # 0 and 1 in [-3, 3]: the first pass gives R = 3 (from the end -3),
        # and eroding [-3, 3] by 3 leaves no interval
        ps = ExactPointSet(1, 1, np.eye(1), [[0], [1]], Region.box([(-3, 3)]))
        with pytest.raises(InsufficientData, match="window too small"):
            delone_constants(ps)

    def test_packing_radius_is_r(self):
        fib = gen_fibonacci().materialize(Region.box([(-30, 30)]))
        lines = gen_deleted_lines([2]).materialize(Region.box([(-6, 6)] * 3))
        shifted = fib.points[::3] + 0.25
        floats = FloatPointSet(shifted, tolerance=1e-9, region=Region.box([(-29, 31)]))
        for ps in (fib, lines, floats):
            brute = float(pdist(ps.points).min()) / 2.0
            assert packing_radius(ps) == delone_constants(ps)[0] == pytest.approx(brute)
        assert packing_radius(line_set([0])) == math.inf

    def test_packing_radius_of_far_clusters_pays_for_their_pairs(self):
        # two 40 x 40 unit grids 10^6 apart: a start at the mean spacing over
        # the bounding box held every pair of a cluster (123 MB)
        grid = np.stack(np.meshgrid(np.arange(40.0), np.arange(40.0)), axis=-1).reshape(-1, 2)
        ps = FloatPointSet(
            np.concatenate([grid, grid + 1e6]),
            tolerance=1e-9,
            region=Region.box([(-1, 1e6 + 40)] * 2),
        )
        tracemalloc.start()
        try:
            r = packing_radius(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r == 0.5
        assert peak < 5e6

    def test_packing_radius_of_a_turned_lattice_pays_for_its_pairs(self):
        # Z^2 turned by 0.3 rad: no two points share a coordinate, and points
        # next to each other in lex order differ by long vectors; a start at
        # the shortest such gap (13.6) held 1.6 * 10^6 pairs (76 MB)
        c, s = math.cos(0.3), math.sin(0.3)
        grid = np.stack(np.meshgrid(np.arange(-80.0, 81.0), np.arange(-80.0, 81.0)), axis=-1)
        pts = grid.reshape(-1, 2) @ np.array([[c, s], [-s, c]])
        pts = pts[np.all(np.abs(pts) <= 40, axis=1)]
        ps = FloatPointSet(pts, tolerance=1e-9, region=Region.box([(-40, 40)] * 2))
        tracemalloc.start()
        try:
            r = packing_radius(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r == pytest.approx(0.5)
        assert peak < 5e6

    def test_packing_radius_of_coincident_points_is_zero(self):
        # the second address coordinate projects to 0: (3, 0) and (3, 1) coincide
        addr = np.array([[0, 0], [3, 0], [3, 1], [7, 0]])
        ps = ExactPointSet(1, 2, np.array([[1.0], [0.0]]), addr, Region.box([(-1, 8)]))
        assert packing_radius(ps) == 0.0
        # no positive gap on any axis: there is no radius to double from
        assert packing_radius(ExactPointSet(1, 2, ps.projection, addr[1:3], ps.region)) == 0.0


class TestNaturalDistance:
    def test_identical_sets(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-20, 20)]))
        assert natural_distance(ps, ps, 10.0) == 0.0

    def test_shifted_copy(self):
        base = gen_integer_lattice(1).materialize(Region.box([(-20, 20)]))
        shifted = FloatPointSet(
            base.points + 0.3, tolerance=1e-9, region=base.region
        )
        as_float = FloatPointSet(base.points, tolerance=1e-9, region=base.region)
        assert natural_distance(as_float, shifted, 10.0) == pytest.approx(0.3)

    def test_capped_at_one(self):
        sparse = line_set([0])
        dense = gen_integer_lattice(1).materialize(Region.box([(-20, 20)]))
        assert natural_distance(sparse, dense, 10.0) == 1.0

    def test_dyadic_shift_is_exact(self):
        base = gen_integer_lattice(2).materialize(Region.box([(-12, 12)] * 2))
        as_float = FloatPointSet(base.points, tolerance=1e-9, region=base.region)
        shifted = FloatPointSet(base.points + [0.25, 0.0], tolerance=1e-9, region=base.region)
        assert natural_distance(as_float, shifted, 10.0) == 0.25

    def test_empty_second_set_is_the_cap(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-20, 20)]))
        empty = FloatPointSet(np.zeros((0, 1)), tolerance=1e-9, region=ps.region)
        assert natural_distance(ps, empty, 10.0) == 1.0
        assert natural_distance(empty, empty, 10.0) == 0.0

    def test_raw_arrays_are_m_by_n(self):
        # a flat list is not read as one point of dimension m
        column = [[0.0], [0.5]]
        for flat in ([0.0, 0.5], np.zeros((2, 1, 1)), 0.5):
            shape = np.shape(flat)
            with pytest.raises(InvalidArgument, match=re.escape("not %s and (2, 1)" % (shape,))):
                natural_distance(flat, column, 3.0)
            with pytest.raises(InvalidArgument, match=re.escape("not (2, 1) and %s" % (shape,))):
                natural_distance(column, flat, 3.0)
        with pytest.raises(InvalidArgument, match=re.escape("not (2,) and (2,)")):
            natural_distance([0.0, 0.5], [0.0, 0.5], 3.0)
        with pytest.raises(InvalidArgument, match=re.escape("not (2, 1) and (1, 2)")):
            natural_distance(column, [[0.0, 0.5]], 3.0)
        assert natural_distance(column, [[0.0], [0.75]], 3.0) == 0.25
        assert natural_distance(np.zeros((0, 1)), [[0.0]], 3.0) == 1.0

    def test_symmetry(self):
        a = gen_integer_lattice(1).materialize(Region.box([(-20, 20)]))
        b = gen_fibonacci().materialize(Region.box([(-20, 20)]))
        assert natural_distance(a, b, 8.0) == pytest.approx(
            natural_distance(b, a, 8.0)
        )


def grid_rows(n):
    return st.lists(st.tuples(*[st.integers(-8, 8)] * n), max_size=25).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(-1, n)
    )


def package_imports() -> set:
    """(module, outermost function, imported name) for each import in the
    package; None for a module-level import, leading dots for a relative
    one."""
    found = set()

    def walk(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, module, where or child.name)
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                head = "." * child.level + (child.module + "." if child.module else "")
                names = [head + a.name for a in child.names]
            else:
                names = []
            found.update((module, where, m) for m in names)
            walk(child, module, where)

    for path in sorted(Path(core_mod.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, None)
    return found


def test_one_function_level_import_within_the_package():
    # delone_constants imports repetitivity late: repetitivity imports core,
    # so a module-level import would be a cycle
    late = {i for i in package_imports() if i[1] is not None and i[2].startswith(".")}
    assert late == {("core", "delone_constants", ".repetitivity.covering_radius")}


class TestPairsWithin:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 3),
        p=st.sampled_from([2.0, math.inf]),
        origin=st.sampled_from([0.0, 3e5, 2.0**30]),
        cross=st.booleans(),
        r4=st.integers(0, 12),
        data=st.data(),
    )
    def test_equals_brute_force(self, n, p, origin, cross, r4, data):
        # points and radius on the quarter grid, so every distance is exact,
        # coordinates are often shared, and many pairs sit exactly at rad
        ka = data.draw(grid_rows(n))
        kb = data.draw(grid_rows(n)) if cross else ka
        d = np.abs(ka[:, None, :] - kb[None, :, :])
        near = (d.max(axis=2) <= r4) if p == math.inf else ((d * d).sum(axis=2) <= r4 * r4)
        if not cross:
            near &= np.triu(np.ones_like(near), k=1)
        a, b = origin + ka / 4.0, origin + kb / 4.0
        i, j = pairs_within(a, r4 / 4.0, p=p, b=b if cross else None)
        assert i.dtype == j.dtype == np.int64
        got = list(zip(i.tolist(), j.tolist()))
        assert len(got) == len(set(got))  # each pair once
        assert set(got) == set(zip(*np.nonzero(near)))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 3),
        p=st.sampled_from([2.0, math.inf]),
        budget=st.sampled_from([1, 5, 40, math.inf]),
        per_row=st.booleans(),
        data=st.data(),
    )
    def test_blocks_take_each_row_once_and_find_every_pair(self, n, p, budget, per_row, data):
        # quarter-grid points and radii, one per row of a or one for all
        ka, kb = data.draw(grid_rows(n)), data.draw(grid_rows(n))
        quarters = st.sampled_from([0, 1, 2, 5])
        if per_row:
            r4 = np.array(data.draw(st.lists(quarters, min_size=len(ka), max_size=len(ka))), dtype=int)
        else:
            r4 = data.draw(quarters)
        d = np.abs(ka[:, None, :] - kb[None, :, :])
        lim = np.broadcast_to(r4, (len(ka),))[:, None]
        near = (d.max(axis=2) <= lim) if p == math.inf else ((d * d).sum(axis=2) <= lim * lim)
        blocks = list(PairIndex(kb / 4.0, p).blocks(ka / 4.0, r4 / 4.0, budget))
        rows = np.concatenate([np.zeros(0, dtype=np.int64)] + [r for r, _, _ in blocks])
        assert sorted(rows.tolist()) == list(range(len(ka)))
        got = [(int(r[i]), int(j)) for r, ii, jj in blocks for i, j in zip(ii, jj)]
        assert len(got) == len(set(got))
        assert set(got) == set(zip(*np.nonzero(near)))
        if not per_row and budget == math.inf:
            assert len(blocks) == 1
        if n == 1:
            # on the quarter grid the sweep's candidates are its pairs
            most = near.sum(axis=1).max(initial=0)
            assert all(len(r) == 1 or ii.size <= budget + most for r, ii, _ in blocks)

    def test_empty_and_single_row(self):
        one, empty = np.zeros((1, 2)), np.zeros((0, 2))
        for a, b, count in [(empty, None, 0), (one, None, 0), (empty, one, 0), (one, empty, 0), (one, one, 1)]:
            i, j = pairs_within(a, 1.0, b=b)
            assert i.dtype == j.dtype == np.int64
            assert i.size == j.size == count

    @settings(max_examples=300, deadline=None)
    @given(
        origin=st.sampled_from([0.0, 3e5, 2.0**30, 2.0**52 - 2]),
        rad=st.sampled_from([0.0, 0.1, 0.25, 1.0, 1.5, 7 / 3]),
        cross=st.booleans(),
        data=st.data(),
    )
    def test_one_coordinate_equals_brute_force(self, origin, rad, cross, data):
        # unsorted rows with repeats, and partners at rad give or take two
        # ulps: across 0, |x - y| rounds; near 2^52, x -+ rad does
        def rows():
            coords = st.floats(-4, 4) | st.sampled_from([-1.0, 0.0, 0.5])
            x = origin + np.array(data.draw(st.lists(coords, max_size=20)))
            pick = st.tuples(st.integers(0, 19), st.sampled_from([-rad, rad]), st.integers(-2, 2))
            picks = data.draw(st.lists(pick, max_size=10 if x.size else 0))
            partners = []
            for k, r, u in picks:
                y = x[k % x.size] + r
                for _ in range(abs(u)):
                    y = np.nextafter(y, math.copysign(math.inf, u))
                partners.append(y)
            x = np.concatenate([x, partners])
            return x[data.draw(st.permutations(range(x.size)))].reshape(-1, 1)

        a = rows()
        b = rows() if cross else a
        near = np.abs(a - b.T) <= rad
        if not cross:
            near &= np.triu(np.ones_like(near), k=1)
        p = data.draw(st.sampled_from([1.0, 2.0, math.inf]))
        i, j = pairs_within(a, rad, p=p, b=b if cross else None)
        assert i.dtype == j.dtype == np.int64
        got = list(zip(i.tolist(), j.tolist()))
        assert len(got) == len(set(got))
        assert set(got) == set(zip(*np.nonzero(near)))

    def test_one_coordinate_bounds_reach_past_their_rounding(self):
        # x - y rounds to rad, but x -+ rad rounds past y
        x, y = np.array([[4.534978894806515e-15]]), np.array([[-0.12499999999999548]])
        assert abs(x - y)[0, 0] == 0.125 and y[0, 0] < x[0, 0] - 0.125 and x[0, 0] > y[0, 0] + 0.125
        for a, b in ((x, y), (y, x)):
            assert pairs_within(a, 0.125, b=b)[0].size == 1
            assert pairs_within(np.concatenate([a, b]), 0.125)[0].size == 1

    def test_one_coordinate_builds_no_tree(self, monkeypatch):
        def no_tree(*args, **kwargs):
            raise AssertionError("a one-coordinate pair search built a cKDTree")

        monkeypatch.setattr(scipy.spatial, "cKDTree", no_tree)
        x = np.array([[2.5], [0.0], [1.0], [0.0]])
        assert sorted(zip(*map(list, pairs_within(x, 1.0)))) == [(1, 2), (1, 3), (2, 3)]
        assert sorted(zip(*map(list, pairs_within(x, 1.0, b=x[:2])))) == [(0, 0), (1, 1), (2, 1), (3, 1)]
        for source in (gen_fibonacci(), gen_cut_project_1d("golden")):
            ps = source.materialize(Region.box([(-300, 300)]))
            assert compute_atlas(ps, 4.0).engine == "kdtree"
            assert packing_radius(ps) > 0

    def test_only_pairs_within_builds_a_tree(self):
        # the covering radius keeps its own nearest queries and the Lipschitz
        # scan its cdist; any other neighbour query goes through PairIndex
        assert {i for i in package_imports() if i[2].startswith("scipy.spatial")} == {
            ("core", "PairIndex", "scipy.spatial.cKDTree"),
            ("repetitivity", "covering_radii", "scipy.spatial.cKDTree"),
            ("address", "lipschitz_constant", "scipy.spatial.distance.cdist"),
        }
