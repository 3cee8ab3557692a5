"""Patch classification on finite windows."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone_lab.atlas import (
    WindowPolicy,
    _engine_kdtree,
    _engine_lattice,
    _erosion_margin,
    _ladder,
    atlas_ladder,
    compute_atlas,
    entropy_probe,
    patch_count_profile,
)
from delone_lab.core import ExactPointSet, Region, make_patch_key
from delone_lab.errors import InvalidArgument, WindowTooSmall
from delone_lab.generators import (
    gen_cut_project_1d,
    gen_deleted_lines,
    gen_fibonacci,
    gen_integer_lattice,
    gen_product,
)


def brute_atlas(ps, T, shape="ball"):
    """Quadratic reference classifier, independent of the engine code."""
    if shape == "ball":
        margin = T
    elif ps.region.kind == "box":
        margin = T / 2.0
    else:
        margin = (T / 2.0) * math.sqrt(ps.dimension)
    cert = ps.region.erode(margin)
    pts, addr = ps.points, ps.addresses
    out = {}
    for i in range(len(pts)):
        if not cert.contains(pts[i : i + 1])[0]:
            continue
        offs = []
        for j in range(len(pts)):
            d = pts[j] - pts[i]
            if shape == "ball":
                inside = float(d @ d) <= T * T + 1e-9
            else:
                inside = float(np.max(np.abs(d))) <= T / 2.0 + 1e-9
            if inside:
                offs.append(tuple(int(v) for v in addr[j] - addr[i]))
        key = make_patch_key(sorted(offs))
        out.setdefault(key, []).append(tuple(int(v) for v in addr[i]))
    return {k: sorted(v) for k, v in out.items()}


def as_dict(atlas):
    return {c.key: [tuple(int(v) for v in row) for row in c.centers] for c in atlas.classes}


class TestLatticeAtlas:
    def test_single_class(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-10, 10)]))
        at = compute_atlas(ps, 3.0)
        assert at.n_lower == 1
        assert at.total_centers == 15
        assert at.classes[0].key == tuple((k,) for k in range(-3, 4))

    def test_boundary_flags_at_integer_radius(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-10, 10)]))
        at = compute_atlas(ps, 3.0)
        # each of the 15 centers sees 2 points at exactly distance 3
        assert at.boundary_flag_count == 30
        assert len(at.boundary_flags) == 30

    def test_no_flags_off_integer(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-10, 10)]))
        assert compute_atlas(ps, 2.5).boundary_flag_count == 0

    def test_flag_cap_truncates_list_not_count(self):
        ps = gen_integer_lattice(2, deletions=[(0, 0)]).materialize(
            Region.box([(-10, 10)] * 2)
        )
        at = compute_atlas(ps, 1.0, flag_cap=100)
        assert at.boundary_flag_count == 1436
        assert len(at.boundary_flags) == 100


class TestPuncturedLattice:
    def test_matches_brute_force_ball(self):
        ps = gen_integer_lattice(2, deletions=[(0, 0)]).materialize(
            Region.box([(-7, 7)] * 2)
        )
        at = compute_atlas(ps, 1.0)
        assert at.engine == "lattice"
        assert as_dict(at) == brute_atlas(ps, 1.0)
        assert at.n_lower == 5

    def test_matches_brute_force_cube(self):
        ps = gen_integer_lattice(2, deletions=[(0, 0)]).materialize(
            Region.box([(-7, 7)] * 2)
        )
        at = compute_atlas(ps, 2.0, shape="cube")
        assert as_dict(at) == brute_atlas(ps, 2.0, shape="cube")
        assert at.n_lower == 9

    def test_hole_neighbors_are_singletons(self):
        ps = gen_integer_lattice(2, deletions=[(0, 0)]).materialize(
            Region.box([(-7, 7)] * 2)
        )
        at = compute_atlas(ps, 1.0)
        sizes = sorted(c.centers.shape[0] for c in at.classes)
        assert sizes[:4] == [1, 1, 1, 1]
        full = make_patch_key([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
        assert at.class_for(full).centers.shape[0] == sizes[-1]


class TestLatticeEngine:
    """Dense occupancy lookup; rows of K bits group as one or several words."""

    FAR = 1 << 21

    def holes(self, c):
        src = gen_integer_lattice(2, deletions=[(c, c), (c + 3, c + 1)])
        return src.materialize(Region.box([(c - 9, c + 9)] * 2))

    def test_far_window_matches_origin_translated(self):
        near, far = self.holes(0), self.holes(self.FAR)
        a, b = compute_atlas(near, 2.000001), compute_atlas(far, 2.000001)
        assert a.engine == b.engine == "lattice"
        assert as_dict(b) == brute_atlas(far, 2.000001)
        assert a.keys() == b.keys()
        for ca, cb in zip(a.classes, b.classes):
            assert np.array_equal(ca.centers + self.FAR, cb.centers)

    def test_single_word_rows_2d(self):
        ps = self.holes(0)
        at = compute_atlas(ps, 4.000001)  # K = 49 offsets
        assert at.engine == "lattice"
        assert max(len(k) for k in at.keys()) <= 64
        assert as_dict(at) == brute_atlas(ps, 4.000001)

    def test_multi_word_rows_3d_ball(self):
        src = gen_integer_lattice(3, deletions=[(4, 4, 4), (-5, 0, 1)])
        ps = src.materialize(Region.box([(-6.5, 6.5)] * 3))
        at = compute_atlas(ps, 4.000001)  # K = 257 offsets
        assert at.engine == "lattice"
        assert max(len(k) for k in at.keys()) == 257
        assert max(c.centers.shape[0] for c in at.classes) > 1
        assert as_dict(at) == brute_atlas(ps, 4.000001)

    def test_3d_cube(self):
        ps = gen_deleted_lines([2]).materialize(Region.box([(-5, 5)] * 3))
        at = compute_atlas(ps, 4.000001, shape="cube")
        assert at.engine == "lattice"
        assert as_dict(at) == brute_atlas(ps, 4.000001, shape="cube")

    def test_empty_window_edge(self):
        # no points on two faces of the window: patches reach past the
        # addresses' box, which the occupancy array must cover
        edge = [(-7, k) for k in range(-7, 8)] + [(k, -7) for k in range(-6, 8)]
        ps = gen_integer_lattice(2, deletions=edge).materialize(Region.box([(-7.5, 7.5)] * 2))
        at = compute_atlas(ps, 2.000001)
        assert at.engine == "lattice"
        assert as_dict(at) == brute_atlas(ps, 2.000001)

    def test_sparse_subset_of_zn_uses_kdtree(self):
        # two clusters 10^6 apart: an occupancy array over their box would
        # need 10^12 cells
        block = np.array([(x, y) for x in range(4) for y in range(4)])
        addr = np.concatenate([block, block + 10**6])
        ps = ExactPointSet(2, 2, np.eye(2), addr, Region.box([(0, 10**6 + 3)] * 2))
        at = compute_atlas(ps, 1.0)
        assert at.engine == "kdtree"
        assert as_dict(at) == brute_atlas(ps, 1.0)

    def test_far_sparse_runs_use_kdtree(self):
        # two runs of ten integers 4 195 570 apart: an occupancy array over
        # their box would hold some 2 * 10^5 cells per point
        ps = sparse_line(4_195_570)
        at = compute_atlas(ps, 2.0)
        assert at.engine == "kdtree"
        assert as_dict(at) == brute_atlas(ps, 2.0)

    def test_scattered_points_use_kdtree(self):
        addr = np.unique(np.random.default_rng(0).integers(0, 2000, size=(400, 2)), axis=0)
        ps = ExactPointSet(2, 2, np.eye(2), addr, Region.box([(0, 1999)] * 2))
        at = compute_atlas(ps, 3.0)
        assert at.engine == "kdtree"
        assert as_dict(at) == brute_atlas(ps, 3.0)

    def test_few_centers_of_a_complete_window_use_lattice(self):
        # 26 centers, and the centers' box grown by 2T + 1 is the window:
        # one cell per point
        src = gen_integer_lattice(3, deletions=[(0, 0, 0)])
        ps = src.materialize(Region.box([(-6, 6)] * 3))
        at = compute_atlas(ps, 5.0)
        assert at.engine == "lattice"
        assert at.total_centers == 26
        assert as_dict(at) == brute_atlas(ps, 5.0)

    def test_far_line_uses_lattice(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(self.FAR - 20, self.FAR + 20)]))
        at = compute_atlas(ps, 3.0)
        assert at.engine == "lattice"
        assert as_dict(at) == brute_atlas(ps, 3.0)


class TestFibonacciAtlas:
    def test_three_classes_frozen_keys(self):
        ps = gen_fibonacci().materialize(Region.box([(-60, 60)]))
        at = compute_atlas(ps, 1.2)
        assert at.engine == "kdtree"
        assert at.keys() == [
            ((-1, 0), (0, 0)),
            ((0, 0),),
            ((0, 0), (1, 0)),
        ]
        assert [c.centers.shape[0] for c in at.classes] == [33, 19, 33]

    def test_matches_brute_force(self):
        ps = gen_fibonacci().materialize(Region.box([(-25, 25)]))
        for T in (1.2, 2.0, 3.5):
            assert as_dict(compute_atlas(ps, T)) == brute_atlas(ps, T)

    def test_window_translation_keeps_keys(self):
        a = compute_atlas(gen_fibonacci().materialize(Region.box([(-60, 60)])), 1.2)
        b = compute_atlas(gen_fibonacci().materialize(Region.box([(-100, 40)])), 1.2)
        assert a.keys() == b.keys()

    def test_cubical_equals_half_radius_in_1d(self):
        ps = gen_fibonacci().materialize(Region.box([(-60, 60)]))
        for T in (1.2, 2.4, 3.0, 6.0):
            cube = compute_atlas(ps, T, shape="cube")
            ball = compute_atlas(ps, T / 2.0)
            assert cube.keys() == ball.keys()
            for ck, bk in zip(cube.classes, ball.classes):
                assert np.array_equal(ck.centers, bk.centers)


def coincident_pairs(c, half=12):
    """Rank-2 addresses (k, 0) and (k - 1, 1), both at x = k, listed in
    alternating order around the integer c."""
    rows = []
    for k in range(c - half, c + half + 1):
        pair = [(k, 0), (k - 1, 1)]
        rows += pair if k % 2 else pair[::-1]
    return ExactPointSet(1, 2, np.ones((2, 1)), np.array(rows), Region.box([(c - half, c + half)]))


class TestEngines:
    @pytest.mark.parametrize("shape", ["ball", "cube"])
    @pytest.mark.parametrize("c", [0, 300_000, 10**9])
    @pytest.mark.parametrize("kind", ["fibonacci", "cut_project", "coincident", "fibxfib"])
    def test_kdtree_matches_brute_force(self, kind, c, shape):
        if kind == "coincident":
            ps = coincident_pairs(c)
        elif kind == "fibxfib":
            src = gen_product([gen_fibonacci(), gen_fibonacci()])
            ps = src.materialize(Region.box([(c - 5, c + 5)] * 2))
        else:
            src = gen_fibonacci() if kind == "fibonacci" else gen_cut_project_1d("golden")
            ps = src.materialize(Region.box([(c - 20, c + 20)]))
        for T in (1.0, 1.2, 2.0, 3.5):
            at = compute_atlas(ps, T, shape=shape)
            assert at.engine == "kdtree"
            assert as_dict(at) == brute_atlas(ps, T, shape=shape)

    def test_fibonacci_flag_counts_frozen(self):
        # short gaps are exactly 1; no two points are exactly 2 or 4 apart
        ps = gen_fibonacci().materialize(Region.box([(-130, 130)]))
        assert [compute_atlas(ps, T).boundary_flag_count for T in (1.0, 2.0, 4.0)] == [142, 0, 0]

    def test_coincident_points_in_mixed_order(self):
        # the two points at each x come in alternating address order, so
        # each center's row must be put in canonical order
        at = compute_atlas(coincident_pairs(0), 1.5)
        assert at.engine == "kdtree"
        assert at.n_lower == 2
        assert as_dict(at) == brute_atlas(coincident_pairs(0), 1.5)

    @pytest.mark.parametrize("kind", ["z2-holes", "fibonacci"])
    def test_centers_lex_sorted_whatever_the_point_order(self, kind):
        if kind == "fibonacci":
            ps = gen_fibonacci().materialize(Region.box([(-20, 20)]))
        else:
            src = gen_integer_lattice(2, deletions=[(0, 0), (3, 1)])
            ps = src.materialize(Region.box([(-9, 9)] * 2))
        perm = np.random.default_rng(0).permutation(len(ps))
        shuffled = ExactPointSet(ps.dimension, ps.rank, ps.projection, ps.addresses[perm], ps.region)
        at = compute_atlas(shuffled, 2.000001)
        assert at.engine == ("kdtree" if kind == "fibonacci" else "lattice")
        assert as_dict(at) == brute_atlas(ps, 2.000001)

    def test_kdtree_on_product_set(self):
        src = gen_product([gen_fibonacci(), gen_integer_lattice(1)])
        ps = src.materialize(Region.box([(-8, 8), (-8, 8)]))
        at = compute_atlas(ps, 1.2)
        assert at.engine == "kdtree"
        assert as_dict(at) == brute_atlas(ps, 1.2)
        assert at.n_lower == 3

    def test_pair_in_query_slack_stays_out(self):
        # the tree query reaches 1e-12 past the ball; a spacing just past
        # T^2 + BALL_TOL is found by it, yet lies outside every patch
        x = math.sqrt(1.0 + 1e-9) * (1.0 + 5e-13)
        addr = np.arange(-6, 7)[:, None]
        ps = ExactPointSet(1, 1, np.array([[x]]), addr, Region.box([(-6 * x, 6 * x)]))
        at = compute_atlas(ps, 1.0)
        assert at.engine == "kdtree"
        assert at.keys() == [((0,),)]
        assert as_dict(at) == brute_atlas(ps, 1.0)

    def test_empty_certified_region(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(0.55, 1.95)]))
        at = compute_atlas(ps, 0.5)
        assert at.engine == "empty"
        assert at.n_lower == 0

    def test_validation(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-5, 5)]))
        with pytest.raises(InvalidArgument):
            compute_atlas(ps, 0.0)
        with pytest.raises(InvalidArgument):
            compute_atlas(ps, 1.0, shape="hexagon")
        with pytest.raises(WindowTooSmall):
            compute_atlas(ps, 20.0)

    def test_empty_point_set(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(0.2, 0.8)]))
        with pytest.raises(WindowTooSmall):
            compute_atlas(ps, 0.1)


class TestEnginesAgree:
    """Both engines on one dense Z^n center set: same classes, same flags."""

    @staticmethod
    def case(name):
        if name.startswith("z2-holes"):
            c = 10**9 if name.endswith("far") else 0
            src = gen_integer_lattice(2, deletions=[(c, c), (c + 3, c + 1)])
            return src.materialize(Region.box([(c - 12, c + 12)] * 2)), (1.0, 2.0, 3.0)
        if name == "deleted-lines":
            # K = 123 ball offsets at T=3: each packed row spans two words
            src = gen_deleted_lines([2, 10])
            return src.materialize(Region.box([(-8, 8)] * 3)), (2.0, 3.0)
        ps = gen_integer_lattice(1).materialize(Region.box([(-30, 30)]))
        return ps, (1.0, 2.0, 3.0, 8.0)

    @pytest.mark.parametrize("shape", ["ball", "cube"])
    @pytest.mark.parametrize("case", ["z2-holes", "z2-holes-far", "deleted-lines", "z1"])
    def test_lattice_and_kdtree_agree(self, case, shape):
        ps, T_values = self.case(case)
        rungs = per_T_rungs(ps, T_values, shape)
        # one ladder per engine, with a small flag cap so the flag lists are
        # cut short too
        lat = _ladder(ps, rungs, shape, 20, _engine_lattice)
        kd = _ladder(ps, rungs, shape, 20, _engine_kdtree)
        flagged = 0
        for T in T_values:
            a, b = lat[T], kd[T]
            assert (a.engine, b.engine) == ("lattice", "kdtree")
            assert a.keys() == b.keys()
            for ca, cb in zip(a.classes, b.classes):
                assert np.array_equal(ca.centers, cb.centers)
            assert a.boundary_flags == b.boundary_flags
            assert a.boundary_flag_count == b.boundary_flag_count
            flagged += a.boundary_flag_count
        assert flagged > 0


FAR = 10**6
# two runs of ten integers; the box of the centers, grown by 2T + 1, holds
# exactly 64 cells per point at T = 1 and T = 2 and more at T = 2.000001
SPARSE_GAP = 1_270


def sparse_line(gap=SPARSE_GAP):
    addr = np.concatenate([np.arange(10), gap + np.arange(10)])[:, None]
    return ExactPointSet(1, 1, np.eye(1), addr, Region.box([(-0.5, gap + 9.5)]))


LADDER_SETS = {
    "z2-holes-box": lambda: gen_integer_lattice(2, deletions=[(FAR, FAR), (FAR + 2, FAR + 1)])
    .materialize(Region.box([(FAR - 4, FAR + 4)] * 2)),
    "z2-holes-ball": lambda: gen_integer_lattice(2, deletions=[(FAR + 1, FAR)])
    .materialize(Region.ball((FAR, FAR), 4.5)),
    "fibonacci": lambda: gen_fibonacci().materialize(Region.box([(300_000 - 12, 300_000 + 12)])),
    "fibxfib": lambda: gen_product([gen_fibonacci(), gen_fibonacci()])
    .materialize(Region.box([(FAR - 4, FAR + 4)] * 2)),
    "sparse-line": sparse_line,
}
LADDER_T = [0.5, 1.0, 1.2, 1.5, 2.0, 2.000001, 2.5, 3.0]


@functools.lru_cache(maxsize=None)
def ladder_set(name):
    return LADDER_SETS[name]()


@functools.lru_cache(maxsize=None)
def brute_for(name, T, shape):
    return brute_atlas(ladder_set(name), T, shape=shape)


def per_T_rungs(ps, T_values, shape="ball"):
    rungs = []
    for T in T_values:
        certified = ps.region.erode(_erosion_margin(T, shape, ps.region.kind, ps.dimension))
        rungs.append((T, certified, certified.contains(ps.points)))
    return rungs


class TestLadder:
    """atlas_ladder: one table per engine run, classes refined shell by shell."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(LADDER_SETS)),
        st.sampled_from(["ball", "cube"]),
        st.lists(st.sampled_from(LADDER_T), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    def test_every_rung_matches_brute_force_and_one_T_atlas(self, name, shape, T_values, seed):
        ps = ladder_set(name)
        perm = np.random.default_rng(seed).permutation(len(ps))
        shuffled = ExactPointSet(
            ps.dimension, ps.rank, ps.projection, ps.addresses[perm], ps.region
        )
        ladder = atlas_ladder(shuffled, T_values, shape=shape)
        assert len(ladder) == len(T_values)
        for T, at in zip(T_values, ladder):
            one = compute_atlas(ps, T, shape=shape)
            assert (at.T, at.shape, at.engine) == (T, shape, one.engine)
            assert at.certified_region == one.certified_region
            assert as_dict(at) == as_dict(one) == brute_for(name, T, shape)
            assert at.keys() == one.keys()
            assert (at.boundary_flag_count, at.boundary_flags) == (
                one.boundary_flag_count,
                one.boundary_flags,
            )

    def test_engine_switches_between_rungs(self):
        ps = sparse_line()
        ladder = atlas_ladder(ps, [2.5, 1.0, 2.0, 2.000001, 1.0])
        engines = [at.engine for at in ladder]
        assert engines == ["kdtree", "lattice", "lattice", "kdtree", "lattice"]
        assert ladder[1] is ladder[4]
        for T, at in zip([2.5, 1.0, 2.0, 2.000001], ladder):
            assert as_dict(at) == brute_atlas(ps, T)

    def test_empty_rungs_at_the_top(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(0.55, 3.95)]))
        ladder = atlas_ladder(ps, [1.6, 0.5, 1.0])
        assert [at.engine for at in ladder] == ["empty", "lattice", "lattice"]
        assert [at.total_centers for at in ladder] == [0, 2, 1]
        assert [at.n_lower for at in ladder] == [0, 1, 1]

    def test_errors_follow_the_caller_order(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-5, 5)]))
        with pytest.raises(WindowTooSmall, match="eroded by 20.0"):
            atlas_ladder(ps, [1.0, 20.0, 0.0, 30.0])
        with pytest.raises(InvalidArgument, match="must be positive"):
            atlas_ladder(ps, [1.0, -1.0, 20.0])
        with pytest.raises(InvalidArgument, match="unknown patch shape"):
            atlas_ladder(ps, [1.0], shape="hexagon")
        assert atlas_ladder(ps, []) == []

    @pytest.mark.parametrize("engine", [_engine_lattice, _engine_kdtree])
    def test_capped_flags_do_not_depend_on_point_order(self, engine):
        # the flag_cap smallest (center, distance) pairs, whatever the order
        ps = gen_integer_lattice(2, deletions=[(0, 0)]).materialize(Region.box([(-10, 10)] * 2))
        perm = np.random.default_rng(3).permutation(len(ps))
        shuffled = ExactPointSet(2, 2, ps.projection, ps.addresses[perm], ps.region)
        every = _ladder(ps, per_T_rungs(ps, [1.0]), "ball", 10**6, engine)[1.0]
        assert len(every.boundary_flags) == every.boundary_flag_count == 1436
        for p in (ps, shuffled):
            at = _ladder(p, per_T_rungs(p, [1.0]), "ball", 100, engine)[1.0]
            assert at.boundary_flag_count == 1436
            assert at.boundary_flags == sorted(every.boundary_flags)[:100]
            assert at.boundary_flags[0] == ((-9, -9), 1.0)


class TestProfile:
    def test_fibonacci_counts(self):
        prof = patch_count_profile(gen_fibonacci(), [1.0, 2.0, 4.0])
        assert [e.n_lower for e in prof] == [3, 3, 7]
        assert all(e.stabilized for e in prof)

    def test_entropy_probe_max_row(self):
        prof = patch_count_profile(gen_fibonacci(), [1.0, 2.0, 4.0])
        rep = entropy_probe(prof, 1)
        assert rep.c0_empirical == pytest.approx(math.log(3.0))
        assert len(rep.rows) == 3
        assert rep.rows[0] == (1.0, pytest.approx(math.log(3.0)))

    def test_budget_exhaustion_is_not_an_error(self):
        policy = WindowPolicy(initial_radius=4.0, max_doublings=0)
        prof = patch_count_profile(gen_fibonacci(), [1.2], policy=policy)
        assert prof[0].stabilized is False
        assert prof[0].window_radius == 4.0

    def test_bad_T_rejected(self):
        with pytest.raises(InvalidArgument):
            patch_count_profile(gen_fibonacci(), [-1.0])

    def test_entropy_skips_unstabilized(self):
        policy = WindowPolicy(initial_radius=4.0, max_doublings=0)
        prof = patch_count_profile(gen_fibonacci(), [1.2], policy=policy)
        rep = entropy_probe(prof, 1)
        assert rep.rows == [] and rep.c0_empirical is None
