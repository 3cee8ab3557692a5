"""Patch classification on finite windows."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delone_lab.atlas as atlas_mod
import delone_lab.core as core_mod
from delone_lab.atlas import (
    _engine_kdtree,
    _engine_lattice,
    _erosion_margin,
    _ladder,
    atlas_ladder,
    compute_atlas,
    entropy_probe,
    estimate_R,
    patch_count_profile,
)
from delone_lab.core import ExactPointSet, Region, lex_order, make_patch_key
from delone_lab.errors import InvalidArgument, WindowTooSmall
from delone_lab.generators import (
    gen_cut_project_1d,
    gen_deleted_lines,
    gen_fibonacci,
    gen_integer_lattice,
    gen_product,
    gen_two_color,
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

    def test_no_flags_off_integer(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-10, 10)]))
        assert compute_atlas(ps, 2.5).boundary_flag_count == 0

    def test_flag_count_of_a_punctured_plane(self):
        ps = gen_integer_lattice(2, deletions=[(0, 0)]).materialize(
            Region.box([(-10, 10)] * 2)
        )
        at = compute_atlas(ps, 1.0)
        assert at.boundary_flag_count == 1436


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

    def test_class_for_compares_arrays(self):
        ps = gen_integer_lattice(2, deletions=[(0, 0)]).materialize(
            Region.box([(-7, 7)] * 2)
        )
        at = compute_atlas(ps, 1.0)
        for c in at.classes:
            assert c.diffs.dtype == np.int64
            # classes index one shared table with narrow rows
            assert c.table is at.classes[0].table and c.rows.itemsize == 1
            assert at.class_for(c.key) is c
            assert at.class_for(reversed(c.key)) is c
        assert at.class_for([(0, 0)]) is None  # never occurs
        assert at.class_for([(0,), (1,)]) is None  # another width
        assert at.class_for([(0, 0), (2**70, 0)]) is None  # past int64


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

    @staticmethod
    def cells_read(ps, T, monkeypatch):
        """(cells the lattice engine and its reader read at T for every
        byte column at every center, offsets, centers)."""
        cidx = np.flatnonzero(ps.region.erode(T).contains(ps.points))
        with monkeypatch.context() as mp:
            mp.setattr(atlas_mod, "np", CountingNumpy())
            CountedReads.reads = 0
            out = _engine_lattice(ps, cidx, "ball", T * T)
            read_all(out, cidx.size)
            return CountedReads.reads, len(out[0]), cidx.size

    @pytest.mark.parametrize("name, T", [("z2-holes", 3.0), ("deleted-lines", 3.0), ("z1", 8.0)])
    def test_cells_read_per_point(self, name, T, monkeypatch):
        """The engine's reader, asked for every byte column at every center,
        reads one occupancy cell per offset within the reach at each site of
        the centers' box, and one byte per center per eight offsets: at most
        k + ceil(k / 8) cells per site of the window's
        address box, for k offsets. The count, not the time, is bounded, and
        it does not depend on where the window sits."""
        if name == "z2-holes":
            ps = self.holes(0)
            assert self.cells_read(self.holes(self.FAR), T, monkeypatch) == self.cells_read(ps, T, monkeypatch)
        elif name == "deleted-lines":
            ps = gen_deleted_lines([2, 10]).materialize(Region.box([(-12, 12)] * 3))
        else:
            ps = gen_integer_lattice(1).materialize(Region.box([(-300, 300)]))
        reads, k, centers = self.cells_read(ps, T, monkeypatch)
        sites = math.prod(int(np.ptp(col)) + 1 for col in ps.addresses.T)
        assert k * centers <= reads <= (k + -(-k // 8)) * sites


class CountedReads(np.ndarray):
    """An array that adds the size of every read through indexing to
    `reads`, as do its views."""

    reads = 0

    def __getitem__(self, index):
        out = super().__getitem__(index)
        CountedReads.reads += np.size(out)
        return out


class CountingNumpy:
    """numpy, with every zeros array a CountedReads."""

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, *args, **kwargs):
        return np.zeros(*args, **kwargs).view(CountedReads)


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
        lat = _ladder(ps, rungs, shape, _engine_lattice)
        kd = _ladder(ps, rungs, shape, _engine_kdtree)
        flagged = 0
        for T in T_values:
            a, b = lat[T], kd[T]
            assert (a.engine, b.engine) == ("lattice", "kdtree")
            assert a.keys() == b.keys()
            for ca, cb in zip(a.classes, b.classes):
                assert np.array_equal(ca.centers, cb.centers)
            assert a.boundary_flag_count == b.boundary_flag_count
            flagged += a.boundary_flag_count
        assert flagged > 0

    @pytest.mark.parametrize("engine", [_engine_lattice, _engine_kdtree])
    def test_classes_come_in_key_order(self, engine):
        for case in ("z2-holes", "z2-holes-far", "deleted-lines", "z1"):
            ps, T_values = self.case(case)
            for shape in ("ball", "cube"):
                ladder = _ladder(ps, per_T_rungs(ps, T_values, shape), shape, engine)
                for at in ladder.values():
                    assert at.keys() == sorted(at.keys())
        # keys of 3-D balls at T = 4 hold up to 257 differences: lex ranks
        # past one byte
        holes = gen_integer_lattice(3, deletions=[(0, 0, 0), (2, 1, 0)])
        ps = holes.materialize(Region.box([(-7, 7)] * 3))
        at = _ladder(ps, per_T_rungs(ps, [4.0]), "ball", engine)[4.0]
        assert at.keys() == sorted(at.keys())
        assert at.n_lower > 50 and max(len(k) for k in at.keys()) == 257
        # a key comes before the keys it is a proper prefix of
        holes = gen_integer_lattice(1, deletions=[(0,), (5,), (7,)])
        ps = holes.materialize(Region.box([(-10, 10)]))
        at = _ladder(ps, per_T_rungs(ps, [1.0]), "ball", engine)[1.0]
        assert at.keys() == [
            ((-1,), (0,)),
            ((-1,), (0,), (1,)),
            ((0,),),
            ((0,), (1,)),
        ]


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
            assert at.boundary_flag_count == one.boundary_flag_count

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

    def test_deleted_lines_ladder_in_bounded_memory(self):
        """Deleted lines a1 = 4 on [-24, 24]^3 (116 326 points), T = 1..4, on
        the lattice engine: each rung reads only its own shell at its own
        centers and groups its rows with one sort, and classes hold narrow
        rows into the point set's addresses, so the ladder's tracemalloc
        peak stays at most 8e6 bytes and its atlases hold at most 2e6 after
        it. A lex-sorted copy of the centers, unique_rows' int64
        temporaries and the float positions of the window's masks peaked at
        10.9e6 and held 4.0e6. Bytes are bounded, not time."""
        ps = gen_deleted_lines([4]).materialize(Region.box([(-24, 24)] * 3))
        tracemalloc.start()
        try:
            ladder = atlas_ladder(ps, [1.0, 2.0, 3.0, 4.0])
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [at.engine for at in ladder] == ["lattice"] * 4
        assert [at.n_lower for at in ladder] == [7, 31, 79, 142]
        assert [at.total_centers for at in ladder] == [102_554, 89_910, 78_346, 67_814]
        assert ps._points is None  # an identity projection needs no positions
        assert peak <= 8e6
        assert held <= 2e6

    @pytest.mark.parametrize(
        "a1, T_values, columns",
        [(4, [1.0, 2.0, 3.0, 4.0], 33), (2, [1.0, 2.0], 5), (2, [2.0, 2.0000001, 2.5], 11)],
    )
    def test_no_rung_reads_a_byte_column_again(self, a1, T_values, columns, monkeypatch):
        """The shells' byte columns read at the rungs' centers, summed: the
        offsets within the largest T fill `columns` bytes (257 offsets within
        4, 33 within 2, 81 within 2.5), and a byte that holds the last bit of
        one rung and the first of the next is read once."""
        ps = gen_deleted_lines([a1]).materialize(Region.box([(-12, 12)] * 3))
        read = []

        def counting(ps, cidx, shape, thresh2):
            table, reach, per, reader, name = _engine_lattice(ps, cidx, shape, thresh2)

            def counted(rows, lo, hi):
                read.append((rows.size, hi - lo))
                return reader(rows, lo, hi)

            return table, reach, per, counted, name

        monkeypatch.setattr(atlas_mod, "_engine_lattice", counting)
        ladder = atlas_ladder(ps, T_values)
        monkeypatch.undo()
        centers = {at.total_centers for at in ladder}
        assert sum(cols for rows, cols in read if rows in centers) == columns
        for T, at in zip(T_values, ladder):
            assert as_dict(at) == as_dict(compute_atlas(ps, T))

    def test_errors_follow_the_caller_order(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-5, 5)]))
        with pytest.raises(WindowTooSmall, match="eroded by 20.0"):
            atlas_ladder(ps, [1.0, 20.0, 0.0, 30.0])
        with pytest.raises(InvalidArgument, match="must be positive"):
            atlas_ladder(ps, [1.0, -1.0, 20.0])
        with pytest.raises(InvalidArgument, match="unknown patch shape"):
            atlas_ladder(ps, [1.0], shape="hexagon")
        assert atlas_ladder(ps, []) == []


def lex_centers(ps, T, shape):
    """The indices of the centers certified at T, in lex order."""
    base = np.nonzero(per_T_rungs(ps, [T], shape)[0][2])[0]
    return base[lex_order(ps.addresses[base])]


def engine_rows(ps, T_values, shape, engine):
    """An engine's output for the centers of the smallest T, built for the
    largest, as _ladder asks for it."""
    cidx = lex_centers(ps, T_values[0], shape)
    top = max(T_values)
    thresh2 = top * top if shape == "ball" else (top / 2.0) ** 2
    return cidx, engine(ps, cidx, shape, thresh2)


def read_all(engine_out, m):
    """Every byte column an engine's reader gives at its m centers: the
    packed bit matrix, one row per center."""
    table, _, _, read, _ = engine_out
    return read(np.arange(m), 0, -(-table.shape[0] // 8))


def inside(sq, T, shape):
    if shape == "ball":
        return sq.sum(axis=1) <= T * T + 1e-9
    return np.all(sq <= (T / 2.0) ** 2 + 1e-9, axis=1)


REACH_SETS = {
    1: lambda: gen_integer_lattice(1, deletions=[(2,)]).materialize(Region.box([(-12, 12)])),
    2: lambda: gen_integer_lattice(2, deletions=[(0, 0), (3, 1)])
    .materialize(Region.box([(-8, 8)] * 2)),
    3: lambda: gen_deleted_lines([2]).materialize(Region.box([(-5, 5)] * 3)),
}


class TestReachOrder:
    """Engines return a table in reach order and a reader of one bit row per
    center; each rung of a ladder reads a prefix of the table."""

    @pytest.mark.parametrize("engine", [_engine_lattice, _engine_kdtree])
    @pytest.mark.parametrize("shape", ["ball", "cube"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_table_in_reach_order_and_rungs_read_prefixes(self, n, shape, engine):
        ps = REACH_SETS[n]()
        T_values = (1.0, 1.5, 2.0, 3.000001)
        cidx, out = engine_rows(ps, T_values, shape, engine)
        table, reach, per, _, _ = out
        bits = read_all(out, cidx.size)
        sq = (table.astype(float) @ ps.projection) ** 2
        assert np.array_equal(per, sq)
        assert np.array_equal(reach, sq.sum(axis=1) if shape == "ball" else sq.max(axis=1))
        assert np.all(np.diff(reach) >= 0)
        assert len(set(map(tuple, table.tolist()))) == table.shape[0]
        for T in T_values:
            within = inside(sq, T, shape)
            assert within.any() and np.array_equal(within, np.arange(within.size) < within.sum())

        # row i, bit j: the i-th center sees difference j, for every
        # difference within the largest T
        top = inside(sq, T_values[-1], shape)
        seen = np.unpackbits(bits, axis=1, count=table.shape[0], bitorder="little")
        assert bits.shape == (cidx.size, -(-table.shape[0] // 8))
        for i, c in enumerate(cidx):
            d = ps.addresses - ps.addresses[c]
            want = set(map(tuple, d[inside((d @ ps.projection) ** 2, T_values[-1], shape)].tolist()))
            got = set(map(tuple, table[(seen[i] == 1) & top].tolist()))
            assert got == want

    @pytest.mark.parametrize("engine", [_engine_lattice, _engine_kdtree])
    def test_a_row_without_its_zero_bit_is_rejected(self, engine):
        ps = REACH_SETS[2]()

        def drops_zero(ps, cidx, shape, thresh2):
            table, reach, per, read, name = engine(ps, cidx, shape, thresh2)
            z = int(np.flatnonzero(~table.any(axis=1))[0])

            def read_without_zero(rows, lo, hi):
                out = read(rows, lo, hi)
                if lo <= z >> 3 < hi:
                    out[rows == 5, (z >> 3) - lo] &= ~np.uint8(1 << (z & 7))
                return out

            return table, reach, per, read_without_zero, name

        rungs = per_T_rungs(ps, [1.0, 2.0])
        assert _ladder(ps, rungs, "ball", engine)[2.0].n_lower > 1
        with pytest.raises(InvalidArgument, match="zero vector"):
            _ladder(ps, rungs, "ball", drops_zero)

    @pytest.mark.parametrize("n", [2, 3])
    def test_lattice_reader_gathers_few_rows_as_it_slices_many(self, n):
        # a few rows spread over their box are gathered cell by cell, the
        # rows of a dense block are sliced out of the occupancy array: the
        # same bytes as the rows of the whole matrix, for any columns
        ps = REACH_SETS[n]()
        cidx, out = engine_rows(ps, (1.0, 3.000001), "ball", _engine_lattice)
        bits = read_all(out, cidx.size)
        read = out[3]
        for rows in (np.array([0, cidx.size - 1]), np.arange(0, cidx.size, 7), np.arange(9)):
            for lo, hi in ((0, bits.shape[1]), (1, 3), (2, 3)):
                assert np.array_equal(read(rows, lo, hi), bits[rows, lo:hi])

    def test_zero_difference_need_not_lead_the_table(self):
        # (k, 0) and (k - 1, 1) coincide, so (-1, 1), (0, 0) and (1, -1) all
        # have reach 0 and tie in lex order
        ps = coincident_pairs(0)
        _, (table, reach, _, _, _) = engine_rows(ps, [1.5], "ball", _engine_kdtree)
        assert table[:3].tolist() == [[-1, 1], [0, 0], [1, -1]]
        assert reach[:3].tolist() == [0.0, 0.0, 0.0]

    def test_few_centers_of_a_large_window_pay_for_their_own_pairs(self):
        # fib x fib on [-40, 40]^2 at T = 36: 36 centers among 3 364 points
        ps = gen_product([gen_fibonacci(), gen_fibonacci()]).materialize(
            Region.box([(-40, 40)] * 2)
        )
        tracemalloc.start()
        try:
            at = compute_atlas(ps, 36.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert at.engine == "kdtree"
        assert at.total_centers == 36
        assert peak < 20e6
        assert as_dict(at) == brute_atlas(ps, 36.0)


PREFIX_SETS = {
    "fibonacci": lambda c: gen_fibonacci().materialize(Region.box([(c - 12, c + 12)])),
    "coincident": lambda c: coincident_pairs(c, half=8),
    "fibxfib": lambda c: gen_product([gen_fibonacci(), gen_fibonacci()])
    .materialize(Region.box([(c - 4, c + 4)] * 2)),
    "z2-holes": lambda c: gen_integer_lattice(2, deletions=[(c, c), (c + 2, c + 1)])
    .materialize(Region.box([(c - 5, c + 5)] * 2)),
}


def row_scalars(rows):
    """One scalar per row: the row padded to whole 8-byte words, read as one
    uint64 or one void of several words."""
    m = rows.shape[0]
    raw = np.ascontiguousarray(rows).view(np.uint8)
    words = -(-raw.shape[1] // 8)
    buf = np.zeros((m, 8 * words), dtype=np.uint8)
    buf[:, : raw.shape[1]] = raw
    scalar = np.uint64 if words == 1 else np.dtype((np.void, 8 * words))
    return buf.view(scalar).ravel()


def narrow_rows(rows):
    """Rows translated so each column starts at 0, in the narrowest unsigned
    type holding the largest entry."""
    low = np.array([col.min() for col in rows.T], dtype=rows.dtype)
    span = (rows - low).view(np.uint64)
    return span.astype(np.min_scalar_type(int(span.max())))


def kdtree_by_row_scalars(ps, cidx, shape, thresh2):
    """The kdtree engine as it grouped differences before lex codes: the 2-D
    differences, one np.unique of their narrowed row scalars, then lex_order
    and reach order. Kept as the oracle of _engine_kdtree."""
    from scipy.spatial import cKDTree

    addr = ps.addresses
    pos = (addr - addr.min(axis=0)).astype(float) @ ps.projection
    rad = math.sqrt(thresh2 + 1e-9) * (1 + 1e-12)
    pairs = cKDTree(pos[cidx]).sparse_distance_matrix(
        cKDTree(pos), rad, p=np.inf if shape == "cube" else 2.0, output_type="ndarray"
    )
    row = pairs["i"]
    diffs = addr[pairs["j"]] - addr[cidx[row]]
    _, first, col = np.unique(
        row_scalars(narrow_rows(diffs)), return_index=True, return_inverse=True
    )
    table = diffs[first]
    lex = lex_order(table)
    order, reach, per = atlas_mod._reach_order(table[lex], ps.projection, shape)
    perm = lex[order]
    table = table[perm]
    col = np.argsort(perm)[col]
    hit = np.zeros((cidx.size, table.shape[0]), dtype=bool)
    hit[row, col] = True
    return table, reach, per, np.packbits(hit, axis=1, bitorder="little"), "kdtree"


GROUPING_SETS = {
    "fibonacci": lambda c: gen_fibonacci().materialize(Region.box([(c - 40, c + 40)])),
    "cut_project": lambda c: gen_cut_project_1d("golden")
    .materialize(Region.box([(c - 40, c + 40)])),
    "fibxfib": lambda c: gen_product([gen_fibonacci(), gen_fibonacci()])
    .materialize(Region.box([(c - 10, c + 10)] * 2)),
    "fib3": lambda c: gen_product([gen_fibonacci()] * 3)
    .materialize(Region.box([(c - 6, c + 6)] * 3)),
}
GROUPING_T = {"fibonacci": 12.0, "cut_project": 12.0, "fibxfib": 5.0, "fib3": 3.5}


class TestEngineGrouping:
    """_engine_kdtree groups each block's differences with unique_rows: a
    dense count or one sort of their lex codes, or a lexsort of the columns
    when their box is too large for one int64. Each route gives the table,
    reach, squared coordinates and bits of the row-scalar grouping it
    replaced."""

    @pytest.mark.parametrize("route", ["dense", "unique", "ranks"])
    @pytest.mark.parametrize("shape", ["ball", "cube"])
    @pytest.mark.parametrize(
        "name, c",
        [
            ("fibonacci", 0),
            ("fibonacci", 300_000),
            ("cut_project", 0),
            ("cut_project", 300_000),
            ("fibxfib", 0),
            ("fib3", 0),
        ],
    )
    def test_routes_equal_the_row_scalar_grouping(self, name, c, shape, route, monkeypatch):
        ps = GROUPING_SETS[name](c)
        T = GROUPING_T[name]
        cidx = lex_centers(ps, T, shape)
        if route == "unique":
            cidx = cidx[cidx.size // 2 :][:1]  # one center: few pairs in a wide box
        if route == "ranks":
            monkeypatch.setattr(core_mod, "LEX_CODE_CELLS", 0)
        thresh2 = T * T if shape == "ball" else (T / 2.0) ** 2
        want = kdtree_by_row_scalars(ps, cidx, shape, thresh2)
        got = _engine_kdtree(ps, cidx, shape, thresh2)
        assert got[4] == want[4]
        for a, b in zip([*got[:3], read_all(got, cidx.size)], want[:4]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # the route taken: the differences' box against the number of pairs
        cells = np.prod(np.ptp(want[0], axis=0) + 1)
        pairs = np.unpackbits(want[3]).sum()
        assert (cells <= pairs) == (route != "unique")

    def test_engine_peak_is_bounded(self, monkeypatch):
        """tracemalloc peak of the engine on fib^3 [-16, 16]^3 at T = 4
        (4 913 centers, 490 359 pairs) in blocks of ENGINE_BLOCK_PAIRS pairs:
        at most 150 bytes a point of the window and 80 bytes a pair of one
        block, its output included: 3.1 MB at the default budget. All pairs
        at once peaked at 72 bytes a pair (35.3 MB) here."""
        ps = gen_product([gen_fibonacci()] * 3).materialize(Region.box([(-16, 16)] * 3))
        cidx = lex_centers(ps, 4.0, "ball")
        _engine_kdtree(ps, cidx, "ball", 16.0)  # scipy imported before tracing
        for budget in (1 << 12, atlas_mod.ENGINE_BLOCK_PAIRS, 1 << 16):
            monkeypatch.setattr(atlas_mod, "ENGINE_BLOCK_PAIRS", budget)
            tracemalloc.start()
            try:
                out = _engine_kdtree(ps, cidx, "ball", 16.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert int(np.unpackbits(read_all(out, cidx.size)).sum()) == 490_359
            assert peak <= 150 * len(ps) + 80 * budget


@functools.lru_cache(maxsize=None)
def prefix_set(name, c):
    return PREFIX_SETS[name](c)


@functools.lru_cache(maxsize=None)
def prefix_brute(name, c, T, shape):
    return brute_atlas(prefix_set(name, c), T, shape=shape)


class TestPrefixLadder:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(PREFIX_SETS)),
        st.sampled_from([0, 10**9]),
        st.sampled_from(["ball", "cube"]),
        st.sampled_from([1.0, 2.0, 3.0]),
        st.lists(st.sampled_from([0.5, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0]), min_size=1, max_size=4),
    )
    def test_every_rung_is_its_one_T_atlas(self, name, c, shape, whole, T_values):
        # an integer T makes many near-threshold flags on every input
        ps = prefix_set(name, c)
        T_values = T_values + [whole]
        for T, at in zip(T_values, atlas_ladder(ps, T_values, shape=shape)):
            one = compute_atlas(ps, T, shape=shape)
            assert at.engine == one.engine == ("lattice" if name == "z2-holes" else "kdtree")
            assert at.keys() == one.keys()
            assert as_dict(at) == as_dict(one) == prefix_brute(name, c, T, shape)
            assert at.boundary_flag_count == one.boundary_flag_count


class TestEngineBlocks:
    """_engine_kdtree searches its centers in blocks of about
    ENGINE_BLOCK_PAIRS pairs, each center to the reach of the largest rung
    that holds it."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(PREFIX_SETS)),
        st.sampled_from([0, 10**9]),
        st.sampled_from(["ball", "cube"]),
        st.sampled_from([1, 7, 64]),
        st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), min_size=1, max_size=3, unique=True),
    )
    def test_any_block_budget_gives_the_same_atlases(self, name, c, shape, budget, T_values):
        ps = prefix_set(name, c)
        rungs = per_T_rungs(ps, sorted(T_values), shape)
        want = _ladder(ps, rungs, shape, _engine_kdtree)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(atlas_mod, "ENGINE_BLOCK_PAIRS", budget)
            got = _ladder(ps, rungs, shape, _engine_kdtree)
        assert got == want
        for T in T_values:
            assert got[T].engine == "kdtree" and got[T].keys() == want[T].keys()
            assert as_dict(got[T]) == prefix_brute(name, c, T, shape)

    def test_fib3_ladder_in_bounded_memory(self):
        """fib^3 on [-16, 16]^3 (12 167 points) at T = 4, 6: the ladder's
        tracemalloc peak stays below 20e6 bytes, and each rung is its one-T
        atlas. With every pair of T = 6 at each center of T = 4 held at
        once, and a dense bool matrix of centers by differences, it peaked
        at 104.8e6. Bytes are bounded, not time."""
        ps = gen_product([gen_fibonacci()] * 3).materialize(Region.box([(-16, 16)] * 3))
        compute_atlas(ps, 1.0)  # scipy imported before tracing
        tracemalloc.start()
        try:
            ladder = atlas_ladder(ps, [4.0, 6.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert ladder == [compute_atlas(ps, 4.0), compute_atlas(ps, 6.0)]
        assert [at.engine for at in ladder] == ["kdtree"] * 2


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

    def test_budget_exhaustion_is_not_an_error(self, monkeypatch):
        monkeypatch.setattr(atlas_mod, "WINDOW_R_FACTOR", 4.0 / estimate_R(gen_fibonacci()))
        monkeypatch.setattr(atlas_mod, "WINDOW_MAX_DOUBLINGS", 0)
        prof = patch_count_profile(gen_fibonacci(), [1.2])
        assert prof[0].stabilized is False
        assert prof[0].window_radius == pytest.approx(4.0)

    def test_bad_T_rejected(self):
        with pytest.raises(InvalidArgument):
            patch_count_profile(gen_fibonacci(), [-1.0])

    def test_window_doubles_until_stable(self, monkeypatch):
        # the first window (2.5 T = 10) has nothing to compare with
        monkeypatch.setattr(atlas_mod, "WINDOW_R_FACTOR", 4.0 / estimate_R(gen_fibonacci()))
        monkeypatch.setattr(atlas_mod, "WINDOW_MAX_DOUBLINGS", 1)
        prof = patch_count_profile(gen_fibonacci(), [4.0])
        assert prof[0].stabilized and prof[0].window_radius == 20.0

    def test_estimate_R_without_declared_R(self):
        # two-color declares no R, so it is measured on [-25, 25]; cells are
        # points c (white) or pairs c -+ 1/3 (black), and two adjacent white
        # cells leave the largest gap, 1
        src = gen_two_color(1, [16, 32, 64, 128])
        assert src.declared_R is None
        gaps = np.diff(np.sort(src.materialize(Region.centered_box(1, 25.0)).points[:, 0]))
        assert estimate_R(src) == pytest.approx(gaps.max() / 2.0) == pytest.approx(0.5)

    def test_entropy_skips_unstabilized(self, monkeypatch):
        monkeypatch.setattr(atlas_mod, "WINDOW_R_FACTOR", 4.0 / estimate_R(gen_fibonacci()))
        monkeypatch.setattr(atlas_mod, "WINDOW_MAX_DOUBLINGS", 0)
        prof = patch_count_profile(gen_fibonacci(), [1.2])
        rep = entropy_probe(prof, 1)
        assert rep.rows == [] and rep.c0_empirical is None
