"""Covering radii, repetitivity brackets, growth verdicts, word recurrence."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone_lab import repetitivity
from delone_lab.contfrac import ContinuedFraction, recurrence_formula
from delone_lab.core import ExactPointSet, Region, packing_radius
from delone_lab.errors import InsufficientData, InvalidArgument, WindowTooSmall
from delone_lab.generators import GOLDEN_TAU, gen_fibonacci, gen_integer_lattice
from delone_lab.repetitivity import (
    covering_radii,
    covering_radius,
    crystal_gap_probe,
    factor_ranks,
    growth_classification,
    repetitivity_function,
    symbolic_recurrence_oracle,
)


class TestCoveringRadius:
    def test_1d_exact_midpoint(self):
        lo, hi = covering_radius(
            np.array([[0.0], [3.0], [5.0]]), Region.box([(0, 5)])
        )
        assert lo == hi == 1.5

    def test_1d_endpoint_dominates(self):
        lo, hi = covering_radius(np.array([[2.0], [3.0]]), Region.box([(0, 5)]))
        assert lo == hi == 2.0

    def test_1d_ball_is_its_interval(self):
        centers = np.array([[0.0], [3.0], [5.0]])
        assert covering_radius(centers, Region.ball([2.5], 2.5)) == (1.5, 1.5)
        fib = gen_fibonacci().materialize(Region.centered_box(1, 40.0)).points
        ball = covering_radius(fib, Region.ball([3.3], 17.2))
        assert ball == covering_radius(fib, Region.box([(3.3 - 17.2, 3.3 + 17.2)]))

    def test_empty_centers(self):
        assert covering_radius(np.zeros((0, 1)), Region.box([(0, 1)])) == (
            math.inf,
            math.inf,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgument):
            covering_radius(np.array([[0.0, 0.0]]), Region.box([(0, 1)]))

    def test_2d_bracket_contains_truth(self):
        xs = np.arange(-3, 4)
        centers = np.array([(x, y) for x in xs for y in xs], dtype=float)
        truth = math.sqrt(2.0) / 2.0
        lo, hi = covering_radius(centers, Region.box([(-2, 2)] * 2), resolution=0.01)
        assert lo <= truth <= hi
        assert hi - lo < 0.02

    def test_ball_region_bracket(self):
        xs = np.arange(-3, 4)
        centers = np.array([(x, y) for x in xs for y in xs], dtype=float)
        truth = math.sqrt(2.0) / 2.0
        lo, hi = covering_radius(
            centers, Region.ball([0.0, 0.0], 2.0), resolution=0.01
        )
        assert lo <= truth <= hi
        assert hi - lo < 0.03


def largest_empty_circle(centers, box):
    """Exact sup over a 2-D box of the distance to the nearest center.

    The sup sits at a Voronoi vertex inside the box, where a Voronoi edge
    crosses the boundary, or at a corner (Toussaint 1983). The bisectors of
    all center pairs contain every Voronoi edge, so their crossings with the
    box edges are a superset of the edge crossings; every candidate lies in
    the box, so the largest distance over the candidates is the sup.
    """
    from scipy.spatial import Voronoi, cKDTree

    (x0, x1), (y0, y1) = box
    cand = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
    v = Voronoi(centers).vertices
    cand += [tuple(p) for p in v if x0 <= p[0] <= x1 and y0 <= p[1] <= y1]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            mid = (centers[i] + centers[j]) / 2.0
            d = centers[j] - centers[i]
            # bisector: (z - mid) . d = 0
            if d[1] != 0.0:
                for x in (x0, x1):
                    y = mid[1] - (x - mid[0]) * d[0] / d[1]
                    if y0 <= y <= y1:
                        cand.append((x, y))
            if d[0] != 0.0:
                for y in (y0, y1):
                    x = mid[0] - (y - mid[1]) * d[1] / d[0]
                    if x0 <= x <= x1:
                        cand.append((x, y))
    dist, _ = cKDTree(centers).query(np.array(cand))
    return float(dist.max())


def z2(half):
    xs = np.arange(-half, half + 1)
    return np.array([(x, y) for x in xs for y in xs], dtype=float)


class TestBranchAndBound:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_box_against_largest_empty_circle(self, seed):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-5.0, 5.0, size=(int(rng.integers(4, 40)), 2))
        lo = rng.uniform(-4.0, 0.0, size=2)
        box = list(zip(lo, lo + rng.uniform(0.5, 6.0, size=2)))
        resolution = float(rng.choice([0.01, 0.05, 0.2]))
        exact = largest_empty_circle(centers, box)
        lower, upper = covering_radius(centers, Region.box(box), resolution=resolution)
        # the oracle's qhull vertices are float points of the box, so only its
        # value can fall short of the sup, never exceed it
        assert lower - 1e-9 <= exact <= upper
        assert upper - lower <= resolution / 2.0

    def test_ball_one_off_center_point(self):
        center, rho = np.array([1.0, -0.5]), 2.5
        point = np.array([[0.3, 0.4]])
        exact = float(np.linalg.norm(point[0] - center)) + rho
        lower, upper = covering_radius(point, Region.ball(center, rho), resolution=0.01)
        assert lower <= exact <= upper
        assert upper - lower <= 0.005

    def test_z2_in_ball(self):
        truth = math.sqrt(2.0) / 2.0
        for c, rho in (([0.0, 0.0], 2.0), ([0.3, -0.2], 3.7)):
            lower, upper = covering_radius(z2(6), Region.ball(c, rho), resolution=0.01)
            assert lower <= truth <= upper
            assert upper - lower <= 0.005

    def test_3d_overlaps_reference_grid(self):
        rng = np.random.default_rng(7)
        centers = rng.uniform(-1.5, 1.5, size=(25, 3))
        box = [(-1.0, 1.0), (-0.5, 1.0), (-1.0, 0.25)]
        lower, upper = covering_radius(centers, Region.box(box), resolution=0.02)
        assert upper - lower <= 0.01
        step = 0.025
        axes = [a + step * (np.arange(round((b - a) / step)) + 0.5) for a, b in box]
        samples = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        dist = np.min(np.linalg.norm(samples[:, None, :] - centers[None], axis=2), axis=1)
        g_lower = float(dist.max())
        g_upper = g_lower + math.sqrt(3.0) * step / 2.0
        assert max(lower, g_lower) <= min(upper, g_upper)

    def test_integer_translates_and_erosions_agree(self):
        centers = z2(30)
        brackets = set()
        for shift in ((0, 0), (3, -2), (-7, 5)):
            for half in (20.0, 16.0, 11.0):
                box = Region.box([(s - half, s + half) for s in shift])
                brackets.add(covering_radius(centers, box, resolution=0.05))
        assert len(brackets) == 1
        lower, upper = brackets.pop()
        assert lower <= math.sqrt(2.0) / 2.0 <= upper

    def test_far_translate_keeps_bracket(self):
        box = [(-10.0, 10.0)] * 2
        near = covering_radius(z2(12), Region.box(box), resolution=0.05)
        shift = 2.0**40
        far = covering_radius(
            z2(12) + shift, Region.box([(a + shift, b + shift) for a, b in box]), 0.05
        )
        assert far == near
        # at 2^50 cells stop at the float grid: a wider bracket, still certified
        shift = 2.0**50
        lower, upper = covering_radius(
            z2(12) + shift, Region.box([(a + shift, b + shift) for a, b in box]), 0.05
        )
        assert lower <= math.sqrt(2.0) / 2.0 <= upper
        assert upper - lower > 0.025

    def test_ball_of_radius_zero_is_one_point(self):
        point = np.array([0.3, -0.2])
        exact = math.hypot(0.3, 0.2)  # the nearest center is the origin
        lower, upper = covering_radius(z2(3), Region.ball(point, 0.0))
        assert lower <= exact <= upper
        assert upper - lower < 1e-14

    def test_resolution_must_be_positive(self):
        # in dimension one too, and for a batch with no center, though neither
        # refines a cell
        for bad in (0.0, -0.1, math.nan):
            with pytest.raises(InvalidArgument):
                covering_radius(z2(2), Region.box([(-1, 1)] * 2), resolution=bad)
            with pytest.raises(InvalidArgument):
                covering_radius(np.arange(3.0)[:, None], Region.box([(-1, 1)]), resolution=bad)
            with pytest.raises(InvalidArgument):
                covering_radii([np.zeros((0, 2))], Region.box([(-1, 1)] * 2), resolution=bad)

    @pytest.mark.parametrize("threads", ["abc", "0", "-2"])
    def test_bad_thread_count_rejected_on_small_input(self, threads, monkeypatch):
        # checked before the batch-size branch, so a 25-point input rejects it too
        monkeypatch.setenv("DELONE_LAB_THREADS", threads)
        with pytest.raises(InvalidArgument):
            covering_radius(z2(2), Region.box([(-1, 1)] * 2), resolution=0.1)

    @pytest.mark.parametrize("threads", ["", "-1", "2"])
    def test_thread_count_accepted(self, threads, monkeypatch):
        monkeypatch.setenv("DELONE_LAB_THREADS", threads)
        lower, upper = covering_radius(z2(2), Region.box([(-1, 1)] * 2), resolution=0.1)
        assert lower <= math.sqrt(2.0) / 2.0 <= upper

    def test_evaluation_cap_is_reported(self, monkeypatch):
        # every point of the sphere is a maximizer, so no tolerance is reached
        monkeypatch.setattr(repetitivity, "COVERING_EVAL_BUDGET", 50_000)
        ps = ExactPointSet(2, 2, np.eye(2), np.array([[0, 0]]), Region.ball([0.0, 0.0], 10.0))
        res = repetitivity_function(ps, 1.0, resolution=1e-6)
        assert res.M_lower <= 8.0 <= res.M_upper
        assert res.M_upper - res.M_lower > 5e-7
        assert "1 classes stopped short of the covering-radius tolerance" in res.notes[0]

    def test_no_cap_note_within_tolerance(self):
        ps = gen_integer_lattice(2).materialize(Region.box([(-8, 8)] * 2))
        res = repetitivity_function(ps, 1.0, resolution=0.02)
        assert res.notes == []


def per_class_covering_radius(centers, region, resolution=None):
    """The branch and bound for one center set alone, as covering_radius ran
    it before covering_radii refined all sets together (n >= 2)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.shape[0] == 0:
        return math.inf, math.inf
    n = region.dimension
    ball = region.kind == "ball"
    rad = region.radius if ball else math.inf
    c0 = np.asarray(region.center) if ball else np.mean(region.intervals, axis=1)
    lo_box, hi_box = (c0 - rad, c0 + rad) if ball else np.array(region.intervals).T
    lens = hi_box - lo_box
    if resolution is None:
        resolution = max(float(lens.max()) / 100.0, 1e-9)
    slack = 8.0 * n * math.ulp(1.0)
    budget = repetitivity.COVERING_EVAL_BUDGET

    def meets(p, h, grow):
        gap = np.maximum(np.abs(p - c0) - h, 0.0)
        near = np.all((p + h >= lo_box) & (p - h <= hi_box), axis=1)
        return near & (np.sum(gap * gap, axis=1) <= rad * rad * grow)

    from scipy.spatial import cKDTree

    tree = cKDTree(centers)
    best = float(tree.query(c0)[0])
    if rad == 0:
        return best * (1.0 - slack), best * (1.0 + slack)
    spacing = (float(np.prod(lens)) / centers.shape[0]) ** (1.0 / n)
    side = 2.0 ** math.floor(math.log2(min(spacing, float(lens.max()))))
    finest = 8.0 * math.ulp(1.0) * float(np.abs([lo_box, hi_box]).max())
    while side <= finest or np.prod(np.ceil(hi_box / side) - np.floor(lo_box / side)) > budget:
        side *= 2.0
    first = np.floor(lo_box / side)
    counts = (np.ceil(hi_box / side) - first).astype(np.int64)
    cells = (np.indices(counts).reshape(n, -1).T + first + 0.5) * side
    corners = np.indices((2,) * n).reshape(n, -1).T - 0.5
    upper, evaluations = -math.inf, 1
    while cells.shape[0]:
        cells = cells[meets(cells, side / 2.0, 1.0 + slack)]
        d, _ = tree.query(cells)
        evaluations += cells.shape[0]
        best = float(np.max(d[meets(cells, 0.0, 1.0 - slack)], initial=best))
        bound = (d + math.sqrt(n) * side / 2.0) * (1.0 + slack)
        done = bound - best * (1.0 - slack) <= resolution / 2.0
        upper = float(np.max(bound[done], initial=upper))
        cells, bound = cells[~done], bound[~done]
        if evaluations + cells.shape[0] * corners.shape[0] > budget or side <= finest:
            upper = float(np.max(bound, initial=upper))
            break
        side /= 2.0
        cells = (cells[:, None, :] + corners * side).reshape(-1, n)
    return best * (1.0 - slack), upper


def peak_bytes(fn):
    """tracemalloc peak of one call, and its result."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


PEAK_BYTES_PER_CELL = 100  # the COVERING_EVAL_BUDGET comment's bound, n <= 3


class TestBatchedCovering:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_per_class_oracle(self, data):
        """covering_radii gives each center set the bracket the per-class
        branch and bound gives it, bit for bit: 1-7 sets (empty ones and single
        centers at the region's middle among them), boxes and balls (radius 0
        too), n = 2 and 3, at the origin and 2^30 and 2^40 away, capped and not."""
        n = data.draw(st.sampled_from([2, 3]))
        shift = data.draw(st.sampled_from([0.0, 2.0**30, 2.0**40]))
        budget = data.draw(st.sampled_from([3_000, 20_000, repetitivity.COVERING_EVAL_BUDGET]))
        resolution = data.draw(
            st.sampled_from([0.03, 0.1] + ([1e-4] if budget < 100_000 else []))
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            lo = rng.uniform(-3.0, 0.0, n) + shift
            region = Region.box(list(zip(lo, lo + rng.uniform(0.5, 4.0, n))))
        else:
            radius = data.draw(st.sampled_from([0.0, 0.7, 2.5]))
            region = Region.ball(rng.uniform(-1.0, 1.0, n) + shift, radius)
        middle = np.asarray(region.center) if region.kind == "ball" else np.mean(region.intervals, axis=1)
        sets = []
        for _ in range(data.draw(st.integers(1, 7))):
            kind = data.draw(st.sampled_from(["few", "few", "many", "middle", "middle", "empty"]))
            if kind == "middle":  # every point at one distance maximizes: a capped set
                sets.append(middle[None, :] + rng.uniform(-1e-3, 1e-3, n))
            else:  # sets of different sizes start from different sides
                m = {"empty": 0, "few": int(rng.integers(1, 13)), "many": int(rng.integers(40, 150))}[kind]
                sets.append(rng.uniform(-4.0, 4.0, (m, n)) + shift)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(repetitivity, "COVERING_EVAL_BUDGET", budget)
            want = [per_class_covering_radius(c, region, resolution) for c in sets]
            assert covering_radii(sets, region, resolution) == want

    def test_one_tree_and_a_thread_count_per_query(self, monkeypatch):
        from scipy import spatial

        built, calls = [], []

        class Recorded(spatial.cKDTree):
            def __init__(self, data, *args, **kwargs):
                built.append(np.shape(data))
                super().__init__(data, *args, **kwargs)

            def query(self, x, *args, **kwargs):
                calls.append((np.shape(x), kwargs.get("workers", 1)))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(spatial, "cKDTree", Recorded)
        monkeypatch.setattr(repetitivity, "THREADED_QUERY_MIN", 64)
        monkeypatch.setenv("DELONE_LAB_THREADS", "2")
        rng = np.random.default_rng(3)
        sets = [rng.uniform(-3.0, 3.0, (m, 2)) for m in (400, 3, 2)]
        region = Region.box([(-2.0, 2.0)] * 2)
        covering_radii(sets, region, 0.01)
        # one tree over all 405 centers, each lifted by one coordinate
        assert built == [(405, 3)]
        batches = [(shape[0], workers) for shape, workers in calls if len(shape) == 2]
        assert len(batches) == len(calls)
        # one start query, a row a set, then one query a level: as many levels
        # as the set that alone runs longest
        levels = []
        for c in sets:
            del calls[:]
            per_class_covering_radius(c, region, 0.01)
            levels.append(len(calls) - 1)
        assert batches[0] == (3, 1)
        assert len(batches) == 1 + max(levels)
        assert all(workers == (2 if m >= 64 else 1) for m, workers in batches)
        assert {workers for _, workers in batches} == {1, 2}

    def test_one_set_is_covering_radius(self):
        centers = z2(4) + 0.25
        region = Region.box([(-3.0, 2.5), (-1.0, 3.0)])
        assert covering_radii([centers], region, 0.05) == [covering_radius(centers, region, 0.05)]
        assert covering_radii([], region, 0.05) == []

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InvalidArgument):
            covering_radii([z2(1), np.zeros((2, 3))], Region.box([(-1, 1)] * 2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_non_finite_centers_rejected(self, bad, n):
        good = np.linspace(-1.0, 1.0, 3 * n).reshape(3, n)
        spoilt = good.copy()
        spoilt[1, -1] = bad
        with pytest.raises(InvalidArgument, match="finite"):
            covering_radii([good, spoilt], Region.box([(-1.0, 1.0)] * n), 0.1)

    def test_1d_sets_are_exact(self):
        fib = gen_fibonacci().materialize(Region.centered_box(1, 40.0)).points
        region = Region.box([(-20.0, 25.0)])
        sets = [fib[::2], np.zeros((0, 1)), fib]
        got = covering_radii(sets, region)
        assert got == [covering_radius(c, region) for c in sets]
        assert got[1] == (math.inf, math.inf)

    @pytest.mark.parametrize("n", [2, 3])
    def test_capped_call_stays_under_the_stated_peak(self, n):
        # one center at the middle of a radius-8 ball at resolution 1e-6: every
        # point of the sphere is a maximizer, so the call runs to the cap
        center = np.zeros((1, n))
        peak, (lower, upper) = peak_bytes(
            lambda: covering_radius(center, Region.ball([0.0] * n, 8.0), 1e-6)
        )
        assert lower <= 8.0 <= upper
        assert upper - lower > 5e-7
        assert peak <= PEAK_BYTES_PER_CELL * repetitivity.COVERING_EVAL_BUDGET

    @pytest.mark.parametrize("n", [2, 3])
    def test_eight_capped_sets_share_one_peak_bound(self, n, monkeypatch):
        budget = 50_000
        monkeypatch.setattr(repetitivity, "COVERING_EVAL_BUDGET", budget)
        region = Region.ball([0.0] * n, 8.0)
        sets = [np.full((1, n), 1e-3 * k) for k in range(8)]
        peak, got = peak_bytes(lambda: covering_radii(sets, region, 1e-6))
        assert got == [per_class_covering_radius(c, region, 1e-6) for c in sets]
        assert all(hi - lo > 5e-7 for lo, hi in got)
        # the group sheds and restarts sets, but stays under the bound of one
        # capped set, not eight times it
        assert peak <= PEAK_BYTES_PER_CELL * budget


class TestRepetitivityFunction:
    def test_fibonacci_value_frozen(self):
        ps = gen_fibonacci().materialize(Region.centered_box(1, 80.0))
        res = repetitivity_function(ps, 1.2)
        # sup distance to the nearest center of the sparsest class; the gap
        # between consecutive long-long points tops out at 3 tau + 2
        want = (3.0 * GOLDEN_TAU + 2.0) / 2.0
        assert res.M_lower == res.M_upper  # 1d brackets collapse
        assert res.M_lower == pytest.approx(want, rel=1e-12)
        assert res.n_lower == 3
        assert res.certified_floor == 1.2

    def test_prime_shift_identity(self):
        ps = gen_fibonacci().materialize(Region.centered_box(1, 80.0))
        res = repetitivity_function(ps, 1.2)
        assert res.prime() == (res.M_lower + 1.2, res.M_upper + 1.2)

    def test_lattice_half_gap(self):
        ps = gen_integer_lattice(1).materialize(Region.centered_box(1, 40.0))
        res = repetitivity_function(ps, 3.0)
        assert res.M_lower == res.M_upper == 0.5
        assert res.certified_floor == 0.5
        assert res.notes == []

    def test_overreport_is_flagged_and_clamped(self):
        # singleton classes around the puncture recur only outside the window
        ps = gen_integer_lattice(2, deletions=[(0, 0)]).materialize(
            Region.box([(-10, 10)] * 2)
        )
        res = repetitivity_function(ps, 1.0, resolution=0.05)
        assert res.M_lower > 10.0
        assert res.certified_floor == 1.0
        assert len(res.notes) == 1
        assert res.M_upper >= res.M_lower

    def test_bracket_order_2d(self):
        ps = gen_integer_lattice(2).materialize(Region.box([(-8, 8)] * 2))
        res = repetitivity_function(ps, 1.0, resolution=0.02)
        truth = math.sqrt(2.0) / 2.0
        assert res.M_lower <= truth <= res.M_upper
        assert res.M_upper - res.M_lower < 0.04

    def test_each_bracket_holds_its_class(self):
        from delone_lab.atlas import compute_atlas

        ps = gen_fibonacci().materialize(Region.centered_box(1, 40.0))
        atlas = compute_atlas(ps, 1.2)
        res = repetitivity_function(ps, 1.2, atlas=atlas)
        assert len(res.per_class) == atlas.n_lower == 3
        assert all(c.patch_class is a for c, a in zip(res.per_class, atlas.classes))

    def test_stale_atlas_rejected(self):
        from delone_lab.atlas import compute_atlas

        ps = gen_fibonacci().materialize(Region.centered_box(1, 40.0))
        atlas = compute_atlas(ps, 2.0)
        with pytest.raises(InvalidArgument):
            repetitivity_function(ps, 1.2, atlas=atlas)

    def test_window_too_small(self):
        ps = gen_fibonacci().materialize(Region.centered_box(1, 5.0))
        with pytest.raises(WindowTooSmall):
            repetitivity_function(ps, 3.0)

    def test_default_resolution_2d(self):
        # min(r / 4, T / 100) with r = 1/2 on Z^2
        ps = gen_integer_lattice(2, deletions=[(0, 0)]).materialize(Region.box([(-10, 10)] * 2))
        res = repetitivity_function(ps, 2.0)
        assert res.resolution == 0.02
        assert res == repetitivity_function(ps, 2.0, resolution=0.02)
        assert res.M_upper != repetitivity_function(ps, 2.0, resolution=0.05).M_upper
        assert repetitivity_function(ps, 2.0, resolution=0.3).resolution == 0.3
        # r / 4 wins when two points sit close: Z^2 plus one point 0.01 from the origin
        addresses = [(x, y, 0) for x in range(-3, 4) for y in range(-3, 4)] + [(0, 0, 1)]
        projection = np.array([[1.0, 0.0], [0.0, 1.0], [0.01, 0.0]])
        close = ExactPointSet(2, 3, projection, np.array(addresses), Region.box([(-3, 3)] * 2))
        res = repetitivity_function(close, 1.0)
        assert res.resolution == packing_radius(close) / 4.0 < 1.0 / 100.0

    def test_ladder_takes_one_packing_radius(self, monkeypatch):
        # every rung's default resolution comes from one packing radius
        ps = gen_integer_lattice(2, deletions=[(0, 0)]).materialize(Region.box([(-10, 10)] * 2))
        T_values = [1.0, 2.0, 3.0]
        want = [repetitivity_function(ps, T) for T in T_values]
        calls = []

        def counted(ps):
            calls.append(ps)
            return packing_radius(ps)

        monkeypatch.setattr(repetitivity, "packing_radius", counted)
        assert repetitivity.repetitivity_ladder(ps, T_values) == want
        assert len(calls) == 1

    def test_resolution_is_none_in_1d(self):
        ps = gen_fibonacci().materialize(Region.centered_box(1, 40.0))
        assert repetitivity_function(ps, 1.2).resolution is None
        # a 1-D bracket is exact and uses none, even when one is given
        assert repetitivity_function(ps, 1.2, resolution=0.1).resolution is None

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan])
    def test_resolution_must_be_positive(self, dimension, bad, monkeypatch):
        # 1-D brackets are exact and ignore the resolution, but a bad one is
        # still rejected, as on Z^2
        ps = gen_integer_lattice(dimension).materialize(Region.centered_box(dimension, 8.0))
        with pytest.raises(InvalidArgument, match="resolution must be positive"):
            repetitivity_function(ps, 1.0, resolution=bad)

        # a ladder rejects it before it builds any atlas
        def no_ladder(*_args, **_kwargs):
            raise AssertionError("the atlas ladder ran")

        monkeypatch.setattr(repetitivity, "atlas_ladder", no_ladder)
        with pytest.raises(InvalidArgument, match="resolution must be positive"):
            repetitivity.repetitivity_ladder(ps, [1.0, 2.0], resolution=bad)


class TestGrowthClassification:
    def test_lattice_flat(self):
        rep = growth_classification(gen_integer_lattice(1), [1.5, 3.0, 6.0, 12.0])
        assert rep.classification == "ideal-crystal-like"
        assert [row[1] for row in rep.rows] == [1, 1, 1, 1]
        assert all(row[3] == 0.5 for row in rep.rows)

    def test_fibonacci_linear(self):
        rep = growth_classification(gen_fibonacci(), [1.5, 3.0, 6.0, 12.0])
        assert rep.classification == "empirically-linear"
        assert rep.slope_vs_T <= 1.15
        assert rep.ratio_T_bound <= 4.0
        assert "not certified" in rep.caveat

    def test_needs_wide_sweep(self):
        with pytest.raises(InsufficientData):
            growth_classification(gen_integer_lattice(1), [1.0, 2.0, 4.0])
        with pytest.raises(InsufficientData):
            growth_classification(gen_integer_lattice(1), [1.0, 2.0, 3.0, 4.0])


class TestCrystalGapProbe:
    def test_lattice_trips_both_triggers(self):
        ps = gen_integer_lattice(1).materialize(Region.centered_box(1, 60.0))
        res = repetitivity_function(ps, 6.0)
        rep = crystal_gap_probe([res], R=0.5, r=0.5, dimension=1)
        row = rep.rows[0]
        assert row.crystal_by_small_M and row.crystal_by_small_N
        assert rep.verdict == "ideal-crystal signature"

    def test_fibonacci_stays_quiet(self):
        ps = gen_fibonacci().materialize(Region.centered_box(1, 80.0))
        results = [repetitivity_function(ps, T) for T in (1.5, 3.0)]
        rep = crystal_gap_probe(results, R=GOLDEN_TAU / 2.0, r=0.5, dimension=1)
        assert rep.verdict == "no crystal signature"
        assert all(r.lower_bound_ok for r in rep.rows)

    def test_bound_flag_optional(self):
        ps = gen_integer_lattice(1).materialize(Region.centered_box(1, 60.0))
        rep = crystal_gap_probe([repetitivity_function(ps, 2.0)], R=0.5)
        assert rep.rows[0].lower_bound_ok is None


def factor_gaps_by_dict(word, length):
    """Largest gap between consecutive starts of a length-l factor, by a dict scan."""
    last, best = {}, {}
    for i in range(len(word) - length + 1):
        f = tuple(word[i : i + length])
        if f in last:
            best[f] = max(best.get(f, 0), i - last[f])
        last[f] = i
    return math.inf if len(best) < len(last) else max(best.values())


SYMBOLS = ["a", 1.5, 1.2, (0, 1), None]


class TestSymbolicRecurrence:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_dict_scan(self, data):
        symbols = SYMBOLS[: data.draw(st.integers(1, 5))]
        base = data.draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=40))
        tail = data.draw(st.lists(st.sampled_from(symbols), max_size=10))
        word = base * data.draw(st.integers(1, 8)) + tail
        length = data.draw(st.integers(1, min(len(word), 80)))
        assert symbolic_recurrence_oracle(word, length) == factor_gaps_by_dict(word, length)

    @pytest.mark.parametrize(
        "alphabet, length",
        # ranks double at powers of two: lengths either side of 16, 32 and 64,
        # and lengths between them, which pair two shorter ranks
        [(2, 31), (2, 32), (2, 33), (2, 62), (2, 63), (2, 64), (2, 65), (2, 90)]
        + [(5, 15), (5, 16), (5, 17), (5, 20), (5, 21), (5, 40)],
    )
    def test_both_sides_of_a_key_word(self, alphabet, length):
        # random ends around two blocks in a random order: many distinct
        # factors agree on long runs
        rng = np.random.default_rng(alphabet * 100 + length)
        blocks = rng.integers(0, alphabet, (2, length // 3 + 1)).tolist()
        head, tail = rng.integers(0, alphabet, (2, length)).tolist()
        base = head + [c for b in rng.integers(0, 2, 12) for c in blocks[b]] + tail
        word = [SYMBOLS[c] for c in base * 3]
        assert symbolic_recurrence_oracle(word, length) == factor_gaps_by_dict(word, length)
        # a first or last factor that occurs once and differs from a repeated
        # one only in its first or last symbol, which a rank pair that covered
        # too few symbols would miss
        for edged in (
            [SYMBOLS[(base[-1] + 1) % alphabet]] + word,
            word + [SYMBOLS[(base[0] + 1) % alphabet]],
        ):
            assert symbolic_recurrence_oracle(edged, length) == math.inf
            assert factor_gaps_by_dict(edged, length) == math.inf

    def test_alternating_word(self):
        assert symbolic_recurrence_oracle("abab", 1) == 2
        assert symbolic_recurrence_oracle([0, 1] * 50, 2) == 2

    def test_single_occurrence_is_unbounded(self):
        assert symbolic_recurrence_oracle("abc", 2) == math.inf
        assert symbolic_recurrence_oracle([0, 1, 0, 1, 1], 2) == math.inf

    def test_non_integer_symbols_stay_distinct(self):
        # 1.5 and 1.2 share their integer part but are different symbols
        assert symbolic_recurrence_oracle([1.5, 1.2] * 4, 1) == 2
        assert symbolic_recurrence_oracle([(0, 1), "x", None] * 3, 2) == 3

    def test_more_symbols_than_a_byte_holds(self):
        word = list(range(300)) * 3
        assert symbolic_recurrence_oracle(word, 1) == 300
        assert symbolic_recurrence_oracle(word, 2) == 300

    def test_golden_word_matches_formula(self):
        cf = ContinuedFraction.golden()
        word = cf.beatty_word(1, 400)
        for ell in (1, 2, 3, 5, 8):
            assert symbolic_recurrence_oracle(word, ell) == recurrence_formula(cf, ell)

    def test_int_and_generic_paths_agree(self):
        word = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1]
        as_str = ["a" if c else "b" for c in word]
        for ell in (1, 2, 3):
            assert symbolic_recurrence_oracle(word, ell) == symbolic_recurrence_oracle(
                as_str, ell
            )

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            symbolic_recurrence_oracle("abc", 0)
        with pytest.raises(InvalidArgument):
            symbolic_recurrence_oracle("ab", 3)

    @pytest.mark.parametrize(
        "word, lengths",
        [
            ([[0], [1]], [1]),  # unhashable symbols
            ([{0: 1}, "a"], [2]),
            ("abc", []),
            ("abc", [0, 1]),
            ("abc", [-1]),
            ("abc", [2, 4]),
            ("", [1]),
        ],
    )
    def test_factor_ranks_refuses_bad_input(self, word, lengths):
        with pytest.raises(InvalidArgument):
            list(factor_ranks(word, lengths))
        if len(lengths) == 1:
            with pytest.raises(InvalidArgument):
                symbolic_recurrence_oracle(word, lengths[0])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_factor_ranks_equal_exactly_when_tuples_are(self, data):
        # few symbols and a repeated base, so long factors recur too
        symbols = SYMBOLS[: data.draw(st.integers(1, 5))]
        base = data.draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=30))
        tail = data.draw(st.lists(st.sampled_from(symbols), max_size=8))
        word = base * data.draw(st.integers(1, 4)) + tail
        lengths = data.draw(
            st.lists(st.integers(1, len(word)), min_size=1, max_size=12, unique=True)
        )
        got = list(factor_ranks(word, lengths))
        assert [ell for ell, _ in got] == sorted(lengths)
        for ell, ranks in got:
            factors = [tuple(word[s : s + ell]) for s in range(len(word) - ell + 1)]
            assert len(ranks) == len(factors)
            ids = {}
            for f, r in zip(factors, ranks.tolist()):
                assert ids.setdefault(f, r) == r  # equal tuples, equal ids
            assert sorted(ids.values()) == list(range(len(ids)))  # dense, one id a tuple
