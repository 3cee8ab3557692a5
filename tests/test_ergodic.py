"""Box-weight averages: density spreads, frequencies, oscillation floors."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone_lab.atlas import compute_atlas
from delone_lab.core import ExactPointSet, Region
from delone_lab.errors import InsufficientWindow, InvalidArgument
from delone_lab.ergodic import (
    _slab_counter,
    density_profile,
    oscillation_probe,
    patch_frequency,
    point_count_weight,
    volume_weight,
    white_point_count_weight,
)
from delone_lab.generators import (
    gen_fibonacci,
    gen_integer_lattice,
    gen_product,
    gen_two_color,
)


class TestWeights:
    def test_volume_is_exact(self):
        wd = volume_weight(2)
        assert wd.evaluate(Region.box([(0, 3), (0, 4)])) == 12.0

    def test_point_count_closed_faces(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-50, 50)]))
        wd = point_count_weight(ps)
        assert wd.evaluate(Region.box([(0, 10)])) == 11.0
        assert wd.evaluate(Region.box([(0.5, 9.5)])) == 9.0

    def test_white_count_matches_structure(self):
        src = gen_two_color(1, [16, 32, 64, 128])
        ps = src.materialize(Region.box([(-20, 20)]))
        wd = white_point_count_weight(ps)
        st = src.extras["structure"]
        assert wd.evaluate(Region.box([(-0.2, 7.2)])) == st.white_count_in_box([0], [8])


# box faces on point coordinates, a hair inside or outside them, or elsewhere
FACE_SHIFTS = [0.0, 1e-9, -1e-9, 2e-9, -2e-9, 1e-12, 0.5]


@st.composite
def points_and_region(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=0, max_value=40))
    coord = st.one_of(
        st.integers(min_value=-6, max_value=6).map(float),  # coincident coordinates
        st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
    )
    pts = np.array(
        draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=m, max_size=m)),
        dtype=float,
    ).reshape(m, n)

    def face(axis):
        if m and draw(st.booleans()):
            base = pts[draw(st.integers(min_value=0, max_value=m - 1)), axis]
        else:  # anywhere, including far outside the points
            base = draw(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
        return base + draw(st.sampled_from(FACE_SHIFTS))

    if draw(st.integers(min_value=0, max_value=4)) == 0:
        center = [face(i) for i in range(n)]
        radius = draw(st.floats(min_value=0.0, max_value=8.0, allow_nan=False))
        return pts, Region.ball(center, radius)
    intervals = []
    for i in range(n):
        a, b = sorted((face(i), face(i)))
        intervals.append((a, b if b > a else a + 1.0))
    return pts, Region.box(intervals)


class TestSlabCounter:
    @settings(max_examples=400, deadline=None)
    @given(points_and_region())
    def test_equals_contains_count(self, case):
        pts, region = case
        expected = float(np.count_nonzero(region.contains(pts))) if len(pts) else 0.0
        assert _slab_counter(pts)(region) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_faces_on_and_beside_coordinates(self, n):
        rng = np.random.default_rng(n)
        pts = rng.integers(-4, 5, size=(200, n)).astype(float) + rng.choice(
            [0.0, 1e-9, -1e-9, 0.25], size=(200, n)
        )
        count = _slab_counter(pts)
        for shift_a in FACE_SHIFTS:
            for shift_b in FACE_SHIFTS:
                box = Region.box([(-2 + shift_a, 1 + shift_b)] * n)
                assert count(box) == np.count_nonzero(box.contains(pts))

    def test_empty_set_and_boxes_outside(self):
        for n in (1, 2, 3):
            assert _slab_counter(np.zeros((0, n)))(Region.centered_box(n, 5.0)) == 0.0
            pts = np.arange(3 * n, dtype=float).reshape(3, n)
            far = Region.box([(100.0, 101.0)] * n)
            assert _slab_counter(pts)(far) == 0.0
            assert _slab_counter(pts)(Region.ball([-50.0] * n, 3.0)) == 0.0

    def test_dimension_mismatch_raises_like_contains(self):
        with pytest.raises(InvalidArgument):
            _slab_counter(np.zeros((4, 1)))(Region.centered_box(2, 1.0))
        with pytest.raises(InvalidArgument):
            _slab_counter(np.zeros((4, 2)))(Region.centered_box(1, 1.0))

    def test_white_mask_on_two_color_window(self):
        src = gen_two_color(2, [100, 400])
        ps = src.materialize(Region.centered_box(2, 12.0))
        wd = white_point_count_weight(ps)
        white = ps.addresses[:, 0] % 3 == 0
        assert 0 < np.count_nonzero(white) < len(ps)
        rng = np.random.default_rng(5)
        for _ in range(60):
            lo = rng.uniform(-14.0, 10.0, size=2)
            box = Region.box(list(zip(lo, lo + rng.uniform(0.1, 8.0, size=2))))
            assert wd.evaluate(box) == np.count_nonzero(box.contains(ps.points) & white)

    def test_weights_of_an_empty_set(self):
        ps = ExactPointSet(2, 2, np.eye(2), np.zeros((0, 2)), Region.centered_box(2, 3.0))
        box = Region.centered_box(2, 1.0)
        assert point_count_weight(ps).evaluate(box) == 0.0
        assert white_point_count_weight(ps).evaluate(box) == 0.0


class TestDensityProfile:
    def test_volume_spread_is_zero(self):
        prof = density_profile(volume_weight(1), Region.box([(-300, 300)]), [4, 8, 16])
        assert all(row.delta == 0.0 for row in prof.rows)
        assert prof.trend_ok

    def test_lattice_count_spread_bound(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-300, 300)]))
        prof = density_profile(point_count_weight(ps), ps.region, [4, 8, 16])
        for row in prof.rows:
            assert row.delta <= 2.0 / row.U + 1e-12
        assert prof.trend_ok

    def test_row_shape(self):
        prof = density_profile(volume_weight(1), Region.box([(-300, 300)]), [8])
        row = prof.rows[0]
        assert row.n_boxes > 200  # tiling plus random boxes
        assert row.f_minus <= row.f_zero_median <= row.f_plus

    def test_deterministic_under_seed(self):
        ps = gen_fibonacci().materialize(Region.box([(-300, 300)]))
        a = density_profile(point_count_weight(ps), ps.region, [4, 8], seed=7)
        b = density_profile(point_count_weight(ps), ps.region, [4, 8], seed=7)
        assert [(r.f_plus, r.f_minus, r.delta) for r in a.rows] == [
            (r.f_plus, r.f_minus, r.delta) for r in b.rows
        ]

    def test_window_validation(self):
        with pytest.raises(InsufficientWindow):
            density_profile(volume_weight(1), Region.box([(-20, 20)]), [16])
        with pytest.raises(InvalidArgument):
            density_profile(volume_weight(2), Region.ball([0.0, 0.0], 50.0), [4])
        with pytest.raises(InvalidArgument):
            density_profile(volume_weight(1), Region.box([(-300, 300)]), [])


class TestPatchFrequency:
    def test_lattice_counts(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-50, 50)]))
        key = tuple((k,) for k in range(-2, 3))
        rows = patch_frequency(
            ps, key, 2.0, [Region.box([(-10, 10)]), Region.box([(-20, 20)])]
        )
        assert [r.count for r in rows] == [21, 41]
        assert rows[0].frequency == pytest.approx(21 / 20)
        assert rows[1].frequency == pytest.approx(41 / 40)

    def test_absent_key_gives_zero(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-50, 50)]))
        rows = patch_frequency(ps, ((0,),), 2.0, [Region.box([(-10, 10)])])
        assert rows[0].count == 0 and rows[0].frequency == 0.0

    def test_fibonacci_sparsest_class(self):
        ps = gen_fibonacci().materialize(Region.box([(-60, 60)]))
        rows = patch_frequency(
            ps, ((0, 0),), 1.2, [Region.box([(-40, 40)]), Region.box([(-55, 55)])]
        )
        assert [r.count for r in rows] == [13, 19]

    def test_region_outside_certified_rejected(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-50, 50)]))
        key = tuple((k,) for k in range(-2, 3))
        with pytest.raises(InsufficientWindow):
            patch_frequency(ps, key, 2.0, [Region.box([(-49, 49)])])

    def test_given_atlas_is_used_and_checked(self):
        ps = gen_fibonacci().materialize(Region.box([(-60, 60)]))
        regions = [Region.box([(-40, 40)]), Region.box([(-55, 55)])]
        at = compute_atlas(ps, 1.2)
        assert patch_frequency(ps, ((0, 0),), 1.2, regions, atlas=at) == patch_frequency(
            ps, ((0, 0),), 1.2, regions
        )
        with pytest.raises(InvalidArgument):
            patch_frequency(ps, ((0, 0),), 2.0, regions, atlas=at)
        with pytest.raises(InvalidArgument):
            patch_frequency(ps, ((0, 0),), 1.2, regions, atlas=compute_atlas(ps, 1.2, "cube"))

    def test_bad_key_rejected_before_the_atlas(self, monkeypatch):
        import delone_lab.ergodic as ergodic

        def no_atlas(*args, **kwargs):
            raise AssertionError("atlas built for a key that cannot occur")

        monkeypatch.setattr(ergodic, "compute_atlas", no_atlas)
        ps = gen_integer_lattice(1).materialize(Region.box([(-50, 50)]))
        with pytest.raises(InvalidArgument, match="zero vector"):
            patch_frequency(ps, ((1,),), 2.0, [Region.box([(-10, 10)])])
        with pytest.raises(InvalidArgument, match="zero vector"):
            oscillation_probe(gen_integer_lattice(1), [5, 10], T=1.0, key=((1,),))


class TestOscillation:
    def test_two_color_rows_are_rho(self):
        src = gen_two_color(1, [16, 32, 64, 128])
        rep = oscillation_probe(src, src.extras["scales"])
        assert rep.mode == "white-cells"
        assert [r.exact for r in rep.rows] == [
            Fraction(1, 4),
            Fraction(11, 16),
            Fraction(43, 128),
            Fraction(1339, 2048),
        ]

    def test_oscillation_exceeds_product_floor(self):
        src = gen_two_color(1, [16, 32, 64, 128])
        rep = oscillation_probe(src, src.extras["scales"])
        assert rep.oscillation == float(Fraction(651, 2048))
        assert rep.floor == float(Fraction(315, 1024))
        assert rep.exceeds_floor is True

    def test_two_color_scale_validation(self):
        src = gen_two_color(1, [16, 32, 64, 128])
        with pytest.raises(InvalidArgument):
            oscillation_probe(src, [2.5])
        with pytest.raises(InvalidArgument):
            oscillation_probe(src, [])

    def test_generic_mode_on_lattice(self):
        src = gen_integer_lattice(1)
        key = ((-1,), (0,), (1,))
        rep = oscillation_probe(src, [5, 10, 20, 40], T=1.0, key=key)
        assert rep.mode == "patch-key"
        assert rep.floor is None and rep.exceeds_floor is None
        assert rep.oscillation == pytest.approx(1.0 / 80.0)

    @pytest.mark.parametrize(
        "name, T, key, rows",
        [
            (
                "fibonacci",
                1.0,
                ((-1, 0), (0, 0)),
                [(5.0, 3, 0.3), (10.0, 5, 0.25), (20.0, 11, 0.275), (40.0, 23, 0.2875)],
            ),
            (
                "fib-x-fib",
                1.5,
                ((-1, 0, -1, 0), (-1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, 0)),
                [(4.0, 9, 0.140625), (8.0, 25, 0.09765625), (12.0, 49, 0.08506944444444445)],
            ),
        ],
    )
    def test_generic_mode_rows_pinned(self, name, T, key, rows):
        src = gen_fibonacci()
        if name == "fib-x-fib":
            src = gen_product([src, gen_fibonacci()])
        scales = [r[0] for r in rows]
        rep = oscillation_probe(src, scales[::-1], T=T, key=key)
        assert [(r.scale, r.count, r.frequency, r.exact) for r in rep.rows] == [
            (*r, None) for r in rows
        ]
        upper = [r[2] for r in rows[len(rows) // 2 :]]
        assert rep.oscillation == max(upper) - min(upper)
        never = oscillation_probe(src, scales, T=T, key=((0,) * src.rank, (99,) * src.rank))
        assert [(r.count, r.frequency) for r in never.rows] == [(0, 0.0)] * len(rows)

    def test_generic_mode_divides_by_2s_to_the_n(self):
        # at s = 2.3 in Z^3, 118 / 4.6**3 and 118 / (4.6 * 4.6 * 4.6) differ in the last bit
        key = ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
        rep = oscillation_probe(gen_integer_lattice(3, deletions=[(0, 0, 0)]), [2.3], T=1.0, key=key)
        assert rep.rows[0].count == 118 and rep.rows[0].frequency == 118 / 4.6**3

    def test_generic_mode_needs_key(self):
        with pytest.raises(InvalidArgument):
            oscillation_probe(gen_integer_lattice(1), [5, 10])
