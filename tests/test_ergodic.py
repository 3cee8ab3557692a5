"""Box-weight averages: density spreads, frequencies, oscillation floors."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone_lab import ergodic
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


def boxes_of(*regions):
    """An (m, n, 2) box array, one Region.intervals per box."""
    return np.array([r.intervals for r in regions])


class TestWeights:
    def test_volume_is_exact(self):
        wd = volume_weight(2)
        assert wd.evaluate(boxes_of(Region.box([(0, 3), (0, 4)]))).tolist() == [12.0]

    def test_point_count_closed_faces(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-50, 50)]))
        wd = point_count_weight(ps)
        got = wd.evaluate(boxes_of(Region.box([(0, 10)]), Region.box([(0.5, 9.5)])))
        assert got.tolist() == [11.0, 9.0]

    def test_white_count_matches_structure(self):
        src = gen_two_color(1, [16, 32, 64, 128])
        ps = src.materialize(Region.box([(-20, 20)]))
        wd = white_point_count_weight(ps)
        st = src.extras["structure"]
        assert wd.evaluate(boxes_of(Region.box([(-0.2, 7.2)])))[0] == st.white_count_in_box([0], [8])

    def test_no_boxes(self):
        ps = gen_integer_lattice(2).materialize(Region.centered_box(2, 3.0))
        assert point_count_weight(ps).evaluate(np.zeros((0, 2, 2))).shape == (0,)
        assert volume_weight(2).evaluate(np.zeros((0, 2, 2))).shape == (0,)


# box faces on point coordinates, a hair inside or outside them, or elsewhere
FACE_SHIFTS = [0.0, 1e-9, -1e-9, 2e-9, -2e-9, 1e-12, 0.5]


@st.composite
def points_and_boxes(draw):
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

    def box():
        intervals = []
        for i in range(n):
            a, b = sorted((face(i), face(i)))
            intervals.append((a, b if b > a else a + 1.0))
        return Region.box(intervals)

    return pts, [box() for _ in range(draw(st.integers(min_value=1, max_value=8)))]


class TestSlabCounter:
    @settings(max_examples=120, deadline=None)
    @given(points_and_boxes())
    def test_equals_contains_count(self, case):
        pts, boxes = case
        expected = [float(np.count_nonzero(b.contains(pts))) if len(pts) else 0.0 for b in boxes]
        assert _slab_counter(pts)(boxes_of(*boxes)).tolist() == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_faces_on_and_beside_coordinates(self, n):
        rng = np.random.default_rng(n)
        pts = rng.integers(-4, 5, size=(200, n)).astype(float) + rng.choice(
            [0.0, 1e-9, -1e-9, 0.25], size=(200, n)
        )
        boxes = [
            Region.box([(-2 + shift_a, 1 + shift_b)] * n)
            for shift_a in FACE_SHIFTS
            for shift_b in FACE_SHIFTS
        ]
        expected = [np.count_nonzero(box.contains(pts)) for box in boxes]
        assert _slab_counter(pts)(boxes_of(*boxes)).tolist() == expected

    def test_empty_set_and_boxes_outside(self):
        for n in (1, 2, 3):
            assert _slab_counter(np.zeros((0, n)))(boxes_of(Region.centered_box(n, 5.0))).tolist() == [0.0]
            pts = np.arange(3 * n, dtype=float).reshape(3, n)
            far = Region.box([(100.0, 101.0)] * n)
            assert _slab_counter(pts)(boxes_of(far)).tolist() == [0.0]

    def test_dimension_mismatch_raises_like_contains(self):
        with pytest.raises(InvalidArgument):
            _slab_counter(np.zeros((4, 1)))(boxes_of(Region.centered_box(2, 1.0)))
        with pytest.raises(InvalidArgument):
            _slab_counter(np.zeros((4, 2)))(boxes_of(Region.centered_box(1, 1.0)))
        with pytest.raises(InvalidArgument):
            _slab_counter(np.zeros((4, 2)))(np.zeros((2, 2)))

    def test_white_mask_on_two_color_window(self):
        src = gen_two_color(2, [100, 400])
        ps = src.materialize(Region.centered_box(2, 12.0))
        wd = white_point_count_weight(ps)
        white = ps.addresses[:, 0] % 3 == 0
        assert 0 < np.count_nonzero(white) < len(ps)
        rng = np.random.default_rng(5)
        boxes = []
        for _ in range(60):
            lo = rng.uniform(-14.0, 10.0, size=2)
            boxes.append(Region.box(list(zip(lo, lo + rng.uniform(0.1, 8.0, size=2)))))
        expected = [np.count_nonzero(box.contains(ps.points) & white) for box in boxes]
        assert wd.evaluate(boxes_of(*boxes)).tolist() == expected

    def test_weights_of_an_empty_set(self):
        ps = ExactPointSet(2, 2, np.eye(2), np.zeros((0, 2)), Region.centered_box(2, 3.0))
        boxes = boxes_of(Region.centered_box(2, 1.0))
        assert point_count_weight(ps).evaluate(boxes).tolist() == [0.0]
        assert white_point_count_weight(ps).evaluate(boxes).tolist() == [0.0]


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

    @pytest.mark.parametrize(
        "name, source, half, rows",
        [
            ("fibonacci", gen_fibonacci(), 4000.0, [
                (4.000001, 0.9387285468500358, 0.48623000126318344, 0.7499998125000473, 0.4524985455868524, 700),
                (8.000001, 0.8447124959530317, 0.6101768598272449, 0.7499999062500013, 0.23453563612578676, 700),
                (16.000001, 0.7741824044841115, 0.6778590023005783, 0.7323008553506586, 0.09632340218353319, 699),
            ]),
            ("z2", gen_integer_lattice(2), 60.0, [
                (4.000001, 1.562499218750295, 0.7828564971163163, 0.999999500000188, 0.7796427216339787, 621),
                (8.000001, 1.2656246835938103, 0.8658529975683901, 0.9999997500000476, 0.39977168602542024, 396),
                (16.000001, 1.1289061088867323, 0.9377887475246289, 0.999999875000012, 0.19111736136210333, 249),
            ]),
        ],
    )
    def test_pinned_count_rows(self, name, source, half, rows):
        # seed 0, the default U values: the random boxes draw n sides, then
        # n corners per box, and densities are count / product of the sides
        ps = source.materialize(Region.centered_box(source.dimension, half))
        prof = density_profile(point_count_weight(ps), ps.region, [4.000001, 8.000001, 16.000001])
        got = [(r.U, r.f_plus, r.f_minus, r.f_zero_median, r.delta, r.n_boxes) for r in prof.rows]
        assert got == rows

    def test_sides_the_coordinates_cannot_resolve_are_rejected(self, monkeypatch):
        # floats near 10^6 are 2^-33 (1.2e-10) apart: a side of 1 rounds by
        # far less than BOX_SIDE_RTOL of itself, one of 3e-10 by a sixth
        ps = gen_integer_lattice(1).materialize(Region.box([(10**6, 10**6 + 100)]))
        weight = point_count_weight(ps)
        assert density_profile(weight, ps.region, [1.0]).rows[0].f_plus == 2.0
        with pytest.raises(InvalidArgument, match="U = 3e-10 gives boxes too small"):
            density_profile(weight, ps.region, [3e-10, 1.0])
        monkeypatch.setattr(ergodic, "BOX_SIDE_RTOL", 0.2)
        assert density_profile(weight, ps.region, [3e-10, 1.0]).rows[0].U == 3e-10

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
