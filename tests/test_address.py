"""Exact address coordinates and how linearly they track position."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone_lab.address import (
    build_address_map,
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
)
from delone_lab.generators import (
    GOLDEN_TAU,
    build_source,
    gen_beatty,
    gen_fibonacci,
    gen_integer_lattice,
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


class TestLipschitz:
    def test_lattice_exact(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-40, 40)]))
        rep = lipschitz_constant(ps)
        assert rep.value == 1.0
        assert rep.mode == "all-pairs"
        assert rep.pairs_used == 81 * 80 // 2

    def test_sampled_mode(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-40, 40)]))
        rep = lipschitz_constant(ps, exact_limit=10, sample_pairs=5000, seed=3)
        assert rep.mode == "sampled"
        assert rep.value == pytest.approx(1.0)

    def test_fibonacci_unit_gap_pairs(self):
        ps = gen_fibonacci().materialize(Region.box([(-60, 60)]))
        rep = lipschitz_constant(ps)
        assert rep.value == pytest.approx(1.0, rel=1e-12)

    def test_needs_two_points(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-0.5, 0.5)]))
        with pytest.raises(InsufficientData):
            lipschitz_constant(ps)

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
        val = wd.evaluate(Region.box([(0, 2), (0, 2)]))
        assert np.allclose(val, [4.0, 0.0])

    def test_lattice_1d(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-10, 10)]))
        amap = build_address_map(ps)
        wd = path_displacement_distribution(ps, amap, axis=0, R=0.5)
        assert np.allclose(wd.evaluate(Region.box([(0, 7)])), [7.0])

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
            wd.evaluate(Region.ball([0.0, 0.0], 2.0))
