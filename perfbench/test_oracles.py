"""Self-tests of the benchmark's reference computations.

    python3 -m pytest perfbench/test_oracles.py
"""

import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import oracles  # noqa: E402
import spans  # noqa: E402


def test_covering_radius_1d_sees_midpoints_and_ends():
    assert oracles.covering_radius_1d(np.arange(-10, 11), 0.2, 5.7) == 0.5
    # the far end of the box is 3 from the nearest point, more than any half-gap
    assert oracles.covering_radius_1d(np.array([1.0, 0.0, 2.5]), -3.0, 2.0) == 3.0
    # a gap whose midpoint lies outside the box does not count
    assert oracles.covering_radius_1d(np.array([0.0, 1.0, 9.0]), 0.0, 1.0) == 0.5


def test_box_counts_are_closed():
    pos = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    got = oracles.box_counts(pos, np.array([[0.0, 0.0], [0.5, 0.0]]), np.array([[1.0, 1.0], [1.5, 0.9]]))
    assert got.tolist() == [2, 0]


def test_derived_metrics_are_the_declared_per_layer_metrics():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    root = {"id": 0, "name": "cli", "parent": None, "start": 0.0, "end": 1.0,
            "attrs": {"command": "generate", "ok": True, "bytes": 1, "floor_calls": 0, "patch_keys": 0}}
    # trace.overhead_s compares traced with untraced passes, so run.py adds it
    assert set(spans.derive([root])) | {"trace.overhead_s"} == declared


def test_voronoi_covering_radius_of_z2_is_half_diagonal():
    g = np.arange(-6, 7)
    centers = np.stack([a.ravel() for a in np.meshgrid(g, g, indexing="ij")], axis=1)
    got = oracles.covering_radius_box_2d(centers, [(-3.0, 3.0), (-2.5, 4.0)])
    assert abs(got - math.sqrt(2.0) / 2.0) < 1e-12


def test_voronoi_covering_radius_sees_boundary_crossings():
    # two centers left of a unit box: no Voronoi vertex, the corners give 2,
    # and the bisector y = 1/2 meets the far edge at distance hypot(2, 1/2)
    centers = np.array([[-1.0, 0.0], [-1.0, 1.0]])
    got = oracles.covering_radius_box_2d(centers, [(0.0, 1.0), (0.0, 1.0)])
    assert abs(got - math.hypot(2.0, 0.5)) < 1e-12


def test_voronoi_agrees_with_a_fine_grid_on_random_centers():
    rng = np.random.default_rng(7)
    centers = rng.uniform(-5, 5, size=(40, 2))
    box = [(-3.0, 3.0), (-2.0, 3.0)]
    exact = oracles.covering_radius_box_2d(centers, box)
    lo, hi = oracles.covering_radius_grid(centers, box, 0.01)
    assert lo - 1e-12 <= exact <= hi + 1e-12


def test_isqrt_floor_matches_the_continued_fraction():
    from delone_lab.contfrac import ContinuedFraction

    cf = ContinuedFraction.golden()
    js = list(range(-3000, 3001)) + [10**6 + 7, -(10**9) - 3, 3 * 10**12 + 1]
    assert all(oracles.golden_floor(j) == cf.floor_multiple(j) for j in js)


def test_cut_strip_is_exact():
    for m in range(-500, 501):
        p = 0 if m == 0 else oracles.golden_floor(m) + 1
        assert oracles.cut_strip_holds(m, p)
        assert not oracles.cut_strip_holds(m, p + 1)
        assert not oracles.cut_strip_holds(m, p - 1)


def test_exponential_sum_reproduces_z1_triangle_counts():
    # the open ball of radius 10 holds 19 integers: m-differences occur 19-|m| times
    x = np.arange(-15, 16, dtype=float)
    k = np.linspace(0.0, 2.0, 401)
    m = np.arange(-18, 19)
    want = ((19 - np.abs(m))[None, :] * np.cos(2 * math.pi * np.outer(k, m))).sum(axis=1) / 20.0
    got = oracles.exponential_sum_intensity(x, 10.0, k)
    assert np.allclose(got, want, rtol=0, atol=1e-9)
    assert abs(got[0] - 18.05) < 1e-12 and abs(got[100] - 0.05) < 1e-9


def test_beatty_window_has_the_golden_gaps():
    tau = (1 + math.sqrt(5)) / 2
    addr = oracles.beatty_window(-50.0, 50.0, tau)
    x = addr @ np.array([1.0, tau])
    gaps = np.round(np.diff(x), 9)
    assert set(gaps.tolist()) == {1.0, round(tau, 9)}
    assert x[0] >= -50 and x[-1] <= 50 and x[0] - tau < -50 and x[-1] + tau > 50


def test_integer_coefficients():
    basis = np.array([[1, 2], [0, 3]])
    assert oracles.integer_coefficients(np.array([[2, 7], [0, 0]]), basis) is not None
    assert oracles.integer_coefficients(np.array([[0, 1]]), basis) is None
