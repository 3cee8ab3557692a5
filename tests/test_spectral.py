"""Pair-difference measures and cosine-series spectra."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone_lab.core import ExactPointSet, Region, lex_order, unit_ball_volume
from delone_lab.errors import InvalidArgument, WindowTooSmall
from delone_lab import spectral
from delone_lab.generators import (
    gen_cut_project_1d,
    gen_fibonacci,
    gen_integer_lattice,
    gen_product,
)
from delone_lab.spectral import (
    Autocorrelation,
    SpectrumEstimate,
    autocorrelation,
    detect_peaks,
    diffraction_estimate,
)


def brute_pair_counts(ps, T, center=None):
    """Quadratic ordered-pair counter over the open ball, address diffs."""
    c = np.zeros(ps.dimension) if center is None else np.asarray(center, float)
    d2 = np.sum((ps.points - c) ** 2, axis=1)
    sel = np.nonzero(d2 < T * T)[0]
    out = Counter()
    for i in sel:
        for j in sel:
            out[tuple(int(v) for v in ps.addresses[i] - ps.addresses[j])] += 1
    return dict(out)


class TestAutocorrelation:
    def setup_method(self):
        self.ps = gen_integer_lattice(1).materialize(Region.box([(-15, 15)]))
        self.ac = autocorrelation(self.ps, 10.0)

    def test_matches_brute_force(self):
        assert self.ac.counts == brute_pair_counts(self.ps, 10.0)

    def test_chunks_merge_to_brute_force(self, monkeypatch):
        monkeypatch.setattr(spectral, "DIFF_CHUNK_ROWS", 1000)
        ps = gen_fibonacci().materialize(Region.box([(-70, 70)]))
        ac = autocorrelation(ps, 60.0, center=[0.5])
        assert 1000 // ac.point_count < ac.point_count // 4  # at least four chunks
        assert ac.counts == brute_pair_counts(ps, 60.0, center=[0.5])
        assert all(type(k) is int for k in ac.counts.values())
        assert all(type(v) is int for diff in ac.counts for v in diff)

    def test_empty_ball(self):
        ps = gen_fibonacci().materialize(Region.box([(0.1, 0.4)]))
        ac = autocorrelation(ps, 0.1, center=[0.25])
        assert ac.point_count == 0 and ac.counts == {}

    def test_triangle_counts(self):
        assert self.ac.point_count == 19
        for m in range(-18, 19):
            assert self.ac.counts[(m,)] == 19 - abs(m)
        assert (19,) not in self.ac.counts

    def test_exact_normalization(self):
        assert unit_ball_volume(1) == 2.0
        assert self.ac.normalization == 20.0
        assert self.ac.weight_at((5,)) == 14 / 20
        assert self.ac.weight_at((99,)) == 0.0

    @pytest.mark.parametrize("bad", [(5.7,), (True,), (np.bool_(True),), ("5",), 5])
    def test_weight_at_takes_integer_entries_only(self, bad):
        assert self.ac.weight_at((np.int64(5),)) == 14 / 20
        with pytest.raises(InvalidArgument, match="is an integer vector"):
            self.ac.weight_at(bad)

    def test_address_spans_past_one_int64_key(self):
        # rank 3 with spans of 2^45: the keys of the differences need 139
        # bits, so they are Python ints
        rng = np.random.default_rng(5)
        a = rng.integers(-(1 << 45), 1 << 45, size=40)
        addr = np.stack([np.arange(40), a, a - rng.integers(0, 1 << 40, size=40)], axis=1)
        proj = np.array([[1.0], [2.0**-40], [-(2.0**-40)]])
        ps = ExactPointSet(1, 3, proj, addr, Region.box([(-0.5, 40.5)]))
        ac = autocorrelation(ps, 12.0, center=[20.0])
        assert ac.point_count == 24
        assert ac.counts == brute_pair_counts(ps, 12.0, center=[20.0])
        assert all(type(k) is int for k in ac.counts.values())
        assert all(type(v) is int for diff in ac.counts for v in diff)

    def test_peak_is_bounded(self):
        """tracemalloc peak on fibonacci ±400 at T = 300 (434 points, 188 356
        ordered pairs): at most 24 bytes a pair, one int64 key difference and
        its sorted copy. Grouping narrowed difference rows peaked at 7.2 MB
        (38 bytes a pair) here."""
        ps = gen_fibonacci().materialize(Region.box([(-400, 400)]))
        tracemalloc.start()
        try:
            ac = autocorrelation(ps, 300.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ac.point_count == 434
        assert peak <= 24 * ac.point_count**2

    def test_symmetry(self):
        for diff, cnt in self.ac.counts.items():
            assert self.ac.counts[tuple(-v for v in diff)] == cnt

    def test_atoms_sorted_with_positions(self):
        atoms = self.ac.atoms()
        diffs = [a[0] for a in atoms]
        assert diffs == sorted(diffs)
        for diff, pos, cnt, w in atoms:
            assert pos[0] == pytest.approx(float(diff[0]))
            assert w == cnt / 20.0

    def test_off_center(self):
        ac = autocorrelation(self.ps, 10.0, center=[0.5])
        assert ac.point_count == 20
        assert ac.counts == brute_pair_counts(self.ps, 10.0, center=[0.5])

    def test_ball_must_fit(self):
        with pytest.raises(WindowTooSmall):
            autocorrelation(self.ps, 20.0)
        with pytest.raises(WindowTooSmall):
            autocorrelation(self.ps, 10.0, center=[8.0])

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            autocorrelation(self.ps, -1.0)
        with pytest.raises(InvalidArgument):
            autocorrelation(self.ps, 10.0, center=[0.0, 0.0])


class TestDiffraction:
    def setup_method(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-15, 15)]))
        self.ac = autocorrelation(ps, 10.0)

    def test_frozen_lattice_values(self):
        spec = diffraction_estimate(self.ac, [0.0, 0.5, 1.0])
        assert spec.value_at(0.0) == pytest.approx(18.05, abs=1e-9)
        assert spec.value_at(0.5) == pytest.approx(0.05, abs=1e-9)
        assert spec.value_at(1.0) == pytest.approx(18.05, abs=1e-9)

    def test_matches_structure_factor(self):
        # independent route: squared modulus of the exponential sum
        ks = np.linspace(0.0, 2.0, 41)
        spec = diffraction_estimate(self.ac, ks)
        x = np.arange(-9, 10)
        for k, got in zip(ks, spec.intensity):
            amp = np.exp(2j * math.pi * k * x).sum()
            assert got == pytest.approx(abs(amp) ** 2 / 20.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, bad):
        with pytest.raises(InvalidArgument, match="k grid must be finite"):
            diffraction_estimate(self.ac, [0.0, bad, 1.0])

    def test_phases_past_float_resolution_rejected(self, monkeypatch):
        # the atoms reach |v| = 18: k = 7e7 keeps every phase 2 pi k v below
        # PHASE_MAX = 2^33 (8.6e9), k = 8e7 does not
        assert diffraction_estimate(self.ac, [7e7]).intensity[0] == pytest.approx(18.05, abs=1e-3)
        with pytest.raises(InvalidArgument, match="k grid too large"):
            diffraction_estimate(self.ac, [0.0, 8e7])
        monkeypatch.setattr(spectral, "PHASE_MAX", 1.0)
        with pytest.raises(InvalidArgument, match="k grid too large"):
            diffraction_estimate(self.ac, [0.0, 0.5])
        assert diffraction_estimate(self.ac, np.zeros((0, 1))).intensity.size == 0

    def test_value_at_off_grid(self):
        spec = diffraction_estimate(self.ac, [0.0, 1.0])
        with pytest.raises(InvalidArgument):
            spec.value_at(0.25)

    def test_wrong_k_dimension(self):
        with pytest.raises(InvalidArgument):
            diffraction_estimate(self.ac, np.zeros((3, 2)))

    def test_fibonacci_spectrum_sane(self):
        ps = gen_fibonacci().materialize(Region.box([(-40, 40)]))
        ac = autocorrelation(ps, 30.0)
        spec = diffraction_estimate(ac, np.linspace(0.0, 2.0, 201))
        assert float(spec.intensity.max()) == spec.value_at(0.0)
        assert spec.value_at(0.0) == pytest.approx(ac.point_count**2 / 60.0, rel=1e-12)


def spectral_source(kind, base):
    if kind == "fibonacci":
        return gen_fibonacci()
    if kind == "cut_project":
        return gen_cut_project_1d("golden")
    if kind == "fibxfib":
        return gen_product([gen_fibonacci(), gen_fibonacci()])
    return gen_integer_lattice(2, deletions=[(base, base), (base + 2, base - 1)])


def hand_built(counts):
    return Autocorrelation(
        dimension=1,
        T=1.0,
        center=(0.0,),
        point_count=0,
        normalization=2.0,
        counts=counts,
        projection=np.eye(1),
    )


def cosine_sum(ac, K):
    """The direct sum, one cosine per (k, atom), term for term as
    diffraction_estimate takes it on a grid that is not uniform."""
    table = np.array(list(ac.counts), dtype=np.int64).reshape(-1, ac.projection.shape[0])
    cnt = np.array(list(ac.counts.values()), dtype=np.int64)
    order = lex_order(table)
    table, cnt = table[order], cnt[order]
    upper = (cnt.size + 1) // 2
    zero = cnt[upper - 1] if cnt.size % 2 else 0
    phase = 2.0 * math.pi * (K @ (table[upper:] @ ac.projection).T)
    return (zero + 2.0 * (np.cos(phase) @ cnt[upper:])) / ac.normalization


class TestDiffractionAgainstExponentialSum:
    """Independent route: |sum_j exp(2 pi i k . x_j)|^2 / (kappa_n T^n) over
    the points of the ball, against the cosine sum over the atoms."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["fibonacci", "cut_project", "fibxfib", "z2-holes"]),
        st.sampled_from([0, 300_000]),
        st.floats(0.0, 1.0),
        st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
    )
    def test_cosine_sum_equals_squared_modulus(self, kind, base, t, shift):
        n = 2 if kind in ("fibxfib", "z2-holes") else 1
        half = 7.0 if n == 2 else 20.0
        T = 1.5 + t * (half - 2.5)
        c = np.full(n, base + shift * (half - T))  # shift 0: the window's center
        ps = spectral_source(kind, base).materialize(Region.box([(base - half, base + half)] * n))
        ac = autocorrelation(ps, T, center=c)
        if n == 1:
            K = np.linspace(0.0, 2.0, 81)[:, None]
        else:
            K = np.stack(np.meshgrid(np.linspace(0, 1.5, 7), np.linspace(0, -1, 5)), -1).reshape(-1, 2)
        got = diffraction_estimate(ac, K).intensity

        addr = ps.addresses[np.sum((ps.points - c) ** 2, axis=1) < T * T]
        assert addr.shape[0] == ac.point_count > 0
        # positions relative to one point of the ball keep the phases small
        x = (addr - addr[0]) @ ps.projection
        norm = unit_ball_volume(n) * T**n
        want = np.abs(np.exp(2j * math.pi * (K @ x.T)).sum(axis=1)) ** 2 / norm
        scale = addr.shape[0] ** 2 / norm  # the intensity at k = 0, K[0]
        assert got[0] == pytest.approx(scale, rel=1e-12)
        assert np.max(np.abs(got - want)) <= 1e-9 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["fibonacci", "cut_project", "fibxfib"]),
        st.integers(4, 2001),
        st.one_of(st.just(0.0), st.floats(-50.0, 50.0)),
        st.floats(0.01, 50.0),
        st.floats(0.0, 1.0),
    )
    def test_uniform_grid_equals_squared_modulus(self, kind, m, k0, kmax, t):
        # uniform grids, which take the factored sum where it saves cosines;
        # in 2-D a k-line across the plane
        n = 2 if kind == "fibxfib" else 1
        half = 7.0 if n == 2 else 20.0
        T = 1.5 + t * (half - 2.5)
        ps = spectral_source(kind, 0).materialize(Region.box([(-half, half)] * n))
        ac = autocorrelation(ps, T)
        K = np.linspace(k0, kmax, m)[:, None] if n == 1 else np.linspace([k0, kmax / 2], [kmax, -k0], m)
        got = diffraction_estimate(ac, K).intensity

        addr = ps.addresses[np.sum(ps.points**2, axis=1) < T * T]
        x = (addr - addr[0]) @ ps.projection
        norm = unit_ball_volume(n) * T**n
        want = np.abs(np.exp(2j * math.pi * (K @ x.T)).sum(axis=1)) ** 2 / norm
        assert np.max(np.abs(got - want)) <= 1e-9 * addr.shape[0] ** 2 / norm

    @pytest.mark.parametrize("grid", ["shuffled", "meshgrid", "three rows"])
    def test_other_grids_take_the_direct_sum(self, grid):
        if grid == "meshgrid":
            ps = spectral_source("fibxfib", 0).materialize(Region.box([(-7, 7)] * 2))
            ac = autocorrelation(ps, 6.0)
            K = np.stack(np.meshgrid(np.linspace(0, 1.5, 30), np.linspace(0, -1, 30)), -1).reshape(-1, 2)
        elif grid == "shuffled":
            ac = autocorrelation(gen_fibonacci().materialize(Region.box([(-40, 40)])), 30.0)
            K = np.linspace(0.0, 2.0, 801)[np.random.default_rng(0).permutation(801), None]
        else:  # the grid of verify's autocorrelation-frozen check
            ac = autocorrelation(gen_integer_lattice(1).materialize(Region.box([(-15, 15)])), 10.0)
            K = np.array([[0.0], [0.5], [1.0]])
        assert np.array_equal(diffraction_estimate(ac, K).intensity, cosine_sum(ac, K))

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_uniform_grid_takes_cosines_of_coarse_and_fine_rows(self, shuffle, monkeypatch):
        ac = autocorrelation(gen_fibonacci().materialize(Region.box([(-40, 40)])), 30.0)
        K = np.linspace(0.0, 2.0, 801)[:, None]
        if shuffle:
            K = K[np.random.default_rng(0).permutation(801)]
        seen = []
        cos = np.cos
        monkeypatch.setattr(np, "cos", lambda x: seen.append(x.size) or cos(x))
        diffraction_estimate(ac, K)
        atoms = len(ac.counts) // 2
        # 801 rows are 28 coarse rows of 29 fine ones
        assert sum(seen) == (801 if shuffle else 28 + 29) * atoms

    def test_empty_ball_gives_zero_intensity(self):
        ps = gen_fibonacci().materialize(Region.box([(0.1, 0.4)]))
        spec = diffraction_estimate(autocorrelation(ps, 0.1, center=[0.25]), [0.0, 0.5])
        assert np.array_equal(spec.intensity, np.zeros(2))

    def test_symmetric_atoms_without_a_zero_atom(self):
        spec = diffraction_estimate(hand_built({(1,): 1, (-1,): 1}), [0.0, 0.5])
        assert spec.intensity.tolist() == pytest.approx([1.0, -1.0], abs=1e-15)

    @pytest.mark.parametrize(
        "counts",
        [
            {(-1,): 1, (0,): 3, (1,): 2},  # unequal counts at v and -v
            {(0,): 3, (1,): 2},  # -v missing
            {(-1,): 1, (1,): 1, (2,): 1},  # -v missing, odd table without zero
        ],
    )
    def test_asymmetric_counts_raise(self, counts):
        with pytest.raises(InvalidArgument, match="not symmetric"):
            diffraction_estimate(hand_built(counts), [0.0, 0.5])


class TestPeaks:
    def test_lattice_peaks_at_integers(self):
        ps = gen_integer_lattice(1).materialize(Region.box([(-15, 15)]))
        spec = diffraction_estimate(autocorrelation(ps, 10.0), np.linspace(0, 2, 401))
        peaks = detect_peaks(spec)
        assert [p.k[0] for p in peaks] == pytest.approx([0.0, 1.0, 2.0])
        for p in peaks:
            assert p.intensity == pytest.approx(18.05, abs=1e-9)

    def test_plateau_reports_leftmost(self):
        spec = SpectrumEstimate(
            k_grid=np.array([[0.0], [0.1], [0.2], [0.3]]),
            intensity=np.array([0.0, 1.0, 1.0, 0.0]),
        )
        peaks = detect_peaks(spec)
        assert len(peaks) == 1 and peaks[0].index == 1

    def test_threshold_filters(self, monkeypatch):
        spec = SpectrumEstimate(
            k_grid=np.linspace(0, 1, 11).reshape(-1, 1),
            intensity=np.array([5.0, 0, 2.0, 0, 0, 0, 4.9, 0, 0, 0, 1.0]),
        )
        assert len(detect_peaks(spec)) == 2
        monkeypatch.setattr(spectral, "PEAK_THRESHOLD_RATIO", 0.99)
        assert len(detect_peaks(spec)) == 1

    def test_grid_validation(self):
        bad = SpectrumEstimate(
            k_grid=np.array([[0.0], [0.1], [0.5]]),
            intensity=np.zeros(3),
        )
        with pytest.raises(InvalidArgument):
            detect_peaks(bad)
        two_d = SpectrumEstimate(k_grid=np.zeros((4, 2)), intensity=np.zeros(4))
        with pytest.raises(InvalidArgument):
            detect_peaks(two_d)
        single = SpectrumEstimate(k_grid=np.zeros((1, 1)), intensity=np.zeros(1))
        with pytest.raises(InvalidArgument):
            detect_peaks(single)
