"""Autocorrelation measures on windows and cosine-sum diffraction estimates.

The window autocorrelation is a finite measure on address differences: every
ordered pair of points strictly inside the ball of radius T (self pairs
included) contributes 1, normalized by the ball volume. Intensities are
cosine sums over the atoms; atoms sit off any uniform grid, so no FFT is
attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .core import LEX_CODE_CELLS, ExactPointSet, Region, int_entry, lex_order, unit_ball_volume
from .errors import InvalidArgument, WindowTooSmall


# pair differences per autocorrelation chunk, which bounds its memory
DIFF_CHUNK_ROWS = 1 << 22
PEAK_THRESHOLD_RATIO = 0.5  # detect_peaks keeps maxima at least this share of the largest
# diffraction_estimate rejects a grid with a phase 2 pi |k . v| past this:
# such a phase rounds by more than 2^-20 rad, and its cosine is noise
PHASE_MAX = 2.0**33


@dataclass
class Autocorrelation:
    dimension: int
    T: float
    center: tuple
    point_count: int
    normalization: float  # kappa_n T^n
    counts: dict  # address difference tuple -> ordered pair count
    projection: np.ndarray

    def atoms(self) -> list:
        """Sorted (address_diff, position, count, weight) rows."""
        out = []
        for diff in sorted(self.counts):
            pos = np.asarray(diff, dtype=float) @ self.projection
            cnt = self.counts[diff]
            out.append((diff, pos, cnt, cnt / self.normalization))
        return out

    def weight_at(self, diff: tuple) -> float:
        try:
            key = tuple(int_entry(c) for c in diff)
        except TypeError as exc:
            raise InvalidArgument("an address difference is an integer vector: %s" % exc) from exc
        return self.counts.get(key, 0) / self.normalization


def autocorrelation(
    ps: ExactPointSet, T: float, center: Optional[Sequence[float]] = None
) -> Autocorrelation:
    """Pair-difference measure over the open ball of radius T.

    The ball must sit inside the window region, otherwise pairs would be
    silently missing. Membership is strict (distance < T), so pass a slightly
    perturbed T if points can sit at exactly radius T.
    """
    if T <= 0:
        raise InvalidArgument("T must be positive")
    n = ps.dimension
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    if c.shape != (n,):
        raise InvalidArgument("center has wrong dimension")
    if not ps.region.contains_region(Region.ball(c, T)):
        raise WindowTooSmall("the ball of radius T around the center must sit in the window")
    pts = ps.points
    d2 = np.sum((pts - c) ** 2, axis=1)
    sel = d2 < T * T  # strict by definition
    addr = ps.addresses[sel]
    P = addr.shape[0]
    counts = {}
    if P:
        # each point keyed in a balanced radix of 2 span + 1 per column, so a
        # difference of keys is the key of the address difference; keys are
        # Python ints where one int64 would hold too many cells
        low = [int(col.min()) for col in addr.T]
        radix = [2 * (int(col.max()) - a) + 1 for col, a in zip(addr.T, low)]
        dtype = np.int64 if math.prod(radix) <= LEX_CODE_CELLS else object
        key = np.zeros(P, dtype=dtype)
        for col, a, r in zip(addr.T, low, radix):
            key = key * r + (col.astype(dtype) - a)
        codes, cnts = [], []
        chunk = max(1, DIFF_CHUNK_ROWS // P)
        for s in range(0, P, chunk):
            code, cnt = np.unique(key[s : s + chunk, None] - key, return_counts=True)
            codes.append(code)
            cnts.append(cnt)
        code, inverse = np.unique(np.concatenate(codes), return_inverse=True)
        total = np.zeros(code.size, dtype=np.int64)
        np.add.at(total, inverse, np.concatenate(cnts))
        # the balanced digits of each code, last column first
        rows = np.empty((code.size, ps.rank), dtype=dtype)
        for j in range(ps.rank - 1, -1, -1):
            rows[:, j] = (code + radix[j] // 2) % radix[j] - radix[j] // 2
            code = (code - rows[:, j]) // radix[j]
        counts = dict(zip(map(tuple, rows.tolist()), total.tolist()))
    norm = unit_ball_volume(n) * T**n
    return Autocorrelation(
        dimension=n,
        T=T,
        center=tuple(c.tolist()),
        point_count=P,
        normalization=norm,
        counts=counts,
        projection=ps.projection,
    )


@dataclass
class SpectrumEstimate:
    k_grid: np.ndarray  # (m, n)
    intensity: np.ndarray  # (m,)

    def value_at(self, k) -> float:
        k = np.atleast_1d(np.asarray(k, dtype=float))
        hit = np.all(np.isclose(self.k_grid, k[None, :], atol=1e-12), axis=1)
        idx = np.nonzero(hit)[0]
        if idx.size == 0:
            raise InvalidArgument("k not on the evaluation grid")
        return float(self.intensity[idx[0]])


def diffraction_estimate(ac: Autocorrelation, k_grid) -> SpectrumEstimate:
    """Sum of weight(v) cos(2 pi k . v) over the autocorrelation atoms.

    The sine part cancels because count(v) = count(-v), which is checked
    exactly on the integer atoms. The sum then runs once over the zero atom
    and twice over each atom of the upper half in lex order. A grid whose rows
    are exactly np.linspace(K[0], K[-1], m) takes its cosines from a coarse
    and a fine k by angle addition, where that needs fewer of them; it agrees
    with the direct sum up to the rounding of the phases.
    """
    K = np.atleast_1d(np.asarray(k_grid, dtype=float))
    if K.ndim == 1:
        K = K[:, None]
    if K.shape[1] != ac.dimension:
        raise InvalidArgument("k grid has wrong dimension")
    if not np.all(np.isfinite(K)):
        raise InvalidArgument("k grid must be finite")
    table = np.array(list(ac.counts), dtype=np.int64).reshape(-1, ac.projection.shape[0])
    cnt = np.array(list(ac.counts.values()), dtype=np.int64)
    order = lex_order(table) if cnt.size else slice(None)
    table, cnt = table[order], cnt[order]
    # lex order reverses under v -> -v, so a symmetric measure reads the same
    # negated and reversed, counts included; an odd table centers on zero
    if not (np.array_equal(table[::-1], -table) and np.array_equal(cnt[::-1], cnt)):
        raise InvalidArgument("autocorrelation counts are not symmetric under v -> -v")
    upper = (cnt.size + 1) // 2
    zero = cnt[upper - 1] if cnt.size % 2 else 0
    pos, cnt = table[upper:] @ ac.projection, cnt[upper:]
    # |k . v| is at most the sum over axes of the largest |k| times the largest |v|
    with np.errstate(over="ignore"):
        bound = np.abs(K).max(axis=0, initial=0.0) @ np.abs(pos).max(axis=0, initial=0.0)
    phase = 2.0 * math.pi * float(bound)
    if not phase <= PHASE_MAX:
        raise InvalidArgument(
            f"k grid too large: phases 2 pi |k . v| reach {phase:.3g}, past the {PHASE_MAX:.3g} "
            "that floats resolve"
        )
    m = K.shape[0]
    B = math.isqrt(max(m - 1, 0)) + 1
    Q = -(-m // B)
    with np.errstate(over="ignore", invalid="ignore"):
        if Q + B < m and np.array_equal(K, np.linspace(K[0], K[-1], m)):
            # row qB + r of a uniform grid is row qB plus r steps, and cos(a + b)
            # = cos a cos b - sin a sin b: cosines and sines of Q + B rows, about
            # 2 sqrt(m), in place of m, and a product for the sum
            a = 2.0 * math.pi * (K[::B] @ pos.T)
            b = 2.0 * math.pi * ((K[:B] - K[0]) @ pos.T)
            total = ((np.cos(a) * cnt) @ np.cos(b).T - (np.sin(a) * cnt) @ np.sin(b).T).reshape(-1)[:m]
        else:
            total = np.cos(2.0 * math.pi * (K @ pos.T)) @ cnt
        intensity = (zero + 2.0 * total) / ac.normalization
    # a phase 2 pi k . v past the float range has no cosine, and leaves NaN
    if not np.all(np.isfinite(intensity)):
        raise InvalidArgument("k grid too large: its phases 2 pi k . v or intensities are not finite")
    return SpectrumEstimate(k_grid=K, intensity=intensity)


@dataclass
class Peak:
    k: np.ndarray
    intensity: float
    index: int


def detect_peaks(spec: SpectrumEstimate) -> List[Peak]:
    """Local maxima at least PEAK_THRESHOLD_RATIO of the global max.

    Needs a uniform one-dimensional k grid. Plateaus report their leftmost
    sample.
    """
    K = spec.k_grid
    if K.shape[1] != 1:
        raise InvalidArgument("peak detection expects a 1D k grid")
    ks = K[:, 0]
    if ks.size < 2:
        raise InvalidArgument("need at least two grid points")
    steps = np.diff(ks)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, abs(steps[0])):
        raise InvalidArgument("k grid must have uniform pitch")
    I = spec.intensity
    cutoff = PEAK_THRESHOLD_RATIO * float(I.max())
    peaks = []
    for i in range(ks.size):
        left_rises = i == 0 or I[i] > I[i - 1]
        right_falls = i == ks.size - 1 or I[i] >= I[i + 1]
        if left_rises and right_falls and I[i] >= cutoff:
            peaks.append(Peak(k=K[i].copy(), intensity=float(I[i]), index=i))
    return peaks
