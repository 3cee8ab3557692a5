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

from .core import ExactPointSet, Region, lex_order, narrow_rows, row_scalars, unit_ball_volume
from .errors import InvalidArgument, WindowTooSmall


# difference rows per autocorrelation chunk, which bounds its memory
DIFF_CHUNK_ROWS = 1 << 22
PEAK_THRESHOLD_RATIO = 0.5  # detect_peaks keeps maxima at least this share of the largest


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
        return self.counts.get(tuple(int(c) for c in diff), 0) / self.normalization


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
    if P:
        # differences of narrow rows stay in the signed type holding +-span,
        # so short rows pack into one 8-byte word
        addr = narrow_rows(addr, signed=True)
    rows, cnts = [np.zeros((0, ps.rank), dtype=addr.dtype)], [np.zeros(0, dtype=np.int64)]
    chunk = max(1, DIFF_CHUNK_ROWS // max(P, 1))
    for s in range(0, P, chunk):
        block = addr[s : s + chunk]
        diffs = (block[:, None, :] - addr[None, :, :]).reshape(-1, ps.rank)
        _, first, cnt = np.unique(row_scalars(diffs), return_index=True, return_counts=True)
        rows.append(diffs[first])
        cnts.append(cnt)
    rows = np.concatenate(rows)
    _, first, inverse = np.unique(row_scalars(rows), return_index=True, return_inverse=True)
    total = np.zeros(first.size, dtype=np.int64)
    np.add.at(total, inverse, np.concatenate(cnts))
    counts = dict(zip(map(tuple, rows[first].tolist()), total.tolist()))
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
    and twice over each atom of the upper half in lex order.
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
    phase = 2.0 * math.pi * (K @ (table[upper:] @ ac.projection).T)
    intensity = (zero + 2.0 * (np.cos(phase) @ cnt[upper:])) / ac.normalization
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
