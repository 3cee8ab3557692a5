"""Averages of box weights: density profiles, patch frequencies, oscillation.

A weight distribution assigns a number to every box. Profiles sample boxes of
side between U and 2U (a deterministic tiling plus seeded random boxes),
normalize by volume, and report the spread between the largest and smallest
densities. For uniquely ergodic constructions the spread collapses as U
grows; the hierarchical two-colorings keep it above an exact product floor.

Weights evaluate m boxes at once, given as an (m, n, 2) array laid out like
Region.intervals. Point-count weights sort the points on the first axis once;
a box bisects the slab of points whose first coordinate passes its first
interval, with the closed faces and REGION_SLACK of Region.contains. In one
dimension the slab is the count; otherwise each box tests only its slab.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import numpy as np

from .atlas import AtlasResult, compute_atlas
from .core import REGION_SLACK, ExactPointSet, Region, make_patch_key
from .errors import InsufficientWindow, InvalidArgument
from .generators import PointSetSource

PROFILE_TILING_CAP = 512  # density profiles: at most this many tiling boxes per U
PROFILE_RANDOM_BOXES = 200  # and this many seeded random boxes per U


@dataclass
class WeightDistribution:
    label: str
    evaluate: Callable[[np.ndarray], np.ndarray]  # (m, n, 2) boxes -> (m,) or (m, k) weights
    u0: float  # profiles only make sense for U above this


def volume_weight(n: int) -> WeightDistribution:
    def volume(boxes):
        return np.prod(boxes[:, :, 1] - boxes[:, :, 0], axis=1)

    return WeightDistribution(label="volume", evaluate=volume, u0=0.0)


def _slab_counter(points: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """(m, n, 2) boxes -> the number of points Region.contains finds in each,
    testing only the slab a - REGION_SLACK <= x_0 <= b + REGION_SLACK."""
    pts = np.ascontiguousarray(points[np.argsort(points[:, 0], kind="stable")].T)  # a row per axis
    x0 = pts[0]
    n = pts.shape[0]

    def count(boxes):
        if boxes.shape[1:] != (n, 2):
            raise InvalidArgument("boxes must be an (m, %d, 2) array, not %s" % (n, boxes.shape))
        lo, hi = boxes[:, :, :1] - REGION_SLACK, boxes[:, :, 1:] + REGION_SLACK
        i0 = np.searchsorted(x0, lo[:, 0, 0], "left")
        i1 = np.searchsorted(x0, hi[:, 0, 0], "right")
        if n == 1:
            return (i1 - i0).astype(float)
        slabs = (pts[:, s:e] for s, e in zip(i0.tolist(), i1.tolist()))
        inside = (((p >= a) & (p <= b)).all(axis=0) for p, a, b in zip(slabs, lo, hi))
        return np.array([np.count_nonzero(m) for m in inside], dtype=float)

    return count


def point_count_weight(ps: ExactPointSet) -> WeightDistribution:
    """Number of window points inside each box (closed faces)."""
    return WeightDistribution(label="point-count", evaluate=_slab_counter(ps.points), u0=0.0)


def white_point_count_weight(ps: ExactPointSet) -> WeightDistribution:
    """Coded two-coloring only: count points whose first address is 0 mod 3."""
    return WeightDistribution(
        label="white-point-count",
        evaluate=_slab_counter(ps.points[ps.addresses[:, 0] % 3 == 0]),
        u0=0.0,
    )


@dataclass
class ProfileRow:
    U: float
    f_plus: float
    f_minus: float
    f_zero_median: float
    delta: float
    n_boxes: int


@dataclass
class DensityProfile:
    label: str
    rows: List[ProfileRow]
    trend_ok: bool  # delta nonincreasing in U up to 10% sampling slack
    seed: int


def density_profile(
    weight: WeightDistribution,
    window: Region,
    U_values: Sequence[float],
    seed: int = 0,
) -> DensityProfile:
    """Box-density spread per scale U over a fixed window.

    Boxes have sides in [U, 2U]: a deterministic tiling at side U anchored at
    the window corner, plus seeded random boxes. The window must admit at
    least 30 tiling boxes and a 2U box at the largest U.
    """
    if window.kind != "box":
        raise InvalidArgument("density profiles need a box window")
    n = window.dimension
    lo, hi = np.array(window.intervals).T
    span = hi - lo
    Us = sorted(float(u) for u in U_values)
    if not Us:
        raise InvalidArgument("need at least one U")
    for U in Us:
        if not U > weight.u0:  # NaN fails too
            raise InvalidArgument(f"U = {U} is not above the weight's u0 = {weight.u0}")
        counts = np.floor(span / U)
        if not np.all(counts < 2.0**63) or math.prod(map(int, counts)) >= 2**63:
            raise InvalidArgument(f"U = {U} tiles the window into more boxes than int64 can index")
    U_max = Us[-1]
    tiling_at_max = int(np.prod(np.floor(span / U_max)))
    if np.any(span < 2.0 * U_max) or tiling_at_max < 30:
        raise InsufficientWindow(
            "window too small: need every side >= 2 U_max and >= 30 tiling boxes"
        )

    rng = np.random.default_rng(seed)
    rows = []
    for U in Us:
        counts = np.floor(span / U).astype(int)
        total = int(np.prod(counts))
        stride = max(1, math.ceil(total / PROFILE_TILING_CAP))
        corners = lo + np.stack(np.unravel_index(np.arange(0, total, stride), counts), axis=1) * U
        # per random box: n side draws, then n corner draws
        draws = rng.random((PROFILE_RANDOM_BOXES, 2, n))
        sides = np.minimum(U * (1.0 + draws[:, 0]), span)
        starts = lo + draws[:, 1] * (span - sides)
        a = np.concatenate([corners, starts])
        b = np.concatenate([corners + U, starts + sides])
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = weight.evaluate(np.stack([a, b], axis=2)) / np.prod(b - a, axis=1)
        if not np.all(np.isfinite(dens)):
            raise InvalidArgument(f"U = {U} gives boxes too small for finite densities")
        f_plus = float(dens.max())
        f_minus = float(dens.min())
        rows.append(
            ProfileRow(
                U=U,
                f_plus=f_plus,
                f_minus=f_minus,
                f_zero_median=float(np.median(dens)),
                delta=f_plus - f_minus,
                n_boxes=len(dens),
            )
        )
    trend = all(
        rows[i + 1].delta <= rows[i].delta * 1.10 + 1e-12 for i in range(len(rows) - 1)
    )
    return DensityProfile(label=weight.label, rows=rows, trend_ok=trend, seed=seed)


# ---------------------------------------------------------------------------
# Patch frequencies


@dataclass
class FrequencyRow:
    region: Region
    count: int
    volume: float
    frequency: float


def patch_frequency(
    ps: ExactPointSet,
    key: tuple,
    T: float,
    regions: Sequence[Region],
    atlas: Optional[AtlasResult] = None,
) -> List[FrequencyRow]:
    """Count centers of one patch class inside each region, per unit volume.

    Regions must sit inside the atlas's certified region so no center is
    missed. A key that never occurs gives honest zero counts. A ball atlas
    of ps at T that is already at hand can be passed in.
    """
    key = make_patch_key(key)
    if atlas is None:
        atlas = compute_atlas(ps, T)
    elif atlas.T != T or atlas.shape != "ball":
        raise InvalidArgument("atlas was computed for a different T or shape")
    cls = atlas.class_for(key)
    pos = None if cls is None else cls.centers.astype(float) @ ps.projection
    out = []
    for reg in regions:
        if not atlas.certified_region.contains_region(reg):
            raise InsufficientWindow(
                "frequency region must sit inside the certified atlas region"
            )
        count = 0 if pos is None else int(np.count_nonzero(reg.contains(pos)))
        vol = reg.volume()
        out.append(
            FrequencyRow(region=reg, count=count, volume=vol, frequency=count / vol)
        )
    return out


# ---------------------------------------------------------------------------
# Oscillation probe


@dataclass
class OscillationRow:
    scale: float
    count: int
    frequency: float
    exact: Optional[Fraction]


@dataclass
class OscillationReport:
    mode: str
    rows: List[OscillationRow]
    oscillation: float  # max - min frequency over the upper half of scales
    floor: Optional[float]  # two-coloring product floor, if applicable
    exceeds_floor: Optional[bool]


def oscillation_probe(
    source: PointSetSource,
    scales: Sequence[float],
    T: Optional[float] = None,
    key: Optional[tuple] = None,
) -> OscillationReport:
    """Frequency drift across centered cubes of growing half-width.

    Two-coloring sources are measured by their white-cell proportion, which
    the construction tracks exactly; for small T the patch classes do not
    separate white centers from black ones, so patch keys are the wrong probe
    there. Other sources count centers of the given patch key.
    """
    scales = sorted(float(s) for s in scales)
    if not scales:
        raise InvalidArgument("need at least one scale")
    rows = []
    if source.name == "two_color":
        st = source.extras["structure"]
        n = source.dimension
        for s in scales:
            si = int(round(s))
            if abs(si - s) > 1e-9 or si < 1:
                raise InvalidArgument("two-coloring scales must be positive integers")
            count = st.white_count_in_box([-si] * n, [si] * n)
            total = (2 * si) ** n
            rows.append(
                OscillationRow(
                    scale=float(si),
                    count=count,
                    frequency=count / total,
                    exact=Fraction(count, total),
                )
            )
        mode = "white-cells"
        prod = st.partial_product(st.levels)
        floor = float(abs(prod))
    else:
        if T is None or key is None:
            raise InvalidArgument("generic oscillation probes need T and a patch key")
        n = source.dimension
        ps = source.materialize(Region.centered_box(n, scales[-1] + 2.0 * T + 1.0))
        cubes = [Region.centered_box(n, s) for s in scales]
        for s, row in zip(scales, patch_frequency(ps, key, T, cubes)):
            # (2s)^n: the product of the cube's sides can differ in the last bit
            freq = row.count / (2.0 * s) ** n
            rows.append(OscillationRow(scale=s, count=row.count, frequency=freq, exact=None))
        mode = "patch-key"
        floor = None
    upper = rows[len(rows) // 2 :]
    freqs = [r.frequency for r in upper]
    osc = max(freqs) - min(freqs)
    return OscillationReport(
        mode=mode,
        rows=rows,
        oscillation=osc,
        floor=floor,
        exceeds_floor=None if floor is None else osc >= floor - 1e-12,
    )
