"""Averages of box weights: density profiles, patch frequencies, oscillation.

A weight distribution assigns a number to every box. Profiles sample boxes of
side between U and 2U (a deterministic tiling plus seeded random boxes),
normalize by volume, and report the spread between the largest and smallest
densities. For uniquely ergodic constructions the spread collapses as U
grows; the hierarchical two-colorings keep it above an exact product floor.

Point-count weights sort the points on the first axis once. A box query
bisects the slab of points whose first coordinate passes the box's first
interval, with the same closed faces and 1e-9 slack as Region.contains, and
tests only that slab against the whole box; in one dimension the slab is the
count. Ball queries test every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import numpy as np

from .atlas import AtlasResult, compute_atlas
from .core import ExactPointSet, Region, make_patch_key
from .errors import InsufficientWindow, InvalidArgument
from .generators import PointSetSource

PROFILE_TILING_CAP = 512  # density profiles: at most this many tiling boxes per U
PROFILE_RANDOM_BOXES = 200  # and this many seeded random boxes per U


@dataclass
class WeightDistribution:
    label: str
    evaluate: Callable[[Region], float]  # box -> weight
    u0: float  # profiles only make sense for U above this
    constants: dict  # declared bounds (documentation, not enforced)


def volume_weight(n: int) -> WeightDistribution:
    return WeightDistribution(
        label="volume",
        evaluate=lambda box: box.volume(),
        u0=0.0,
        constants={"translation_bound": 0.0, "additive": True},
    )


def _slab_counter(points: np.ndarray) -> Callable[[Region], float]:
    """Region -> float(np.count_nonzero(region.contains(points))), with a
    box tested only on its slab a - 1e-9 <= x_0 <= b + 1e-9."""
    pts = points[np.argsort(points[:, 0], kind="stable")]
    x0 = pts[:, 0]

    def count(region: Region) -> float:
        if pts.shape[0] == 0:
            return 0.0
        if region.kind != "box":
            return float(np.count_nonzero(region.contains(pts)))
        a, b = region.intervals[0]
        i0 = np.searchsorted(x0, a - 1e-9, "left")
        i1 = np.searchsorted(x0, b + 1e-9, "right")
        if region.dimension == pts.shape[1] == 1:
            return float(i1 - i0)
        return float(np.count_nonzero(region.contains(pts[i0:i1])))

    return count


def point_count_weight(ps: ExactPointSet) -> WeightDistribution:
    """Number of window points inside the box (closed faces).

    Counts bisect a slab of the points sorted on the first axis (see the
    module docstring), so a box costs a bisection plus a test of the points
    in its slab rather than of the whole window.
    """
    return WeightDistribution(
        label="point-count",
        evaluate=_slab_counter(ps.points),
        u0=0.0,
        constants={"translation_bound": "O(surface)", "additive": True},
    )


def white_point_count_weight(ps: ExactPointSet) -> WeightDistribution:
    """Coded two-coloring only: count points whose first address is 0 mod 3."""
    return WeightDistribution(
        label="white-point-count",
        evaluate=_slab_counter(ps.points[ps.addresses[:, 0] % 3 == 0]),
        u0=0.0,
        constants={"translation_bound": "O(surface)", "additive": True},
    )


def component_weight(wd: WeightDistribution, index: int, label: Optional[str] = None) -> WeightDistribution:
    """Scalar view of a vector-valued weight."""
    return WeightDistribution(
        label=label or f"{wd.label}[{index}]",
        evaluate=lambda box: float(np.asarray(wd.evaluate(box)).ravel()[index]),
        u0=wd.u0,
        constants=wd.constants,
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
    lo = np.array([a for a, _ in window.intervals])
    hi = np.array([b for _, b in window.intervals])
    span = hi - lo
    Us = sorted(float(u) for u in U_values)
    if not Us:
        raise InvalidArgument("need at least one U")
    for U in Us:
        if U <= weight.u0:
            raise InvalidArgument(f"U = {U} is not above the weight's u0 = {weight.u0}")
    U_max = Us[-1]
    tiling_at_max = int(np.prod(np.floor(span / U_max)))
    if np.any(span < 2.0 * U_max) or tiling_at_max < 30:
        raise InsufficientWindow(
            "window too small: need every side >= 2 U_max and >= 30 tiling boxes"
        )

    rng = np.random.default_rng(seed)
    rows = []
    for U in Us:
        boxes = []
        counts = np.floor(span / U).astype(int)
        total = int(np.prod(counts))
        stride = max(1, math.ceil(total / PROFILE_TILING_CAP))
        flat = np.arange(0, total, stride)
        for f in flat:
            idx = []
            rem = int(f)
            for c in counts[::-1]:
                idx.append(rem % c)
                rem //= c
            idx = np.array(idx[::-1], dtype=float)
            a = lo + idx * U
            boxes.append(Region.box(list(zip(a, a + U))))
        for _ in range(PROFILE_RANDOM_BOXES):
            sides = U * (1.0 + rng.random(n))
            sides = np.minimum(sides, span)
            a = lo + rng.random(n) * (span - sides)
            boxes.append(Region.box(list(zip(a, a + sides))))
        dens = np.array([float(weight.evaluate(b)) / b.volume() for b in boxes])
        f_plus = float(dens.max())
        f_minus = float(dens.min())
        rows.append(
            ProfileRow(
                U=U,
                f_plus=f_plus,
                f_minus=f_minus,
                f_zero_median=float(np.median(dens)),
                delta=f_plus - f_minus,
                n_boxes=len(boxes),
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
    if atlas is None:
        atlas = compute_atlas(ps, T)
    elif atlas.T != T or atlas.shape != "ball":
        raise InvalidArgument("atlas was computed for a different T or shape")
    key = make_patch_key(key)
    cls = atlas.class_for(key)
    out = []
    for reg in regions:
        if not atlas.certified_region.contains_region(reg):
            raise InsufficientWindow(
                "frequency region must sit inside the certified atlas region"
            )
        if cls is None or cls.centers.shape[0] == 0:
            count = 0
        else:
            pos = cls.centers.astype(float) @ ps.projection
            count = int(np.count_nonzero(reg.contains(pos)))
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
        key = make_patch_key(key)
        n = source.dimension
        big = scales[-1] + 2.0 * T + 1.0
        ps = source.materialize(Region.centered_box(n, big))
        atlas = compute_atlas(ps, T)
        cls = atlas.class_for(key)
        pos = (
            cls.centers.astype(float) @ ps.projection
            if cls is not None
            else np.zeros((0, n))
        )
        for s in scales:
            cube = Region.centered_box(n, s)
            count = int(np.count_nonzero(cube.contains(pos))) if pos.size else 0
            vol = (2.0 * s) ** n
            rows.append(
                OscillationRow(scale=s, count=count, frequency=count / vol, exact=None)
            )
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
