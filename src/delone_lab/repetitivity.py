"""Repetitivity: how far must one travel to find every visible patch again.

M(T) is the largest covering radius over the center sets of the T-patch
classes. On a finite window it is a bracket: exact in dimension one, else a
certified branch and bound over one cKDTree that lifts each class to its own
height, always on an evaluation region eroded so far that unseen centers
outside the window cannot hide closer recurrences than the patch radius.
Explicit words rank their factors, every length in one pass, with factor_ranks.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .atlas import AtlasResult, PatchClass, atlas_ladder, compute_atlas, estimate_R
from .core import ExactPointSet, Region, packing_radius, unique_rows
from .errors import InsufficientData, InvalidArgument, WindowTooSmall
from .generators import PointSetSource

# Cap on distance evaluations per center set, and on the cells live at once in
# covering_radii. Arrays cost under 100 bytes a live cell in 3-D (about 75 in
# 2-D), so a capped call stays under about 100 MB: one center at the middle
# of a radius-8 ball in 3-D, at resolution 1e-6, peaks at 63 MB (tracemalloc).
COVERING_EVAL_BUDGET = 1_000_000
THREADED_QUERY_MIN = 4096  # smaller cKDTree batches run faster on one thread


def query_workers() -> int:
    """cKDTree workers from DELONE_LAB_THREADS: -1 (all cores, the default)
    or a positive integer; anything else is an InvalidArgument."""
    threads = (os.environ.get("DELONE_LAB_THREADS") or "-1").strip()
    if threads != "-1" and not (threads.isdecimal() and int(threads) > 0):
        raise InvalidArgument(
            "DELONE_LAB_THREADS must be -1 or a positive integer, not %r" % threads
        )
    return int(threads)


def _covering_1d(centers: np.ndarray, region: Region) -> tuple:
    """Exact covering radius on an interval: midpoints and endpoints decide the sup."""
    lo, hi = (
        region.intervals[0]
        if region.kind == "box"
        else (region.center[0] - region.radius, region.center[0] + region.radius)
    )
    xs = np.sort(centers[:, 0])
    cand = []
    for t in (lo, hi):
        j = np.searchsorted(xs, t)
        best = math.inf
        if j < xs.size:
            best = min(best, xs[j] - t)
        if j > 0:
            best = min(best, t - xs[j - 1])
        cand.append(abs(best))
    mids = (xs[:-1] + xs[1:]) / 2.0
    keep = (mids >= lo) & (mids <= hi)
    if np.any(keep):
        cand.append(float(np.max((xs[1:] - xs[:-1])[keep] / 2.0)))
    val = float(max(cand))
    return val, val


def covering_radius(
    centers: np.ndarray, region: Region, resolution: Optional[float] = None
) -> tuple:
    """Bracket (lower, upper) for sup over the region of dist(t, centers):
    covering_radii for one center set."""
    return covering_radii([centers], region, resolution)[0]


def covering_radii(
    center_sets: Sequence[np.ndarray], region: Region, resolution: Optional[float] = None
) -> List[tuple]:
    """One bracket (lower, upper) per center set for sup over the region of
    dist(t, centers); (inf, inf) for an empty set. Centers must be finite.

    Dimension one is exact (midpoints and endpoints decide the sup). Higher
    dimensions branch and bound over origin-anchored dyadic cubes meeting the
    region, to brackets at most resolution/2 wide with both ends rounded
    outward. The cells of all sets are refined together, one query a level to
    one cKDTree. Each set keeps its own first side and its own cap of
    COVERING_EVAL_BUDGET distance evaluations, so its bracket is, bit for
    bit, the one it would get alone. Past that cap, or once cells are as fine
    as floats resolve at the region's coordinates, a bracket comes back wider,
    still certified. At most COVERING_EVAL_BUDGET cells are live at once: a
    set pushing past that leaves the group and starts over in a later one.
    """
    sets = [np.atleast_2d(np.asarray(c, dtype=float)) for c in center_sets]
    out = [(math.inf, math.inf)] * len(sets)
    todo = [k for k, c in enumerate(sets) if c.shape[0]]
    n = region.dimension
    if any(sets[k].shape[1] != n or not np.isfinite(sets[k]).all() for k in todo):
        raise InvalidArgument("center sets must be finite, in the region's dimension")
    if resolution is not None and not resolution > 0:  # NaN fails too
        raise InvalidArgument("resolution must be positive")
    if n == 1 or not todo:
        for k in todo:
            out[k] = _covering_1d(sets[k], region)
        return out

    # a box is its bounding box met with a ball of infinite radius
    ball = region.kind == "ball"
    rad = region.radius if ball else math.inf
    c0 = np.asarray(region.center) if ball else np.mean(region.intervals, axis=1)
    lo_box, hi_box = (c0 - rad, c0 + rad) if ball else np.array(region.intervals).T
    lens = hi_box - lo_box
    if resolution is None:
        resolution = max(float(lens.max()) / 100.0, 1e-9)
    # relative slack that rounds every computed distance and ball test outward
    slack = 8.0 * n * math.ulp(1.0)

    def meets(p, h, grow):  # which cells of half-side h centered at p meet the region
        near = np.all((p + h >= lo_box) & (p - h <= hi_box), axis=1)
        gap = p - c0  # max(|p - c0| - h, 0), squared, in place
        np.abs(gap, out=gap)
        gap -= h
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        return near & (np.sum(gap, axis=1) <= rad * rad * grow)

    def grid(side):  # the cells of one side covering the bounding box, as counts
        return np.ceil(hi_box / side) - np.floor(lo_box / side)

    def first_cells(side):  # the centers of those cells, in C order
        index = np.indices(grid(side).astype(np.int64)).reshape(n, -1).T
        return (index + np.floor(lo_box / side) + 0.5) * side

    from scipy.spatial import cKDTree

    # set k sits at height k * lift on the tree's extra axis: lift, a power of two past 4n
    # times every coordinate, puts other sets beyond a point's own and adds 0 within one
    workers = query_workers()
    reach = float(np.abs([lo_box, hi_box]).max())
    lift = math.ldexp(1.0, math.frexp(4.0 * n * max([reach] + [np.abs(sets[k]).max() for k in todo]))[1])
    heights = np.repeat(todo, [sets[k].shape[0] for k in todo]) * lift
    tree = cKDTree(np.column_stack([np.concatenate([sets[k] for k in todo]), heights]), balanced_tree=False)

    def nearest(points, owners):  # distance from each point to the nearest center of its set
        points = np.column_stack([points, owners * lift])
        return tree.query(points, workers=workers if points.shape[0] >= THREADED_QUERY_MIN else 1)[0]

    start_best = np.zeros(len(sets))  # largest distance seen at a point of the region, per set
    start_best[todo] = nearest(np.tile(c0, (len(todo), 1)), np.array(todo))
    if rad == 0:  # the region is a single point
        for k in todo:
            out[k] = (float(start_best[k] * (1.0 - slack)), float(start_best[k] * (1.0 + slack)))
        return out

    # first level per set: a power of two at most its mean center spacing and the box
    # side; cells never get finer than `finest`, so every cell center is an exact float
    finest = 8.0 * math.ulp(1.0) * reach
    first_side, first_count = np.zeros(len(sets)), np.zeros(len(sets), dtype=np.int64)
    for k in todo:
        spacing = (float(np.prod(lens)) / sets[k].shape[0]) ** (1.0 / n)
        side = 2.0 ** math.floor(math.log2(min(spacing, float(lens.max()))))
        while side <= finest or np.prod(grid(side)) > COVERING_EVAL_BUDGET:
            side *= 2.0
        first_side[k], first_count[k] = side, np.prod(grid(side))
    corners = np.indices((2,) * n).reshape(n, -1).T - 0.5
    best, upper = start_best.copy(), np.full(len(sets), -math.inf)
    side, evaluations = first_side.copy(), np.ones(len(sets), dtype=np.int64)
    cells, owner = np.zeros((0, n)), np.zeros(0, np.min_scalar_type(len(sets)))  # owner: each cell's set
    waiting = todo
    while waiting or cells.shape[0]:
        if not cells.shape[0]:
            # a new group: sets in order while their first cells fit, at least one
            fit = max(1, np.count_nonzero(np.cumsum(first_count[waiting]) <= COVERING_EVAL_BUDGET))
            group, waiting = waiting[:fit], waiting[fit:]
            best[group], upper[group] = start_best[group], -math.inf
            side[group], evaluations[group] = first_side[group], 1
            cells = np.concatenate([first_cells(side[k]) for k in group])
            owner = np.repeat(np.array(group, dtype=owner.dtype), first_count[group])

        keep = meets(cells, (side / 2.0)[owner][:, None], 1.0 + slack)
        cells, owner = cells[keep], owner[keep]
        evaluations += np.bincount(owner, minlength=len(sets))
        d = nearest(cells, owner)
        inside = meets(cells, 0.0, 1.0 - slack)
        np.maximum.at(best, owner[inside], d[inside])
        bound = (d + (math.sqrt(n) * side / 2.0)[owner]) * (1.0 + slack)
        done = bound - (best * (1.0 - slack))[owner] <= resolution / 2.0
        np.maximum.at(upper, owner[done], bound[done])
        cells, owner, bound = cells[~done], owner[~done], bound[~done]
        # a set stops at its cap or at the float grid, its open cells feeding the upper end
        left = np.bincount(owner, minlength=len(sets))
        stop = (evaluations + left * corners.shape[0] > COVERING_EVAL_BUDGET) | (side <= finest)
        halt = stop[owner]
        np.maximum.at(upper, owner[halt], bound[halt])
        # the sets that go on, in order, while their children fit; later ones start over
        grow = np.where(stop, 0, left) * corners.shape[0]
        drop = (grow > 0) & (np.cumsum(grow) > COVERING_EVAL_BUDGET)
        waiting = np.flatnonzero(drop).tolist() + waiting
        going = ~(halt | drop[owner])
        cells, owner = cells[going], owner[going]
        side /= 2.0
        kids = corners * side[owner][:, None, None]
        kids += cells[:, None, :]
        cells, owner = kids.reshape(-1, n), np.repeat(owner, corners.shape[0])
    for k in todo:
        out[k] = (float(best[k] * (1.0 - slack)), float(upper[k]))
    return out


@dataclass
class ClassCovering:
    patch_class: PatchClass
    lower: float
    upper: float


@dataclass
class RepetitivityResult:
    T: float
    M_lower: float
    M_upper: float
    certified_floor: float  # min(lower, T) per class, immune to unseen centers
    resolution: Optional[float]  # covering-radius tolerance used; None in dimension one
    n_lower: int
    per_class: List[ClassCovering]
    evaluation_region: Region
    notes: list

    def prime(self) -> tuple:
        """The shifted variant: add T to both bracket ends, exactly."""
        return self.M_lower + self.T, self.M_upper + self.T


def repetitivity_function(
    ps: ExactPointSet,
    T: float,
    resolution: Optional[float] = None,
    atlas: Optional[AtlasResult] = None,
) -> RepetitivityResult:
    """Bracket M(T) on the window.

    Patch centers are certified on region minus T; distances are evaluated on
    region minus 2T, so any center whose patch we could not classify is at
    least T away from every evaluation point. The reported M_lower follows
    the interior covering radius and can over-report the infinite-set value
    when a class only recurs beyond the window; certified_floor clamps each
    class at T and is a true lower bound regardless.
    """
    if resolution is not None and not resolution > 0:
        raise InvalidArgument("resolution must be positive")
    if atlas is None:
        atlas = compute_atlas(ps, T)
    elif atlas.T != T:
        raise InvalidArgument("atlas was computed for a different T")
    eval_region = ps.region.erode(2.0 * T)
    if not atlas.classes:
        raise WindowTooSmall("no certified patch centers in the window")
    if resolution is None and ps.dimension > 1:
        resolution = _resolution(packing_radius(ps), T)
    brackets = covering_radii(
        [cls.centers.astype(float) @ ps.projection for cls in atlas.classes],
        eval_region,
        resolution=resolution,
    )
    per = [ClassCovering(cls, lo, hi) for cls, (lo, hi) in zip(atlas.classes, brackets)]
    M_lower = max(c.lower for c in per)
    M_upper = max(c.upper for c in per)
    floor_val = max(min(c.lower, T) for c in per)
    tol = resolution / 2.0 if resolution else math.inf
    notes = []
    wide = [c.upper - c.lower for c in per if c.upper - c.lower > tol]
    if wide:
        notes.append(
            "%d classes stopped short of the covering-radius tolerance (evaluation "
            "cap or float precision); widest bracket %.6g against tolerance %.6g"
            % (len(wide), max(wide), tol)
        )
    if M_lower > T:
        notes.append(
            "some class covers the evaluation region only beyond distance T; "
            "window effects may over-report M_lower"
        )
    return RepetitivityResult(
        T=T,
        M_lower=M_lower,
        M_upper=M_upper,
        certified_floor=floor_val,
        resolution=resolution if ps.dimension > 1 else None,
        n_lower=atlas.n_lower,
        per_class=per,
        evaluation_region=eval_region,
        notes=notes,
    )


def repetitivity_ladder(
    ps: ExactPointSet, T_values: Sequence[float], resolution: Optional[float] = None
) -> List[RepetitivityResult]:
    """repetitivity_function for each T, in order, over one atlas ladder
    and at most one packing radius.

    A resolution that is not positive is rejected first. Otherwise errors are
    those of a loop over T_values: the ladder stops short of the first T that
    is not positive or whose evaluation region empties, and that T builds its
    own atlas and raises its own error.
    """
    if resolution is not None and not resolution > 0:  # NaN fails too
        raise InvalidArgument("resolution must be positive")
    k = 0
    for T in T_values:
        if not (T > 0):
            break
        try:
            ps.region.erode(2.0 * T)
        except WindowTooSmall:
            break
        k += 1
    atlases = atlas_ladder(ps, T_values[:k]) + [None] * (len(T_values) - k)
    out, r = [], None  # the packing radius, taken at the first rung that needs it
    for T, atlas in zip(T_values, atlases):
        auto = resolution is None and ps.dimension > 1 and atlas is not None and atlas.classes
        r = packing_radius(ps) if auto and r is None else r
        out.append(repetitivity_function(ps, T, _resolution(r, T) if auto else resolution, atlas))
    return out


def _resolution(r: float, T: float) -> float:
    """The covering-radius tolerance when none is given: packing radius r / 4, at most T / 100."""
    return min(r / 4.0, T / 100.0)


# ---------------------------------------------------------------------------
# Growth classification across a sweep of T values


@dataclass
class GrowthReport:
    rows: list  # (T, n_lower, M_lower, M_upper)
    slope_vs_T: float
    slope_vs_N: float
    ratio_T_bound: float  # max/min of M_upper / T across the sweep
    ratio_N_bound: float
    classification: str
    caveat: str


def growth_classification(source: PointSetSource, T_values: Sequence[float]) -> GrowthReport:
    """Classify M(T) growth over a sweep, from finite windows only.

    Needs at least 4 certified T values spanning a factor of 8. Slopes are
    log-log least squares on M_upper; ratio bounds catch drifts a slope can
    hide. The verdict is empirical, windows cannot prove asymptotics.
    """
    Ts = sorted(float(t) for t in T_values)
    if len(Ts) < 4 or Ts[0] <= 0 or Ts[-1] / Ts[0] < 8.0 - 1e-9:
        raise InsufficientData(
            "need >= 4 positive T values spanning at least a factor of 8"
        )
    R = estimate_R(source)
    # the T values that share a window share one atlas ladder
    windows: Dict[float, tuple] = {}
    for T in Ts:
        radius = max(50.0 * R, 6.0 * T)
        windows.setdefault(round(radius, 9), (radius, []))[1].append(T)
    results = []
    for radius, group in windows.values():
        ps = source.materialize(Region.centered_box(source.dimension, radius))
        results += repetitivity_ladder(ps, group)

    rows = [(r.T, r.n_lower, r.M_lower, r.M_upper) for r in results]
    logT = np.log([r.T for r in results])
    logM = np.log([max(r.M_upper, 1e-12) for r in results])
    n = source.dimension
    logN = np.log([max(r.n_lower, 1) for r in results]) / n
    slope_T = float(np.polyfit(logT, logM, 1)[0])
    if np.ptp(logN) < 1e-12:
        slope_N = 0.0
    else:
        slope_N = float(np.polyfit(logN, logM, 1)[0])
    ratios_T = [r.M_upper / r.T for r in results]
    ratios_N = [r.M_upper / max(r.n_lower, 1) ** (1.0 / n) for r in results]
    ratio_T_bound = max(ratios_T) / min(ratios_T)
    ratio_N_bound = max(ratios_N) / min(ratios_N)

    Ms = [r.M_upper for r in results]
    if max(Ms) <= min(Ms) * 1.05 + 1e-12:
        verdict = "ideal-crystal-like"
    elif slope_T <= 1.15 and ratio_T_bound <= 4.0:
        verdict = "empirically-linear"
    elif slope_N <= 1.15 and ratio_N_bound <= 4.0:
        verdict = "empirically-dense"
    else:
        verdict = "unclassified-growth"
    return GrowthReport(
        rows=rows,
        slope_vs_T=slope_T,
        slope_vs_N=slope_N,
        ratio_T_bound=ratio_T_bound,
        ratio_N_bound=ratio_N_bound,
        classification=verdict,
        caveat="finite-window sweep; asymptotic growth is not certified",
    )


# ---------------------------------------------------------------------------
# Ideal-crystal probes


@dataclass
class GapProbeRow:
    T: float
    n_lower: int
    M_upper: float
    crystal_by_small_M: bool  # M_upper < T/3
    crystal_by_small_N: bool  # n_lower < floor(T / R)
    lower_bound_ok: Optional[bool]  # M_upper >= r (N^(1/n) - 1), if r given


@dataclass
class GapProbeReport:
    rows: List[GapProbeRow]
    verdict: str


def crystal_gap_probe(
    results: Sequence[RepetitivityResult],
    R: float,
    r: Optional[float] = None,
    dimension: int = 1,
) -> GapProbeReport:
    """Check the two ideal-crystal triggers on each certified T.

    Either a repetitivity bracket entirely below T/3 or a patch count below
    floor(T/R) forces periodicity in every direction; aperiodic constructions
    must never trip them on certified windows.
    """
    rows = []
    for res in results:
        by_M = res.M_upper < res.T / 3.0
        by_N = res.n_lower < math.floor(res.T / R)
        lb = None
        if r is not None:
            lb = res.M_upper >= r * (res.n_lower ** (1.0 / dimension) - 1.0) - 1e-9
        rows.append(
            GapProbeRow(
                T=res.T,
                n_lower=res.n_lower,
                M_upper=res.M_upper,
                crystal_by_small_M=by_M,
                crystal_by_small_N=by_N,
                lower_bound_ok=lb,
            )
        )
    fired = any(r.crystal_by_small_M or r.crystal_by_small_N for r in rows)
    return GapProbeReport(
        rows=rows, verdict="ideal-crystal signature" if fired else "no crystal signature"
    )


# ---------------------------------------------------------------------------
# Symbolic recurrence on explicit words


def factor_ranks(word: Sequence, lengths: Iterable[int]) -> Iterator[tuple]:
    """Yield (l, ranks) for the lengths asked for, ascending: ranks[s] is a
    dense id of the l-factor at start s, equal exactly when the factors are.
    Symbols rank by first occurrence; length 2p ranks the pairs (r_p[s],
    r_p[s + p]), any other l the pairs (r_p[s], r_p[s + l - p]), p the largest
    power of two <= l, by one unique_rows each. InvalidArgument, on
    iteration, for an unhashable symbol or a length outside 1..len(word)."""
    w = list(word)
    wanted = sorted(set(lengths))
    if not wanted or wanted[0] < 1 or wanted[-1] > len(w):
        raise InvalidArgument("factor lengths must lie in 1..%d, not %s" % (len(w), wanted))
    try:
        codes = {c: i for i, c in enumerate(dict.fromkeys(w))}
    except TypeError as exc:
        raise InvalidArgument("word symbols must be hashable: %s" % exc) from exc
    ranks = np.fromiter(map(codes.__getitem__, w), dtype=np.int64, count=len(w))
    p = 1
    for length in wanted:
        while 2 * p <= length:
            ranks = unique_rows([ranks[:-p], ranks[p:]])[0]
            p *= 2
        shift = length - p
        yield length, (unique_rows([ranks[:-shift], ranks[shift:]])[0] if shift else ranks)


def max_start_gap(ranks: np.ndarray):
    """Largest gap between consecutive starts of equal ranks, or math.inf
    when a rank occurs once and so gives no gap to measure."""
    if np.any(np.bincount(ranks) == 1):
        return math.inf
    order = np.argsort(ranks, kind="stable")  # starts ascend within each rank
    return int(np.diff(order)[ranks[order[1:]] == ranks[order[:-1]]].max())


def symbolic_recurrence_oracle(word: Sequence, length: int):
    """Largest gap between consecutive starts of any length-l factor.

    Scans the finite word directly, no structure theory involved. A factor
    seen only once gives no gap to measure, so the result is math.inf as an
    honest unbounded-within-window sentinel.
    """
    ((_, ranks),) = factor_ranks(word, [length])
    return max_start_gap(ranks)
