"""Core geometry types: regions, point sets with exact addresses, patch keys.

Positions are split into an exact integer part (addresses) and a float
projection matrix, so set membership and translation tests can be done on
integers while distances use ordinary float geometry.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InsufficientData, InvalidArgument, WindowTooSmall

# Squared-distance slack for closed-ball membership. Kept on the squared
# quantity so integer geometries stay exact.
BALL_TOL = 1e-9
# Coordinate slack for closed boxes and region containment: it absorbs float
# roundoff in generated positions.
REGION_SLACK = 1e-9
# delone_constants brackets the covering radius to this share of the packing
# radius r (at least 1e-6).
COVERING_RESOLUTION_SHARE = 0.25
# box_code gives integer rows one int64 each while their box holds at most
# this many cells.
LEX_CODE_CELLS = 1 << 62


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n.

    The two-step recurrence keeps low dimensions exact (2, pi, 4pi/3, ...),
    which the gamma-function form does not.
    """
    if n < 0:
        raise InvalidArgument("dimension must be >= 0")
    vol = 1.0 if n % 2 == 0 else 2.0
    for m in range(n % 2 + 2, n + 1, 2):
        vol *= 2.0 * math.pi / m
    return vol


def _sum_of_squares(columns) -> np.ndarray:
    """Sum of c * c over float columns, added in order.

    np.sum(a * a, axis=1) adds a row of fewer than 8 entries in this same
    order (from 8 on, numpy sums pairwise), so for up to 7 columns the result
    is bitwise the same, without numpy's slow reduction across a short axis.
    """
    squares = (c * c for c in columns)
    total = next(squares)
    for sq in squares:
        total += sq
    return total


# ---------------------------------------------------------------------------
# Regions


@dataclass(frozen=True)
class Region:
    """A box (product of closed intervals) or a closed ball.

    Boxes store per-axis intervals [a_i, b_i] with a_i < b_i. Balls store a
    center and a nonnegative radius. Use Region.box / Region.ball.
    """

    kind: str
    intervals: Optional[tuple] = None  # box: ((a_1,b_1),...,(a_n,b_n))
    center: Optional[tuple] = None
    radius: Optional[float] = None

    @staticmethod
    def box(intervals: Iterable[Sequence[float]]) -> "Region":
        ivs = tuple((float(a), float(b)) for a, b in intervals)
        if not ivs:
            raise InvalidArgument("box needs at least one interval")
        for a, b in ivs:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise InvalidArgument(f"box bounds must be finite, got [{a}, {b}]")
            if not (a < b):
                raise InvalidArgument(f"degenerate interval [{a}, {b}]")
        return Region(kind="box", intervals=ivs)

    @staticmethod
    def ball(center: Sequence[float], radius: float) -> "Region":
        c = tuple(float(x) for x in center)
        if not c:
            raise InvalidArgument("ball needs a center of dimension >= 1")
        radius = float(radius)
        if not all(math.isfinite(x) for x in (*c, radius)):
            raise InvalidArgument(f"ball center {list(c)} and radius {radius} must be finite")
        if radius < 0:
            raise InvalidArgument("ball radius must be >= 0")
        return Region(kind="ball", center=c, radius=radius)

    @staticmethod
    def centered_box(n: int, halfwidth: float) -> "Region":
        return Region.box([(-halfwidth, halfwidth)] * int(n))

    @property
    def dimension(self) -> int:
        if self.kind == "box":
            return len(self.intervals)
        return len(self.center)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the closed region, boxes widened by
        REGION_SLACK and balls by BALL_TOL on the squared distance.

        Integer rows are read as their float copy would be, one column at a
        time, so the copy is never made. Column by column also spares the
        slow reduction across a short axis."""
        pts = np.atleast_2d(np.asarray(points))
        if pts.dtype.kind not in "iu":
            pts = pts.astype(float, copy=False)
        if pts.shape[1] != self.dimension:
            raise InvalidArgument("dimension mismatch in Region.contains")
        if self.kind == "box":
            inside = np.ones(pts.shape[0], dtype=bool)
            for col, (a, b) in zip(pts.T, self.intervals):
                inside &= (col >= a - REGION_SLACK) & (col <= b + REGION_SLACK)
            return inside
        d2 = _sum_of_squares(col - c for col, c in zip(pts.T, self.center))
        return d2 <= self.radius**2 + BALL_TOL

    def erode(self, margin: float) -> "Region":
        """Shrink the region by margin on every side. Errors if it empties."""
        if margin < 0:
            raise InvalidArgument("erosion margin must be >= 0")
        if self.kind == "box":
            ivs = [(a + margin, b - margin) for a, b in self.intervals]
            if any(a >= b for a, b in ivs):
                raise WindowTooSmall(
                    f"box cannot be eroded by {margin}: an interval empties"
                )
            return Region.box(ivs)
        rad = self.radius - margin
        if rad <= 0:
            raise WindowTooSmall(f"ball of radius {self.radius} cannot be eroded by {margin}")
        return Region.ball(self.center, rad)

    def extent(self) -> tuple:
        """Per axis, a closed interval (lo, hi) holding every point that
        contains accepts: boxes widened by REGION_SLACK, balls reaching
        sqrt(radius^2 + BALL_TOL) from the center, so that a ball of
        radius 0 still has intervals of positive length. The ball's reach
        grows by a relative 1e-12, past the roundoff of the squared
        distance in contains, which accepts points some ulps beyond it."""
        if self.kind == "box":
            return tuple((a - REGION_SLACK, b + REGION_SLACK) for a, b in self.intervals)
        reach = math.sqrt(self.radius**2 + BALL_TOL) * (1 + 1e-12)
        return tuple((c - reach, c + reach) for c in self.center)

    def volume(self) -> float:
        if self.kind == "box":
            return float(np.prod([b - a for a, b in self.intervals]))
        return unit_ball_volume(self.dimension) * self.radius ** self.dimension

    def contains_region(self, other: "Region") -> bool:
        """True if the other region sits inside this one (closed containment)."""
        if other.kind == "box":
            corners = np.array(np.meshgrid(*[iv for iv in other.intervals])).T.reshape(
                -1, other.dimension
            )
            return bool(np.all(self.contains(corners)))
        # ball inside box: check center +- radius per axis; ball in ball: radii
        c = np.asarray(other.center)
        if self.kind == "box":
            lo = np.array([a for a, _ in self.intervals])
            hi = np.array([b for _, b in self.intervals])
            return bool(
                np.all(c - other.radius >= lo - REGION_SLACK)
                and np.all(c + other.radius <= hi + REGION_SLACK)
            )
        dist = float(np.linalg.norm(c - np.asarray(self.center)))
        return dist + other.radius <= self.radius + REGION_SLACK

    def to_json(self) -> dict:
        if self.kind == "box":
            return {"kind": "box", "intervals": [list(iv) for iv in self.intervals]}
        return {"kind": "ball", "center": list(self.center), "radius": self.radius}

    @staticmethod
    def from_json(obj: dict) -> "Region":
        try:
            if obj.get("kind") == "box":
                return Region.box(obj["intervals"])
            if obj.get("kind") == "ball":
                return Region.ball(obj["center"], obj["radius"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidArgument(f"malformed region: {type(exc).__name__}: {exc}") from exc
        raise InvalidArgument(f"unknown region kind {obj.get('kind')!r}")


# ---------------------------------------------------------------------------
# Patch keys

# A patch key is the sorted tuple of integer address differences seen inside
# a patch, always including the zero vector for the center itself.


def int_entry(c) -> int:
    """An integer entry as a Python int; TypeError for a boolean or a
    non-integer."""
    if isinstance(c, (bool, np.bool_)):  # operator.index(True) is 1
        raise TypeError("%r is a boolean, not an integer" % (c,))
    return operator.index(c)


def make_patch_key(diffs: Iterable[Sequence[int]]) -> tuple:
    try:
        key = tuple(sorted(tuple(int_entry(c) for c in d) for d in diffs))
    except TypeError as exc:
        raise InvalidArgument("a patch key is a list of integer vectors: %s" % exc) from exc
    validate_patch_key(key)
    return key


def validate_patch_key(key: tuple) -> None:
    if len(key) == 0:
        raise InvalidArgument("patch key must not be empty")
    widths = {len(d) for d in key}
    if len(widths) != 1:
        raise InvalidArgument("patch key entries must share one length")
    zero = (0,) * len(key[0])
    if zero not in key:
        raise InvalidArgument("patch key must contain the zero vector")
    if len(set(key)) != len(key):
        raise InvalidArgument("patch key must not contain duplicates")
    if tuple(sorted(key)) != key:
        raise InvalidArgument("patch key must be sorted lexicographically")


# ---------------------------------------------------------------------------
# Point sets


def box_code(cols: Sequence[np.ndarray], take: Optional[np.ndarray] = None):
    """One int64 per row of integer columns, the row's C-order index in the
    box of the rows, and the number of cells of the box; None when the box
    holds more than LEX_CODE_CELLS cells. The codes are equal exactly when
    the rows are, and ascending in lex order.

    Columns are reduced one at a time: numpy 2.4 reduces slowly across a
    short axis. With take, the rows are those at the indices take, and each
    column is gathered only while it is read, so that no copy of the rows is
    ever whole.
    """
    at = (lambda col: col) if take is None else (lambda col: np.take(col, take))
    bounds = [(int(c.min()), int(c.max())) for c in map(at, cols)]
    sizes = [b - a + 1 for a, b in bounds]
    if math.prod(sizes) > LEX_CODE_CELLS:
        return None
    code = np.subtract(at(cols[0]), bounds[0][0], dtype=np.int64)
    for col, (a, _), size in zip(cols[1:], bounds[1:], sizes[1:]):
        code *= size
        code += at(col) - a
    return code, math.prod(sizes)


def lex_code(cols: Sequence[np.ndarray], take: Optional[np.ndarray] = None):
    """box_code, or when the box is too large the row's rank among the
    distinct rows instead (unique_rows)."""
    coded = box_code(cols, take)
    if coded is not None:
        return coded
    ids, first = unique_rows([col if take is None else np.take(col, take) for col in cols])
    return ids, first.size


def lex_order(rows: np.ndarray, take: Optional[np.ndarray] = None) -> np.ndarray:
    """Stable permutation that sorts integer rows lexicographically, as
    np.lexsort(rows.T[::-1]) does: one argsort of their lex codes, some 30
    times faster than np.lexsort on 10^5 rows (numpy 2.4). With take, the
    permutation of rows[take], read one column at a time (lex_code)."""
    return np.argsort(lex_code(rows.T, take)[0], kind="stable")


def unique_rows(cols: Sequence[np.ndarray]):
    """Each row's index among the distinct rows of integer columns in lex
    order, and one row index per distinct row: np.unique(rows, axis=0,
    return_index=True, return_inverse=True) without its row sort.

    The indices come from one dense count of the box codes when these lie
    in no more cells than there are rows. Otherwise the rows are sorted, by
    one argsort of their box codes or, when the box is too large for them,
    by one np.lexsort of the columns; equal rows then fall together, and
    each index counts the runs before its row's.
    """
    coded = box_code(cols)
    if coded is not None and coded[1] <= coded[0].size:
        code, cells = coded
        seen = np.zeros(cells, dtype=bool)
        seen[code] = True
        ids = np.take(np.cumsum(seen) - 1, code, out=code)
        first = np.empty(int(ids.max()) + 1, dtype=np.int64)
        first[ids] = np.arange(ids.size)
        return ids, first
    parts = cols if coded is None else coded[:1]
    order = np.lexsort(parts[::-1]) if coded is None else np.argsort(coded[0])
    new = np.zeros(order.size, dtype=bool)
    new[0] = True
    for part in parts:
        part = part[order]
        new[1:] |= part[1:] != part[:-1]
    del coded, parts, part
    runs = np.cumsum(new)
    runs -= 1
    ids = np.empty_like(runs)
    ids[order] = runs
    return ids, order[new]


class ExactPointSet:
    """Finite point set with integer addresses and a float projection.

    Point i sits at addresses[i] @ projection, a row vector in R^n. The
    projection has shape (rank, dimension); row j is the image in R^n of the
    j-th address basis vector. The set is complete for its region: it holds
    every point of the underlying construction that Region.contains accepts,
    box or ball, and nothing else. Treat instances as immutable.
    """

    def __init__(
        self,
        dimension: int,
        rank: int,
        projection: np.ndarray,
        addresses: np.ndarray,
        region: Region,
    ):
        projection = np.asarray(projection, dtype=float)
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.ndim != 2:
            addresses = addresses.reshape(-1, rank)
        if rank < dimension:
            raise InvalidArgument("rank must be >= dimension")
        if projection.shape != (rank, dimension):
            raise InvalidArgument(
                f"projection must have shape ({rank}, {dimension}), got {projection.shape}"
            )
        if addresses.shape[1] != rank and addresses.shape[0] > 0:
            raise InvalidArgument("address width must equal rank")
        if region.dimension != dimension:
            raise InvalidArgument("region dimension mismatch")
        if addresses.shape[0] > 0:
            # sort and compare neighbours: on 40 000 distinct int64 keys a
            # bare np.unique took about 20 times as long (numpy 2.4)
            keys = lex_code(addresses.T)[0]
            keys.sort()
            if np.any(keys[1:] == keys[:-1]):
                raise InvalidArgument("addresses must be distinct")
        self.dimension = int(dimension)
        self.rank = int(rank)
        self.projection = projection
        self.addresses = addresses
        self.region = region
        self._points: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.addresses.shape[0]

    @property
    def points(self) -> np.ndarray:
        if self._points is None:
            if len(self) == 0:
                self._points = np.zeros((0, self.dimension))
            else:
                self._points = self.addresses.astype(float) @ self.projection
        return self._points

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "rank": self.rank,
            "projection": self.projection.tolist(),
            "addresses": self.addresses.tolist(),
            "region": self.region.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "ExactPointSet":
        try:
            return ExactPointSet(
                dimension=int(obj["dimension"]),
                rank=int(obj["rank"]),
                projection=np.asarray(obj["projection"], dtype=float),
                addresses=np.asarray(obj["addresses"], dtype=np.int64).reshape(
                    -1, int(obj["rank"])
                ),
                region=Region.from_json(obj["region"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgument(f"malformed point set: {type(exc).__name__}: {exc}") from exc


class FloatPointSet:
    """Imported float positions with a separation tolerance.

    Pairwise distances must exceed the tolerance; importers reject offending
    pairs. No exact addresses, so only approximate analyses apply.
    """

    def __init__(self, points: np.ndarray, tolerance: float, region: Region):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise InvalidArgument(f"tolerance must be finite and positive, got {tolerance}")
        if region.dimension != points.shape[1] and points.shape[0] > 0:
            raise InvalidArgument("region dimension mismatch")
        i, j = pairs_within(points, tolerance * (1 + 1e-12))
        if i.size:
            raise InvalidArgument(
                "points closer than tolerance at index pairs "
                + repr(sorted(zip(i.tolist(), j.tolist()))[:20])
            )
        self.points = points
        self.tolerance = float(tolerance)
        self.region = region
        self.dimension = int(points.shape[1]) if points.shape[0] else region.dimension

    def __len__(self) -> int:
        return self.points.shape[0]

    def to_json(self) -> dict:
        return {
            "points": self.points.tolist(),
            "tolerance": self.tolerance,
            "region": self.region.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "FloatPointSet":
        try:
            pts = np.asarray(obj["points"], dtype=float)
            region = Region.from_json(obj["region"])
            if pts.size == 0:
                pts = pts.reshape(0, region.dimension)
            if "dimension" in obj and pts.shape[0] and int(obj["dimension"]) != pts.shape[1]:
                raise InvalidArgument(
                    "declared dimension %d but rows have %d coordinates"
                    % (int(obj["dimension"]), pts.shape[1])
                )
            return FloatPointSet(points=pts, tolerance=float(obj["tolerance"]), region=region)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgument(f"malformed point set: {type(exc).__name__}: {exc}") from exc


def save_point_set(ps, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(ps.to_json(), fh, sort_keys=True)
        fh.write("\n")


def load_point_set(path: str):
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InvalidArgument("a point-set file holds a JSON object, not a %s" % type(obj).__name__)
    if "addresses" in obj:
        return ExactPointSet.from_json(obj)
    if "points" in obj:
        return FloatPointSet.from_json(obj)
    raise InvalidArgument("file holds neither an exact nor a float point set")


# ---------------------------------------------------------------------------
# Operations


def project(ps: ExactPointSet, address: Sequence[int]) -> np.ndarray:
    """Map an integer address to its position in R^n."""
    a = np.asarray(address, dtype=np.int64)
    if a.shape != (ps.rank,):
        raise InvalidArgument(f"address must have length {ps.rank}")
    return a.astype(float) @ ps.projection


def pairs_within(a: np.ndarray, rad: float, p: float = 2.0, b: Optional[np.ndarray] = None):
    """Index arrays (i, j) of every pair with |a[i] - b[j]|_p <= rad, in no
    promised order; without b, the pairs of rows of a with i < j. One query
    of a PairIndex: every neighbour query of the package goes through it."""
    if b is None:
        return PairIndex(a, p).self_pairs(rad)
    _, i, j = next(PairIndex(b, p).blocks(a, rad))
    return i, j


class PairIndex:
    """The package's one radius search: rows b, indexed once, then queried
    for the pairs within a radius of rows a, block by block of a.

    One coordinate, where every p-norm is |x - y|, takes a sorted sweep: b
    is sorted once, each x takes the run of sorted b within x -+ rad by
    `searchsorted`, and a block expands its runs into candidate pairs that
    the float test |x - y| <= rad then filters. The bounds are widened by
    2^-50 of |x| + rad, more than x -+ rad and the test can round. More
    coordinates take one scipy cKDTree of b and a small one per block.
    """

    def __init__(self, b: np.ndarray, p: float = 2.0):
        self.p = p
        if b.shape[1] == 1:
            self.order = np.argsort(b[:, 0], kind="stable")
            self.ys = b[self.order, 0]
        else:
            from scipy.spatial import cKDTree

            self.tree = cKDTree(b)

    def blocks(self, a: np.ndarray, rad, budget: float = math.inf):
        """Yield (rows, i, j) for blocks of rows of a: rows an index array
        into a, and i, j index arrays of every pair with
        |a[rows[i]] - b[j]|_p <= rad, in no promised order. rad is one
        radius, which yields at least one block, or one radius per row of a.

        A block holds about budget pairs. In one coordinate its rows are
        consecutive, with at most budget candidates plus those of one row.
        In more, the rows of each radius are taken in turn, each block as
        many as fill the budget at the pairs per row of the block before, at
        most twice as many; the first block as many as fill it if b filled
        its bounding box evenly.
        """
        m = a.shape[0]
        if a.shape[1] == 1:
            x = a[:, 0]
            wide = rad + (np.abs(x) + rad) * 2.0**-50
            lo = np.searchsorted(self.ys, x - wide, "left")
            hi = np.searchsorted(self.ys, x + wide, "right")
            cum = np.cumsum(hi - lo)  # hi >= lo: wide >= 0
            total = int(cum[-1]) if m else 0
            cuts = []
            if budget < total:
                cuts = np.searchsorted(cum, np.arange(budget, total, budget), "right")
            edges = [0, *sorted(set(cuts) - {0}), m]
            for s, e in zip(edges[:-1], edges[1:]):
                i, t = self._runs(x[s:e], lo[s:e], hi[s:e], rad if np.ndim(rad) == 0 else rad[s:e])
                yield np.arange(s, e), i, self.order[t]
            return
        from scipy.spatial import cKDTree

        tree = self.tree
        extent = np.maximum(tree.maxes - tree.mins, 1e-300)
        radii = np.broadcast_to(rad, (m,))
        for r in np.unique(radii) if np.ndim(rad) else [rad]:
            which = np.flatnonzero(radii == r)
            share = np.prod(np.minimum(1.0, 2 * r / extent))
            s, step = 0, int(min(which.size, max(1, budget / max(tree.n * share, 1.0))))
            while True:
                rows = which[s : s + step]
                # the record columns are views: copying them would add 16 bytes a pair
                near = cKDTree(a[rows]).sparse_distance_matrix
                pairs = near(tree, r, p=self.p, output_type="ndarray")
                yield rows, pairs["i"], pairs["j"]
                s += rows.size
                if s >= which.size:
                    break
                step = int(max(1, min(2 * step, step * budget // max(pairs.size, 1))))

    def self_pairs(self, rad: float):
        """The pairs (i, j) of rows of b within rad with i < j, each once."""
        if not hasattr(self, "ys"):
            ij = self.tree.query_pairs(rad, p=self.p, output_type="ndarray")
            return ij[:, 0], ij[:, 1]
        # each point swept only forward of its sorted place
        x = self.ys
        hi = np.searchsorted(x, x + rad + (np.abs(x) + rad) * 2.0**-50, "right")
        i, t = self._runs(x, np.arange(1, x.size + 1), hi, rad)
        i, j = self.order[i], self.order[t]
        return np.minimum(i, j), np.maximum(i, j)

    def _runs(self, x, lo, hi, rad):
        """The pairs (i, t) of x[i] and sorted b[t] within rad, one radius
        or rad[i], for t in the runs [lo, hi) of each i."""
        cnt = np.maximum(hi - lo, 0)
        i = np.repeat(np.arange(x.size), cnt)
        t = np.arange(i.size) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
        d = x[i]
        d -= self.ys[t]
        keep = np.abs(d, out=d) <= (rad if np.ndim(rad) == 0 else np.take(rad, i))
        return i[keep], t[keep]


def packing_radius(ps) -> float:
    """Half the minimum pairwise distance, exact; inf for fewer than 2 points."""
    pts = ps.points
    if pts.shape[0] < 2:
        return math.inf
    # the nearest pair differs on some axis by at least that axis's smallest
    # positive gap, so doubling s from the least such gap stops below twice
    # its length: O(N) pairs however the points cluster or turn, from one index
    gaps = np.diff(np.sort(pts, axis=0), axis=0)
    s = gaps[gaps > 0].min(initial=math.inf)
    if s == math.inf:
        return 0.0  # every point coincides
    index = PairIndex(pts)
    while not (ij := index.self_pairs(s))[0].size:
        s *= 2
    return float(np.linalg.norm(pts[ij[0]] - pts[ij[1]], axis=1).min()) / 2.0


def delone_constants(ps) -> tuple:
    """Estimate (r, R): packing radius and covering radius over the window.

    r is half the minimum pairwise distance, exact. R is the covering radius
    of the points over the region eroded by a first-pass estimate, so points
    missing beyond the window cannot deflate it; in dimension one it is exact,
    otherwise it is the upper end of a certified bracket at most
    COVERING_RESOLUTION_SHARE * r / 2 wide.
    """
    from .repetitivity import covering_radius

    pts = ps.points
    if pts.shape[0] < 2:
        raise InsufficientData("need at least 2 points for Delone constants")
    r = packing_radius(ps)

    region = ps.region
    resolution = max(r * COVERING_RESOLUTION_SHARE, 1e-6)
    _, rough = covering_radius(pts, region, resolution=resolution)
    try:
        eroded = region.erode(rough)
    except WindowTooSmall:
        raise InsufficientData(
            "window too small to certify a covering radius"
        ) from None
    _, upper = covering_radius(pts, eroded, resolution=resolution)
    return r, float(upper)


def natural_distance(f1, f2, k: float) -> float:
    """Window-k mismatch functional between two point sets.

    Smallest delta such that each set's points inside the closed ball of
    radius k around the origin are within delta of a point of the other set,
    capped at 1. Not a metric: the triangle inequality can fail, so treat
    values as raw mismatch scores.
    """
    if k < 0:
        raise InvalidArgument("k must be >= 0")
    p1, p2 = (f.points if hasattr(f, "points") else np.asarray(f, float) for f in (f1, f2))
    if p1.ndim != 2 or p2.ndim != 2 or p1.shape[1] != p2.shape[1]:
        raise InvalidArgument("need shapes (m, n) and (m', n), not %s and %s" % (p1.shape, p2.shape))

    def one_sided(a: np.ndarray, b: np.ndarray) -> float:
        inside = a[np.sum(a * a, axis=1) <= k * k + BALL_TOL]
        i, j = pairs_within(inside, 1.0, b=b)
        d = np.ones(inside.shape[0])  # the cap, for points with no partner within it
        np.minimum.at(d, i, np.linalg.norm(inside[i] - b[j], axis=1))
        return float(d.max(initial=0.0))  # an empty window includes vacuously

    return max(one_sided(p1, p2), one_sided(p2, p1))
