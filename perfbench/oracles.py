"""Reference computations made apart from delone_lab.

Everything here uses the standard library, numpy and scipy only, and never
imports the package under test, so a fault in the program cannot hide in
its own check. Exact answers use integer arithmetic (math.isqrt for the
golden ratio); geometric answers use closed forms or qhull.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# exact arithmetic with the golden ratio alpha = (sqrt(5) - 1) / 2


def golden_floor(j: int) -> int:
    """floor(j * alpha) for alpha = (sqrt 5 - 1)/2, exact for any integer j."""
    j = int(j)
    if j >= 0:
        # floor((sqrt(5 j^2) - j) / 2) == (isqrt(5 j^2) - j) // 2 since
        # sqrt(5 j^2) is irrational for j != 0
        return (math.isqrt(5 * j * j) - j) // 2
    return -golden_floor(-j) - 1


def sqrt5_cmp(m: int, r: int) -> int:
    """Sign of sqrt(5) * m - r, exactly."""
    if m >= 0 and r <= 0:
        return 0 if (m == 0 and r == 0) else 1
    if m <= 0 and r >= 0:
        return -1
    sign = (5 * m * m > r * r) - (5 * m * m < r * r)
    return sign if m > 0 else -sign


def cut_strip_holds(m: int, p: int) -> bool:
    """0 <= p - alpha m < 1 exactly, for the golden alpha."""
    # p - alpha m >= 0  <=>  sqrt5 m <= 2p + m
    # p - alpha m < 1   <=>  sqrt5 m >  2p - 2 + m
    return sqrt5_cmp(m, 2 * p + m) <= 0 and sqrt5_cmp(m, 2 * p - 2 + m) > 0


# ---------------------------------------------------------------------------
# point sets built from closed forms


def beatty_window(a: float, b: float, tau: float) -> np.ndarray:
    """Addresses (u, v) of the golden Beatty chain with x in [a, b].

    Point i sits at u + tau v with v = floor(i alpha) and u = i - v; the
    positions increase with i, so the window is one index range.
    """

    def x(i: int) -> float:
        v = golden_floor(i)
        return (i - v) + tau * v

    def first_at_least(t: float) -> int:
        # x_i grows by 1 or tau per step, so it brackets i within [t/tau, t]
        lo = math.floor(min(t / tau, t)) - 2
        hi = math.ceil(max(t / tau, t)) + 2
        while lo < hi:
            mid = (lo + hi) // 2
            if x(mid) >= t:
                hi = mid
            else:
                lo = mid + 1
        return lo

    i_lo = first_at_least(a - 1e-9)
    i_hi = first_at_least(b + 1e-9)
    if x(i_hi) > b + 1e-9:
        i_hi -= 1
    rows = [(i - golden_floor(i), golden_floor(i)) for i in range(i_lo, i_hi + 1)]
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def cut_project_window(a: float, b: float):
    """Addresses (m, p) of the golden cut-and-project chain with t in [a, b].

    p is the unique integer with 0 <= p - alpha m < 1, i.e. ceil(alpha m);
    t = (m + alpha p) / sqrt(1 + alpha^2) grows with m. Returns the
    addresses and the projection rows.
    """
    af = (math.sqrt(5.0) - 1.0) / 2.0
    norm = math.sqrt(1.0 + af * af)

    def p_of(m: int) -> int:
        return 0 if m == 0 else golden_floor(m) + 1

    def t(m: int) -> float:
        return (m + p_of(m) * af) / norm

    m_lo = math.floor(a * norm / (1.0 + af * af)) - 3
    while t(m_lo) >= a - 1e-9:
        m_lo -= 8
    m_hi = math.ceil(b * norm / (1.0 + af * af)) + 3
    while t(m_hi) <= b + 1e-9:
        m_hi += 8
    rows = [(m, p_of(m)) for m in range(m_lo, m_hi + 1) if a - 1e-9 <= t(m) <= b + 1e-9]
    proj = np.array([[1.0 / norm], [af / norm]])
    return np.array(rows, dtype=np.int64).reshape(-1, 2), proj


def integer_box(intervals, deletions=()) -> np.ndarray:
    """Integer points of a closed box (1e-9 slack), minus deleted sites."""
    axes = [np.arange(math.ceil(a - 1e-9), math.floor(b + 1e-9) + 1) for a, b in intervals]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    if len(deletions):
        gone = {tuple(int(c) for c in d) for d in deletions}
        keep = np.array([tuple(row) not in gone for row in grid.tolist()], dtype=bool)
        grid = grid[keep]
    return grid.astype(np.int64)


def deleted_lines_keep(points: np.ndarray, a) -> np.ndarray:
    """Mask of integer points of Z^3 that survive the nested line deletions.

    Level j (1-based) owns three line families of modulus 4 a_j, one per
    axis; a line parallel to axis k fixes the next coordinate at +a_j and
    the one after at -a_j (cyclically). The deepest level whose line holds
    a point decides: odd levels delete, even levels restore.
    """
    pts = np.asarray(points, dtype=np.int64)
    level = np.zeros(pts.shape[0], dtype=np.int64)
    for j, aj in enumerate(a, start=1):
        mod = 4 * int(aj)
        on_line = np.zeros(pts.shape[0], dtype=bool)
        for axis in range(3):
            plus, minus = pts[:, (axis + 1) % 3], pts[:, (axis + 2) % 3]
            on_line |= (np.mod(plus - aj, mod) == 0) & (np.mod(minus + aj, mod) == 0)
        level[on_line] = j
    return level % 2 == 0


# ---------------------------------------------------------------------------
# patches


def brute_force_key(addresses: np.ndarray, positions: np.ndarray, center: int, T: float) -> tuple:
    """Sorted address differences of every point within distance T of one point."""
    d2 = np.sum((positions - positions[center]) ** 2, axis=1)
    inside = addresses[d2 <= T * T + 1e-9] - addresses[center]
    return tuple(sorted(tuple(int(c) for c in row) for row in inside.tolist()))


# ---------------------------------------------------------------------------
# covering radii


def covering_radius_1d(xs: np.ndarray, lo: float, hi: float) -> float:
    """Exact sup over [lo, hi] of the distance to the nearest of the points xs.

    The distance to a finite set of reals is piecewise linear, with its
    peaks at midpoints between neighbours, so the sup is the largest
    half-gap whose midpoint lies in [lo, hi] or the distance at an end.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    best = max(float(np.min(np.abs(xs - lo))), float(np.min(np.abs(xs - hi))))
    mids = (xs[:-1] + xs[1:]) / 2.0
    inside = (mids >= lo) & (mids <= hi)
    if np.any(inside):
        best = max(best, float(np.max(np.diff(xs)[inside])) / 2.0)
    return best


def box_counts(pos: np.ndarray, lo: np.ndarray, hi: np.ndarray, slack: float = 1e-9) -> np.ndarray:
    """Number of points in each closed box [lo[i], hi[i]] (boxes by row)."""
    counts = np.empty(lo.shape[0], dtype=np.int64)
    for i in range(lo.shape[0]):
        counts[i] = np.count_nonzero(np.all((pos >= lo[i] - slack) & (pos <= hi[i] + slack), axis=1))
    return counts


def covering_radius_box_2d(centers: np.ndarray, box) -> float:
    """Exact sup over a box of the distance to the nearest center, in 2-D.

    The sup of a distance-to-nearest function over a convex polygon sits at
    a Voronoi vertex inside it, a crossing of a Voronoi edge with the
    boundary, or a corner (the largest-empty-circle construction). Each
    Voronoi edge lies on the bisector of its two centers, so crossings of
    those bisector lines with the box edges are a superset of the edge
    crossings; every candidate lies in the box, so the max over them is
    exact.
    """
    from scipy.spatial import QhullError, Voronoi, cKDTree

    c = np.asarray(centers, dtype=float)
    (x0, x1), (y0, y1) = box
    cand = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
    pairs = None
    if c.shape[0] >= 3:
        try:
            vor = Voronoi(c)
        except QhullError:  # all centers on one line: neighbours in sorted order
            order = np.lexsort(c.T[::-1])
            pairs = np.stack([order[:-1], order[1:]], axis=1)
        else:
            v = vor.vertices
            inside = (v[:, 0] >= x0) & (v[:, 0] <= x1) & (v[:, 1] >= y0) & (v[:, 1] <= y1)
            cand.extend(map(tuple, v[inside]))
            pairs = vor.ridge_points
    elif c.shape[0] == 2:
        pairs = np.array([[0, 1]])
    if pairs is not None and len(pairs):
        p, q = c[pairs[:, 0]], c[pairs[:, 1]]
        mid, d = (p + q) / 2.0, q - p
        with np.errstate(divide="ignore", invalid="ignore"):
            for xe in (x0, x1):  # bisector: (z - mid) . d = 0
                y = mid[:, 1] - (xe - mid[:, 0]) * d[:, 0] / d[:, 1]
                ok = np.isfinite(y) & (y >= y0) & (y <= y1)
                cand.extend((xe, yy) for yy in y[ok])
            for ye in (y0, y1):
                x = mid[:, 0] - (ye - mid[:, 1]) * d[:, 1] / d[:, 0]
                ok = np.isfinite(x) & (x >= x0) & (x <= x1)
                cand.extend((xx, ye) for xx in x[ok])
    dist, _ = cKDTree(c).query(np.asarray(cand, dtype=float))
    return float(np.max(dist))


def covering_radius_grid(centers: np.ndarray, box, step: float) -> tuple:
    """(lower, upper) bracket for the covering radius over a box, any dimension.

    Cell centers of a grid of pitch <= step tile the box; the distance at a
    sample is a lower bound, and adding half a cell diagonal bounds the
    distance anywhere in that cell.
    """
    from scipy.spatial import cKDTree

    axes, pitch = [], []
    for a, b in box:
        count = max(1, math.ceil((b - a) / step))
        h = (b - a) / count
        pitch.append(h)
        axes.append(a + h * (np.arange(count) + 0.5))
    samples = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    dist, _ = cKDTree(np.asarray(centers, dtype=float)).query(samples)
    low = float(np.max(dist))
    return low, low + 0.5 * math.sqrt(sum(h * h for h in pitch))


# ---------------------------------------------------------------------------
# diffraction


def exponential_sum_intensity(x: np.ndarray, T: float, k: np.ndarray) -> np.ndarray:
    """|sum over points with |x| < T of exp(2 pi i k x)|^2 / (2 T), in 1-D."""
    sel = np.asarray(x, dtype=float)
    sel = sel[np.abs(sel) < T]
    k = np.asarray(k, dtype=float)
    phase = 2.0 * math.pi * np.outer(k, sel)
    re, im = np.cos(phase).sum(axis=1), np.sin(phase).sum(axis=1)
    return (re * re + im * im) / (2.0 * T)


def local_maxima(values: np.ndarray, ratio: float = 0.5) -> list:
    """Indices that rise from the left, do not fall to the right, and reach ratio * max."""
    v = np.asarray(values, dtype=float)
    cutoff = ratio * float(v.max())
    out = []
    for i in range(v.size):
        rises = i == 0 or v[i] > v[i - 1]
        holds = i == v.size - 1 or v[i] >= v[i + 1]
        if rises and holds and v[i] >= cutoff:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# integer lattices


def integer_coefficients(vectors: np.ndarray, basis: np.ndarray):
    """Integer c with c @ basis == vectors row by row, or None if some row is
    outside the integer span of a square, nonsingular basis."""
    from fractions import Fraction

    B = [[Fraction(int(v)) for v in row] for row in np.asarray(basis).tolist()]
    n = len(B)
    if any(len(row) != n for row in B):
        return None
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):  # Gauss-Jordan over the rationals
        piv = next((r for r in range(col, n) if B[r][col] != 0), None)
        if piv is None:
            return None
        B[col], B[piv] = B[piv], B[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = B[col][col]
        B[col] = [v / f for v in B[col]]
        inv[col] = [v / f for v in inv[col]]
        for r in range(n):
            if r != col and B[r][col] != 0:
                g = B[r][col]
                B[r] = [a - g * b for a, b in zip(B[r], B[col])]
                inv[r] = [a - g * b for a, b in zip(inv[r], inv[col])]
    den = math.lcm(*[v.denominator for row in inv for v in row])
    scaled = np.array([[int(v * den) for v in row] for row in inv], dtype=object)
    num = np.asarray(vectors, dtype=object) @ scaled
    if any(int(v) % den for v in num.ravel()):
        return None
    coef = (num // den).astype(np.int64)
    if not np.array_equal(coef @ np.asarray(basis, dtype=np.int64), np.asarray(vectors, dtype=np.int64)):
        return None
    return coef
