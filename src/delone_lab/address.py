"""Address maps: exact integer coordinates for points, and their linear part.

The address map sends each point to the coordinates of its translated
address in the Hermite basis of the address lattice (origin point at zero,
a recorded convention). Linear fits then measure how close the map is to a
linear function of position; bounded residuals over dyadic annuli are the
operational cut-and-project signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .core import ExactPointSet, _sum_of_squares, pairs_within
from .ergodic import WeightDistribution
from .errors import (
    DegenerateGeometry,
    InsufficientData,
    InvalidArgument,
    WindowTooSmall,
)
from .generators import _int_grid

KERNEL_SEARCH_BOUND = 30  # largest coefficient searched for a zero-image combination
MEYER_MIN_ANNULI, MEYER_MIN_COUNT = 4, 10  # the Meyer verdict's dyadic annuli and their points
LIPSCHITZ_EXACT_LIMIT = 10_000  # lipschitz_constant: all pairs up to this many points
LIPSCHITZ_SAMPLE_PAIRS = 1_000_000  # and beyond it all pairs of a seeded subset, at most this many
LIPSCHITZ_BLOCK_PAIRS = 1 << 16  # cdist entries held at once

# ---------------------------------------------------------------------------
# Exact integer lattice basis (row-style Hermite form)


def lattice_basis(rows: Sequence[Sequence[int]]) -> list:
    """Canonical basis of the integer row span, exact arithmetic throughout.

    Returns rows sorted by pivot column, pivots positive, entries above each
    pivot reduced modulo it. Never inspects floats, so rank decisions are
    exact.
    """
    basis: dict = {}  # pivot column -> row
    for row in rows:
        r = [int(x) for x in row]
        while True:
            lead = next((j for j, v in enumerate(r) if v != 0), None)
            if lead is None:
                break
            if lead not in basis:
                if r[lead] < 0:
                    r = [-v for v in r]
                basis[lead] = r
                break
            b = basis[lead]
            q = r[lead] // b[lead]
            r = [a - q * c for a, c in zip(r, b)]
            if r[lead] != 0:
                # r now has a smaller positive leading entry; swap roles
                basis[lead], r = r, b
    cols = sorted(basis)
    for i, j in enumerate(cols):
        for j2 in cols[i + 1 :]:
            q = basis[j][j2] // basis[j2][j2]
            if q:
                basis[j] = [a - q * c for a, c in zip(basis[j], basis[j2])]
    return [basis[j] for j in cols]


@dataclass
class AddressMap:
    origin_address: np.ndarray
    basis: np.ndarray  # (rank, s) integer rows
    rank: int
    degenerate_combination: Optional[tuple]  # integer kernel witness of the projection
    convention: str

    def phi(self, addresses: np.ndarray) -> np.ndarray:
        """Exact coordinates of translated addresses in the basis: int64,
        or Python ints where int64 work could overflow (see _residues)."""
        coords, rest = _residues(np.atleast_2d(addresses), self.origin_address, self.basis)
        if np.any(rest):
            raise InvalidArgument("address not in the lattice spanned by the basis")
        return coords


def _residues(rows: np.ndarray, origin, basis):
    """Coordinates and remainders of rows - origin against an echelon basis.

    Divides at each pivot in turn (floor division) and subtracts the
    quotient times the basis row, one column at a time; a row lies in the
    lattice exactly when its remainders are all zero. The remainders come
    back as a list of columns. Every intermediate is bounded by
    max|row - origin| * (1 + max|basis entry|)^rank, so the work runs in
    int64 below 2^62 and on Python ints above it: it never wraps.
    """
    rows = np.asarray(rows)
    origin = [int(v) for v in origin]
    basis = [[int(v) for v in b] for b in basis]
    top = 0
    if len(rows):
        top = max(max(-int(c.min()), int(c.max())) + abs(o) for c, o in zip(rows.T, origin))
    big = max((abs(v) for b in basis for v in b), default=0)
    dtype = np.int64 if top * (1 + big) ** len(basis) < 1 << 62 else object
    cols = [c.astype(dtype) - o for c, o in zip(rows.T, origin)]
    coords = []
    for b in basis:
        piv = next(j for j, v in enumerate(b) if v)
        q = cols[piv] // b[piv]
        for j in range(piv, len(b)):
            if b[j]:
                cols[j] = cols[j] - q * b[j]
        coords.append(q)
    return np.stack(coords, axis=1) if coords else np.zeros((len(rows), 0), dtype), cols


def hermite_basis(rows: np.ndarray, origin) -> list:
    """lattice_basis of rows - origin, grown from a few rows.

    Each round tests every row for membership in the current basis in one
    vectorized residue pass and feeds the remainders of the first 8 rows
    that fail back through lattice_basis, until none fails; the first round
    starts from no basis, so it takes the first 8 nonzero rows. The Hermite
    form is unique, so the result is the basis lattice_basis gives on all
    rows.
    """
    basis = []
    while True:
        _, cols = _residues(rows, origin, basis)
        failed = np.flatnonzero(np.logical_or.reduce([c != 0 for c in cols]))
        if failed.size == 0:
            return basis
        rest = np.stack([c[failed[:8]] for c in cols], axis=1)
        basis = lattice_basis(basis + rest.tolist())


def build_address_map(ps: ExactPointSet) -> AddressMap:
    """Address map with the origin pinned to the point nearest the origin.

    Ties go to the lexicographically smallest address. The basis is the
    Hermite form of the translated addresses, grown from a few rows by
    hermite_basis; it must reach full rank s, otherwise the window has not
    revealed the whole lattice and the map would silently drop directions.
    For s <= 3 a search over integer combinations with coefficients up to
    KERNEL_SEARCH_BOUND records the smallest one the projection sends to 0.
    """
    if len(ps) == 0:
        raise InsufficientData("empty point set")
    norms = _sum_of_squares(ps.points.T)
    best = np.min(norms)
    cand = np.nonzero(norms <= best + 1e-12)[0]
    addr_cand = ps.addresses[cand]
    origin = addr_cand[np.lexsort(addr_cand.T[::-1])][0]

    rows = hermite_basis(ps.addresses, origin)
    rank = len(rows)
    if rank < ps.rank:
        raise InsufficientData(
            f"addresses span rank {rank} < {ps.rank}; widen the window"
        )
    basis = np.asarray(rows, dtype=np.int64)

    degenerate = None
    s = ps.rank
    scale = max(1.0, float(np.max(np.abs(ps.projection))))
    # |c @ projection| >= its smallest singular value for a nonzero integer c,
    # so a projection whose singular values clear twice the hit threshold
    # has no hit to search for
    injective = s <= ps.dimension and (
        np.linalg.svd(ps.projection, compute_uv=False)[-1] > 2e-9 * scale
    )
    if s <= 3 and not injective:
        combos = _int_grid([(-KERNEL_SEARCH_BOUND, KERNEL_SEARCH_BOUND)] * s)
        images = combos.astype(float) @ ps.projection
        norm_img = np.sqrt(_sum_of_squares(images.T))
        hits = np.nonzero(norm_img < 1e-9 * scale)[0]
        nontrivial = [combos[i] for i in hits if np.any(combos[i])]
        if nontrivial:
            nontrivial.sort(key=lambda c: (int(np.max(np.abs(c))), tuple(c.tolist())))
            degenerate = tuple(int(v) for v in nontrivial[0])

    return AddressMap(
        origin_address=origin,
        basis=basis,
        rank=rank,
        degenerate_combination=degenerate,
        convention="origin pinned to the point nearest 0 (lex tie-break)",
    )


# ---------------------------------------------------------------------------
# Lipschitz bound on the address map


@dataclass
class LipschitzReport:
    value: float  # a certified lower bound on the true constant
    pairs_used: int  # the pairs the maximum covers
    mode: str  # "all-pairs" or "sampled"
    pairs_scanned: int  # of those, the pairs whose ratio was computed


def _ratio_bound(coords: np.ndarray, x: np.ndarray) -> tuple:
    """(LT, head, tail, slack): the computed ratio of any pair at distance d
    is at most B(d) = head + tail / d.

    LT is one least-squares fit of the coordinates on the positions x, taken
    relative to the origin point, and L = LT.T. For any L, a pair at
    distance d has |phi(x) - phi(y)| <= |L| d + 2 rho, where |L| is the
    Frobenius norm, at least the operator norm, and rho bounds every
    residual |phi(x) - L x|. Both are rounded outward: |L| past the roundoff
    of its sum of squares, rho past its own and past the residuals' absolute
    roundoff, under (n + 3) ulps of |x| |L|, each taken twice over. Then
    B(d) = (|L| + 2 rho / d)(1 + slack), where slack = 8 (n + s) ulps, as
    covering_radius rounds, covers the rounding of the computed ratio, at
    most (n + s) / 2 + 3 ulps.
    """
    n, s = x.shape[1], coords.shape[1]
    ulp = math.ulp(1.0)
    LT = np.linalg.lstsq(x, coords, rcond=None)[0]
    norm = math.sqrt(math.fsum((LT * LT).flat)) * (1.0 + 3.0 * ulp)
    reach = math.sqrt(float(np.max(_sum_of_squares(x.T))))
    rho = math.sqrt(float(np.max(_sum_of_squares((coords - x @ LT).T))))
    rho = (rho + 2.0 * (n + 3) * ulp * reach * norm) * (1.0 + 2.0 * (s + 3) * ulp)
    slack = 8.0 * (n + s) * ulp
    return LT, norm * (1.0 + slack), 2.0 * rho * (1.0 + slack), slack


def lipschitz_constant(
    ps: ExactPointSet, amap: Optional[AddressMap] = None, seed: int = 0
) -> LipschitzReport:
    """Largest observed ratio |phi(x)-phi(y)| / |x-y|.

    All pairs up to LIPSCHITZ_EXACT_LIMIT points, beyond it all pairs of a
    seeded subset of m points, the most whose m (m - 1) / 2 pairs fit in
    LIPSCHITZ_SAMPLE_PAIRS. Both give lower bounds on the true constant, and
    pairs_used counts the pairs the maximum covers. The scan holds at most
    LIPSCHITZ_BLOCK_PAIRS cdist entries at a time; the maximum is exact, so
    the block size changes no value.

    Not every covered pair is scanned. With a linear map L whose residuals
    are at most rho, the computed ratio of a pair at distance d is at most
    B(d) = (|L| + 2 rho / d)(1 + margin), the margin covering the ratio's
    own rounding (_ratio_bound), fit on every point. Once the running
    maximum exceeds B(d), no pair at distance d or more can raise it, and
    the scan, sorted by the first coordinate, meets only the columns whose
    first coordinate lies within that cutoff. So the value is bitwise that
    of a scan of every covered pair, and pairs_scanned counts the pairs
    whose ratio was computed. On a lattice rho is about 0 and no ratio
    exceeds |L|, so the cutoff stays infinite and every pair is scanned. An
    identity projection and basis with addresses below 2^52 scan none: both
    distances see the same exact differences, so every ratio is exactly 1.
    """
    if amap is None:
        amap = build_address_map(ps)
    if len(ps) < 2:
        raise InsufficientData("need two points")
    P, mode = len(ps), "all-pairs"
    if P > LIPSCHITZ_EXACT_LIMIT:
        # m (m - 1) <= 2 N exactly when 2 m - 1 <= isqrt(8 N + 1)
        P, mode = min(P, (math.isqrt(8 * LIPSCHITZ_SAMPLE_PAIRS + 1) + 1) // 2), "sampled"
    identity = all(np.array_equal(m, np.eye(ps.dimension)) for m in (ps.projection, amap.basis))
    if identity and np.abs(ps.addresses).max() < 2**52:
        return LipschitzReport(value=1.0, pairs_used=P * (P - 1) // 2, mode=mode, pairs_scanned=0)
    coords = amap.phi(ps.addresses).astype(float)
    pts = ps.points
    _, head, tail, slack = _ratio_bound(coords, pts - amap.origin_address.astype(float) @ ps.projection)
    if mode == "sampled":
        pick = np.random.default_rng(seed).choice(len(ps), P, replace=False)
        pts, coords = pts[pick], coords[pick]

    def cutoff(best):
        # B(d) < best for every d beyond this; the slack covers its own
        # rounding and that of the distances it is compared with
        return tail / (best - head) * (1.0 + slack) if best > head else math.inf

    # the ratio is symmetric in the pair, so each row block meets only the
    # columns after its rows; at least 16 blocks keep the diagonal blocks'
    # wasted half small. Sorted by the first coordinate, a pair is at least
    # its first-coordinate gap apart, so once the cutoff is finite row i
    # needs only the columns before ends[i]. Blocks then take up to `band`
    # rows, fewer if their columns would pass LIPSCHITZ_BLOCK_PAIRS: the
    # triangle a block masks, or scans past the cutoff, stays within 1/32 of
    # a block
    order = np.argsort(pts[:, 0], kind="stable")
    pts, coords = pts[order], coords[order]
    x0 = pts[:, 0]
    pad = 4.0 * math.ulp(float(np.max(np.abs(x0))))  # the rounding of x0 + cut
    chunk = max(1, min(LIPSCHITZ_BLOCK_PAIRS // P, -(-P // 16)))
    band = max(1, math.isqrt(LIPSCHITZ_BLOCK_PAIRS // 16))
    ends = np.full(P, P)
    from scipy.spatial.distance import cdist

    best, cut, scanned, s = 0.0, math.inf, 0, 0
    with np.errstate(divide="ignore"):
        while s < P:
            e = min(s + (chunk if cut == math.inf else band), P)
            while e - s > 1 and (e - s) * (ends[e - 1] - s) > LIPSCHITZ_BLOCK_PAIRS:
                e = s + (e - s) // 2
            h = int(ends[e - 1])
            nx = cdist(pts[s:e], pts[s:h])
            nphi = cdist(coords[s:e], coords[s:h])
            nx[np.arange(s, e)[:, None] >= np.arange(s, h)[None, :]] = np.inf
            scanned += (e - s) * (h - s) - (e - s) * (e - s + 1) // 2
            top = float(np.max(nphi / nx))
            if top > best:
                best, cut = top, cutoff(top)
                if cut < math.inf:
                    ends = np.searchsorted(x0, x0 + (cut + pad), side="right")
            s = e
    return LipschitzReport(value=best, pairs_used=P * (P - 1) // 2, mode=mode, pairs_scanned=scanned)


# ---------------------------------------------------------------------------
# Linear fit and dyadic residual analysis


@dataclass
class AnnulusRow:
    r_lo: float
    r_hi: float
    count: int
    max_residual: float


@dataclass
class LinearFit:
    L: np.ndarray  # (rank, n): best linear map position -> coordinates
    proj_residual: float  # max |pi_eff^T L - I|
    annuli: List[AnnulusRow]
    exponent: Optional[float]
    exponent_stderr: Optional[float]
    residuals_zero: bool
    max_residual: float
    notes: list


def linear_fit(ps: ExactPointSet, amap: Optional[AddressMap] = None) -> LinearFit:
    """Least-squares linear approximation of the address map.

    By construction positions are an exact linear function of coordinates, so
    the fitted L automatically satisfies projection-compose-L = identity up
    to float residue; that residue is recorded. Residual magnitudes are
    binned into dyadic annuli in |x| for the boundedness analysis.
    """
    if amap is None:
        amap = build_address_map(ps)
    coords = amap.phi(ps.addresses).astype(float)
    origin_pos = amap.origin_address.astype(float) @ ps.projection
    x = ps.points - origin_pos
    n = ps.dimension
    if len(ps) < ps.rank + 1:
        raise InsufficientData("too few points for a linear fit")
    cond = np.linalg.cond(x)
    if not np.isfinite(cond) or cond > 1e8:
        raise DegenerateGeometry("positions are numerically rank deficient")
    LT, *_ = np.linalg.lstsq(x, coords, rcond=None)
    L = LT.T  # (rank, n)

    pi_eff = amap.basis.astype(float) @ ps.projection  # (rank, n)
    proj_resid = float(np.max(np.abs(pi_eff.T @ L - np.eye(n))))

    resid = np.sqrt(np.sum((coords - x @ LT) ** 2, axis=1))
    radii = np.sqrt(np.sum(x * x, axis=1))
    rmax = float(np.max(radii))
    zero = bool(np.max(resid) < 1e-9)
    annuli = []
    if rmax > 0:
        edges = []
        hi = rmax
        while hi > max(1e-9, rmax * 2.0**-24):
            edges.append(hi)
            hi /= 2.0
        for hi_edge in edges:
            lo_edge = hi_edge / 2.0
            mask = (radii > lo_edge) & (radii <= hi_edge)
            cnt = int(np.count_nonzero(mask))
            if cnt == 0:
                continue
            annuli.append(
                AnnulusRow(
                    r_lo=lo_edge,
                    r_hi=hi_edge,
                    count=cnt,
                    max_residual=float(np.max(resid[mask])),
                )
            )
        annuli.sort(key=lambda a: a.r_lo)
    exponent = stderr = None
    notes = []
    if zero:
        notes.append("residuals identically zero within 1e-9")
    else:
        usable = [a for a in annuli if a.count >= 10 and a.max_residual > 0]
        if len(usable) >= 2:
            lx = np.log([math.sqrt(a.r_lo * a.r_hi) for a in usable])
            ly = np.log([a.max_residual for a in usable])
            if len(usable) >= 3:
                coef, cov = np.polyfit(lx, ly, 1, cov=True)
                stderr = float(math.sqrt(max(cov[0, 0], 0.0)))
            else:
                coef = np.polyfit(lx, ly, 1)
            exponent = float(coef[0])
        else:
            notes.append("too few populated annuli for an exponent fit")
    return LinearFit(
        L=L,
        proj_residual=proj_resid,
        annuli=annuli,
        exponent=exponent,
        exponent_stderr=stderr,
        residuals_zero=zero,
        max_residual=float(np.max(resid)),
        notes=notes,
    )


@dataclass
class MeyerReport:
    annuli: List[AnnulusRow]
    variation: float  # relative spread of max residual over the last half
    bounded: bool
    caveat: str


def meyer_residual(fit: LinearFit) -> MeyerReport:
    """Boundedness verdict for the linear-fit residuals.

    Uses the populated dyadic annuli; the residual is judged bounded when the
    per-annulus max varies by less than 20% over the outer half.
    """
    usable = [a for a in fit.annuli if a.count >= MEYER_MIN_COUNT]
    if len(usable) < MEYER_MIN_ANNULI:
        raise InsufficientData(
            f"need >= {MEYER_MIN_ANNULI} dyadic annuli with >= {MEYER_MIN_COUNT} points"
        )
    if fit.residuals_zero:
        return MeyerReport(
            annuli=usable,
            variation=0.0,
            bounded=True,
            caveat="residuals identically zero",
        )
    half = usable[len(usable) // 2 :]
    vals = [a.max_residual for a in half]
    top = max(vals)
    variation = (top - min(vals)) / top if top > 0 else 0.0
    return MeyerReport(
        annuli=usable,
        variation=variation,
        bounded=variation < 0.20,
        caveat="finite-window verdict over the outer dyadic annuli",
    )


# ---------------------------------------------------------------------------
# Path displacement weights


def path_displacement_distribution(
    ps: ExactPointSet,
    amap: AddressMap,
    axis: int,
    R: float,
) -> WeightDistribution:
    """Coordinate displacement along one axis of a box, as a box weight.

    evaluate takes an (m, n, 2) array of boxes and returns (m, rank). For a
    box B the weight is the weighted sum over the integer cross-section
    grid of phi at the nearest set point to the far face node minus phi at
    the near face node, grid nodes on the boundary counting half per touching
    face. Nodes must have a set point within R or the window is too small.
    One `pairs_within` search over the nodes of all boxes finds every point
    within R of a node; those within 1e-12 of the nearest tie, and the least
    (position, address) wins.
    """
    n = ps.dimension
    if not 0 <= axis < n:
        raise InvalidArgument("axis out of range")
    if R <= 0:
        raise InvalidArgument("R must be positive")
    coords = amap.phi(ps.addresses)
    order = np.lexsort((*ps.addresses.T[::-1], *ps.points.T[::-1]))
    rank = np.argsort(order)  # point -> its place in the tie-break order

    def ev(boxes: np.ndarray) -> np.ndarray:
        if boxes.shape[1:] != (n, 2):
            raise InvalidArgument("boxes must be an (m, %d, 2) array, not %s" % (n, boxes.shape))
        nodes, weights = [np.zeros((0, n))], []
        for box in boxes:
            faces = np.delete(box, axis, axis=0)
            # cross-section nodes in C order, each as a near-face then a far-face node
            cross = _int_grid([(a - 1e-9, b + 1e-9) for a, b in faces]).astype(float)
            ends = [float(math.floor(c)) for c in box[axis]]
            nodes.append(np.insert(np.repeat(cross, 2, axis=0), axis, ends * len(cross), axis=1))
            weights.append(0.5 ** (np.abs(cross[:, :, None] - faces) < 1e-9).sum(axis=(1, 2)))
        nodes = np.concatenate(nodes)
        # reaching past R finds every tie of a nearest point at distance R
        i, j = pairs_within(nodes, R + 1e-12, b=ps.points)
        dist = np.sqrt(_sum_of_squares((nodes[i] - ps.points[j]).T))
        nearest = np.full(len(nodes), np.inf)
        np.minimum.at(nearest, i, dist)
        lost = nearest > R
        if lost.any():
            node = nodes[np.argmax(lost)].tolist()
            raise WindowTooSmall(f"no set point within R = {R} of grid node {node}")
        tied = dist <= nearest[i] + 1e-12
        pick = np.full(len(nodes), len(ps))
        np.minimum.at(pick, i[tied], rank[j[tied]])
        near, far = order[pick].reshape(-1, 2).T
        terms = np.concatenate([[], *weights])[:, None] * (coords[far] - coords[near]).astype(float)
        stops = np.cumsum([0, *map(len, weights)])
        # row after row, as a loop adds; a one-column reduce would sum pairwise
        sums = [np.add.accumulate(terms[a:b], axis=0)[-1] if b > a else np.zeros(amap.rank)
                for a, b in zip(stops, stops[1:])]
        return np.array(sums).reshape(-1, amap.rank)

    return WeightDistribution(label=f"path-displacement[axis={axis}]", evaluate=ev, u0=1.0)
