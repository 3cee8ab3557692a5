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

from .core import ExactPointSet, Region
from .ergodic import WeightDistribution
from .errors import (
    DegenerateGeometry,
    InsufficientData,
    InvalidArgument,
    WindowTooSmall,
)

KERNEL_SEARCH_BOUND = 30  # largest coefficient searched for a zero-image combination
MEYER_MIN_ANNULI, MEYER_MIN_COUNT = 4, 10  # the Meyer verdict's dyadic annuli and their points

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
    pivot_cols: list
    rank: int
    degenerate_combination: Optional[tuple]  # integer kernel witness of the projection
    convention: str

    def phi(self, addresses: np.ndarray) -> np.ndarray:
        """Exact coordinates of translated addresses in the basis."""
        a = np.atleast_2d(np.asarray(addresses, dtype=np.int64)) - self.origin_address
        work = a.copy()
        coords = np.zeros((a.shape[0], self.rank), dtype=np.int64)
        for i in range(self.rank):
            piv = self.pivot_cols[i]
            div = int(self.basis[i, piv])
            q, rem = np.divmod(work[:, piv], div)
            if np.any(rem):
                raise InvalidArgument("address not in the lattice spanned by the basis")
            coords[:, i] = q
            work = work - q[:, None] * self.basis[i][None, :]
        if np.any(work):
            raise InvalidArgument("address not in the lattice spanned by the basis")
        return coords


def build_address_map(ps: ExactPointSet) -> AddressMap:
    """Address map with the origin pinned to the point nearest the origin.

    Ties go to the lexicographically smallest address. The basis must reach
    full rank s, otherwise the window has not revealed the whole lattice and
    the map would silently drop directions.
    """
    if len(ps) == 0:
        raise InsufficientData("empty point set")
    pts = ps.points
    norms = np.sum(pts * pts, axis=1)
    best = np.min(norms)
    cand = np.nonzero(norms <= best + 1e-12)[0]
    addr_cand = ps.addresses[cand]
    origin = addr_cand[np.lexsort(addr_cand.T[::-1])][0]

    translated = ps.addresses - origin
    rows = lattice_basis(translated.tolist())
    rank = len(rows)
    if rank < ps.rank:
        raise InsufficientData(
            f"addresses span rank {rank} < {ps.rank}; widen the window"
        )
    basis = np.asarray(rows, dtype=np.int64)
    pivots = [int(np.nonzero(b)[0][0]) for b in rows]

    degenerate = None
    s = ps.rank
    if s <= 3:
        axes = [np.arange(-KERNEL_SEARCH_BOUND, KERNEL_SEARCH_BOUND + 1)] * s
        grids = np.meshgrid(*axes, indexing="ij")
        combos = np.stack([g.ravel() for g in grids], axis=1)
        images = combos.astype(float) @ ps.projection
        norm_img = np.linalg.norm(images, axis=1)
        scale = max(1.0, float(np.max(np.abs(ps.projection))))
        hits = np.nonzero(norm_img < 1e-9 * scale)[0]
        nontrivial = [combos[i] for i in hits if np.any(combos[i])]
        if nontrivial:
            nontrivial.sort(key=lambda c: (int(np.max(np.abs(c))), tuple(c.tolist())))
            degenerate = tuple(int(v) for v in nontrivial[0])

    return AddressMap(
        origin_address=origin,
        basis=basis,
        pivot_cols=pivots,
        rank=rank,
        degenerate_combination=degenerate,
        convention="origin pinned to the point nearest 0 (lex tie-break)",
    )


# ---------------------------------------------------------------------------
# Lipschitz bound on the address map


@dataclass
class LipschitzReport:
    value: float  # a certified lower bound on the true constant
    pairs_used: int
    mode: str  # "all-pairs" or "sampled"


def lipschitz_constant(
    ps: ExactPointSet,
    amap: Optional[AddressMap] = None,
    seed: int = 0,
    exact_limit: int = 10_000,
    sample_pairs: int = 1_000_000,
) -> LipschitzReport:
    """Largest observed ratio |phi(x)-phi(y)| / |x-y|.

    All pairs up to exact_limit points, otherwise a seeded pair sample; both
    modes give lower bounds on the true constant.
    """
    if amap is None:
        amap = build_address_map(ps)
    if len(ps) < 2:
        raise InsufficientData("need two points")
    coords = amap.phi(ps.addresses).astype(float)
    pts = ps.points
    P = len(ps)
    best = 0.0
    if P <= exact_limit:
        used = P * (P - 1) // 2
        # the ratio is symmetric in the pair, so each row block meets only
        # the columns after its rows; at least 16 blocks keep the diagonal
        # blocks' wasted half small
        chunk = max(1, min((1 << 22) // P, -(-P // 16)))
        from scipy.spatial.distance import cdist

        with np.errstate(divide="ignore"):
            for s in range(0, P, chunk):
                e = min(s + chunk, P)
                nx = cdist(pts[s:e], pts[s:])
                nphi = cdist(coords[s:e], coords[s:])
                nx[np.arange(s, e)[:, None] >= np.arange(s, P)[None, :]] = np.inf
                best = max(best, float(np.max(nphi / nx)))
        return LipschitzReport(value=best, pairs_used=used, mode="all-pairs")
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, P, size=sample_pairs)
    jj = rng.integers(0, P, size=sample_pairs)
    keep = ii != jj
    ii, jj = ii[keep], jj[keep]
    dx = pts[ii] - pts[jj]
    dphi = coords[ii] - coords[jj]
    with np.errstate(divide="ignore"):
        ratios = np.sqrt(np.sum(dphi * dphi, axis=1)) / np.sqrt(np.sum(dx * dx, axis=1))
    return LipschitzReport(
        value=float(np.max(ratios)), pairs_used=int(ii.size), mode="sampled"
    )


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

    For a box B the weight is the weighted sum over the integer cross-section
    grid of phi at the nearest set point to the far face node minus phi at
    the near face node, grid nodes on the boundary counting half per touching
    face. Nodes must have a set point within R or the window is too small.
    """
    n = ps.dimension
    if not 0 <= axis < n:
        raise InvalidArgument("axis out of range")
    if R <= 0:
        raise InvalidArgument("R must be positive")
    from scipy.spatial import cKDTree

    pts = ps.points
    tree = cKDTree(pts)
    coords = amap.phi(ps.addresses)

    def nearest_index(t: np.ndarray) -> int:
        dist, idx = tree.query(t, k=min(8, len(ps)))
        dist = np.atleast_1d(dist)
        idx = np.atleast_1d(idx)
        if dist[0] > R:
            raise WindowTooSmall(
                f"no set point within R = {R} of grid node {t.tolist()}"
            )
        ties = idx[dist <= dist[0] + 1e-12]
        best = min(
            ties,
            key=lambda i: (tuple(pts[i].tolist()), tuple(ps.addresses[i].tolist())),
        )
        return int(best)

    def ev(box: Region):
        if box.kind != "box":
            raise InvalidArgument("path displacement is defined on boxes")
        a_ax, b_ax = box.intervals[axis]
        m_lo = math.floor(a_ax)
        m_hi = math.floor(b_ax)
        other = [j for j in range(n) if j != axis]
        grids = []
        for j in other:
            aj, bj = box.intervals[j]
            gj = np.arange(math.ceil(aj - 1e-9), math.floor(bj + 1e-9) + 1)
            if gj.size == 0:
                return np.zeros(amap.rank)
            grids.append((j, aj, bj, gj))
        total = np.zeros(amap.rank, dtype=float)
        index_lists = [g[3] for g in grids]
        mesh = (
            np.stack([g.ravel() for g in np.meshgrid(*index_lists, indexing="ij")], axis=1)
            if grids
            else np.zeros((1, 0))
        )
        for row in mesh:
            weight = 1.0
            t_lo = np.zeros(n)
            t_hi = np.zeros(n)
            t_lo[axis] = m_lo
            t_hi[axis] = m_hi
            for (j, aj, bj, _), val in zip(grids, row):
                t_lo[j] = val
                t_hi[j] = val
                if abs(val - aj) < 1e-9:
                    weight *= 0.5
                if abs(val - bj) < 1e-9:
                    weight *= 0.5
            i_lo = nearest_index(t_lo)
            i_hi = nearest_index(t_hi)
            total += weight * (coords[i_hi] - coords[i_lo]).astype(float)
        return total

    return WeightDistribution(
        label=f"path-displacement[axis={axis}]",
        evaluate=ev,
        u0=1.0,
        constants={"translation_bound": "O(R * Lipschitz * surface)", "additive": False},
    )
