"""Patch classification over finite windows.

A T-patch at a center x is the set of points inside the closed ball (or cube)
of size T around x, recorded as integer address differences. Centers are
restricted to the window eroded by the patch size, so every patch is complete
and the class count is a certified lower bound for the infinite set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .core import BALL_TOL, ExactPointSet, Region, make_patch_key, narrow_rows, row_scalars
from .errors import InvalidArgument, WindowTooSmall
from .generators import PointSetSource

@dataclass
class PatchClass:
    key: tuple
    centers: np.ndarray  # (m, rank) integer addresses, lex sorted


@dataclass
class AtlasResult:
    T: float
    shape: str
    certified_region: Region
    classes: List[PatchClass]
    boundary_flag_count: int
    boundary_flags: list  # up to flag_cap entries of (center_address, distance)
    engine: str

    @property
    def n_lower(self) -> int:
        return len(self.classes)

    @property
    def total_centers(self) -> int:
        return sum(c.centers.shape[0] for c in self.classes)

    def keys(self) -> list:
        return [c.key for c in self.classes]

    def class_for(self, key: tuple) -> Optional[PatchClass]:
        key = make_patch_key(key)
        for c in self.classes:
            if c.key == key:
                return c
        return None


def _erosion_margin(T: float, shape: str, region_kind: str, n: int) -> float:
    if shape == "ball":
        return T
    # cube of side T: half-width per axis, half-diagonal inside a ball window
    return T / 2.0 if region_kind == "box" else (T / 2.0) * math.sqrt(n)


def compute_atlas(
    ps: ExactPointSet, T: float, shape: str = "ball", flag_cap: int = 1000
) -> AtlasResult:
    """Classify all fully visible T-patches in the window.

    shape "ball" uses the closed euclidean ball of radius T; shape "cube"
    uses the axis-aligned closed cube of side T. Membership is decided on
    squared distances with a 1e-9 slack, and near-threshold points are
    flagged (they stay included).

    Subsets of Z^n (n <= 3) with the identity projection go to the lattice
    engine unless their address box is too sparse for an occupancy array;
    every other set goes to the kdtree engine.
    """
    if shape not in ("ball", "cube"):
        raise InvalidArgument(f"unknown patch shape {shape!r}")
    if not (T > 0):
        raise InvalidArgument("patch size T must be positive")
    n = ps.dimension
    margin = _erosion_margin(T, shape, ps.region.kind, n)
    certified = ps.region.erode(margin)

    pts = ps.points
    if len(ps) == 0:
        raise WindowTooSmall("cannot build an atlas from an empty window")
    center_mask = certified.contains(pts)
    center_idx = np.nonzero(center_mask)[0]
    if center_idx.size == 0:
        return AtlasResult(T, shape, certified, [], 0, [], "empty")

    thresh2 = T * T if shape == "ball" else (T / 2.0) ** 2

    if (
        ps.rank == n
        and n <= 3
        and np.array_equal(ps.projection, np.eye(n))
        # the occupancy array spans the addresses' box; sparse sets go to kdtree
        and np.prod(np.ptp(ps.addresses, axis=0) + 2.0 * T + 1.0) <= 64 * len(ps) + (1 << 22)
    ):
        groups, flags, flag_count, engine = _engine_lattice(
            ps, center_idx, shape, thresh2, flag_cap
        )
    else:
        groups, flags, flag_count, engine = _engine_kdtree(
            ps, center_idx, shape, thresh2, flag_cap
        )

    classes = [PatchClass(key=k, centers=v) for k, v in groups.items()]
    classes.sort(key=lambda c: c.key)
    flags.sort()
    return AtlasResult(
        T=T,
        shape=shape,
        certified_region=certified,
        classes=classes,
        boundary_flag_count=int(flag_count),
        boundary_flags=flags[:flag_cap],
        engine=engine,
    )


def _inside(table, projection, shape, thresh2):
    """(included, near, distance) for each address difference in table.

    Membership is decided on squared distances with BALL_TOL slack; near
    marks the differences within BALL_TOL of the boundary.
    """
    per = table.astype(float) @ projection
    per *= per
    d2 = per.sum(axis=1)
    if shape == "ball":
        inc = d2 <= thresh2 + BALL_TOL
        near = np.abs(d2 - thresh2) < BALL_TOL
    else:
        inc = np.all(per <= thresh2 + BALL_TOL, axis=1)
        near = np.any(np.abs(per - thresh2) < BALL_TOL, axis=1)
    return inc, near, np.sqrt(d2)


def _classify(chunks, table, near, dist, caddr, flag_cap):
    """Group centers by patch and build one key per class.

    table holds K address differences in lex order. chunks yields boolean
    matrices over consecutive blocks of centers: column j of a center's row
    says whether table[j] lies in its patch. The rows pack into bits and
    group by a 1-D unique over one scalar per row; flags are the first
    2 * flag_cap near-threshold hits of each chunk, in (center, column)
    order, until that many are collected.
    """
    packed, flags, near_total, start = [], [], 0, 0
    for found in chunks:
        packed.append(np.packbits(found, axis=1))
        hits = found & near
        near_total += int(np.count_nonzero(hits))
        if len(flags) < flag_cap * 2 and hits.any():
            rr, cc = np.nonzero(hits)
            for r, c in zip(rr[: flag_cap * 2].tolist(), cc[: flag_cap * 2].tolist()):
                flags.append((tuple(caddr[start + r].tolist()), float(dist[c])))
        start += found.shape[0]

    rows = np.concatenate(packed)
    _, first, inverse = np.unique(row_scalars(rows), return_index=True, return_inverse=True)
    # centers by class, then by address
    order = np.lexsort((*caddr.T[::-1], inverse))
    bounds = np.cumsum(np.bincount(inverse))[:-1]
    groups = {}
    for rep, centers in zip(first.tolist(), np.split(caddr[order], bounds)):
        bits = np.unpackbits(rows[rep], count=table.shape[0]).astype(bool)
        groups[make_patch_key(map(tuple, table[bits].tolist()))] = centers
    return groups, flags, near_total


def _engine_lattice(ps, center_idx, shape, thresh2, flag_cap):
    """Identity-projection engine: offset table plus dense occupancy lookup."""
    n = ps.dimension
    reach = math.floor(math.sqrt(thresh2 + BALL_TOL))
    rng = np.arange(-reach, reach + 1, dtype=np.int64)
    # "ij" order ravels the offsets lexicographically
    grids = np.meshgrid(*([rng] * n), indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=1)
    inc, near, dist = _inside(offs, ps.projection, shape, thresh2)
    offs = offs[inc]

    # occupancy over the addresses' box grown by reach, flat in C order
    addr = ps.addresses
    lo = addr.min(axis=0) - reach
    dims = addr.max(axis=0) + reach + 1 - lo
    strides = np.cumprod(np.append(dims[1:], 1)[::-1])[::-1]
    occ = np.zeros(int(np.prod(dims)), dtype=bool)
    occ[(addr - lo) @ strides] = True
    caddr = addr[center_idx]
    flat_c = (caddr - lo) @ strides
    flat_o = offs @ strides
    chunk = max(1, (1 << 20) // offs.shape[0])
    chunks = (
        occ[flat_c[s : s + chunk, None] + flat_o[None, :]]
        for s in range(0, caddr.shape[0], chunk)
    )
    return _classify(chunks, offs, near[inc], dist[inc], caddr, flag_cap) + ("lattice",)


def _engine_kdtree(ps, center_idx, shape, thresh2, flag_cap):
    """Any projection: one tree query finds every pair within T, and the
    distinct pair differences, in lex order, are the columns of the rows.

    The tree holds positions taken from the addresses less the window's
    smallest, and a pair's offset is its address difference times the
    projection, so neither cost nor precision depends on where the window
    sits.
    """
    from scipy.spatial import cKDTree

    addr = ps.addresses
    N, m = len(ps), center_idx.size
    rad = math.sqrt(thresh2 + BALL_TOL)
    pairs = cKDTree((addr - addr.min(axis=0)).astype(float) @ ps.projection).query_pairs(
        rad * (1 + 1e-12), p=np.inf if shape == "cube" else 2.0, output_type="ndarray"
    )
    # each center with itself, then every pair in both directions
    row_of = np.full(N, -1, dtype=np.intp)
    row_of[center_idx] = np.arange(m)
    row = row_of[np.concatenate([center_idx, pairs[:, 0], pairs[:, 1]])]
    nb = np.concatenate([center_idx, pairs[:, 1], pairs[:, 0]])
    del pairs
    keep = row >= 0
    row, nb = row[keep], nb[keep]
    caddr = addr[center_idx]
    diffs = addr[nb] - caddr[row]

    # the distinct differences in lex order, and each pair's column among them
    _, first, col = np.unique(
        row_scalars(narrow_rows(diffs)), return_index=True, return_inverse=True
    )
    table = diffs[first]
    lex = np.lexsort(table.T[::-1])
    table, col = table[lex], np.argsort(lex)[col]
    # an excluded difference keeps its column, which stays all zero
    inc, near, dist = _inside(table, ps.projection, shape, thresh2)
    keep = inc[col]
    found = np.zeros((m, table.shape[0]), dtype=bool)
    found[row[keep], col[keep]] = True
    return _classify([found], table, near, dist, caddr, flag_cap) + ("kdtree",)


# ---------------------------------------------------------------------------
# Window growth until the class count stabilizes


@dataclass
class WindowPolicy:
    initial_radius: Optional[float] = None  # default 50 * R of the source
    growth: float = 2.0
    max_doublings: int = 4


@dataclass
class ProfileEntry:
    T: float
    n_lower: int
    stabilized: bool
    window_radius: float
    total_centers: int


def estimate_R(source: PointSetSource) -> float:
    if source.declared_R is not None:
        return source.declared_R
    from .core import delone_constants

    probe = source.materialize(Region.centered_box(source.dimension, 25.0))
    return delone_constants(probe)[1]


def patch_count_profile(
    source: PointSetSource,
    T_values: Sequence[float],
    policy: Optional[WindowPolicy] = None,
    shape: str = "ball",
) -> List[ProfileEntry]:
    """Patch counts per T, growing the window until the count stops moving.

    Budget exhaustion is not an error; the entry just reports
    stabilized=False at the largest window tried.
    """
    policy = policy or WindowPolicy()
    base = policy.initial_radius
    if base is None:
        base = 50.0 * estimate_R(source)
    cache = {}
    out = []
    for T in T_values:
        if T <= 0:
            raise InvalidArgument("T values must be positive")
        radius = max(base, 2.5 * T)
        prev = None
        entry = None
        for _ in range(policy.max_doublings + 1):
            key = round(radius, 9)
            if key not in cache:
                cache[key] = source.materialize(
                    Region.centered_box(source.dimension, radius)
                )
            atlas = compute_atlas(cache[key], T, shape=shape)
            entry = ProfileEntry(
                T=T,
                n_lower=atlas.n_lower,
                stabilized=(prev == atlas.n_lower),
                window_radius=radius,
                total_centers=atlas.total_centers,
            )
            if entry.stabilized:
                break
            prev = atlas.n_lower
            radius *= policy.growth
        out.append(entry)
    return out


@dataclass
class EntropyReport:
    rows: list  # (T, log N / T^n) for stabilized entries only
    c0_empirical: Optional[float]


def entropy_probe(entries: Sequence[ProfileEntry], dimension: int) -> EntropyReport:
    rows = [
        (e.T, math.log(e.n_lower) / e.T**dimension)
        for e in entries
        if e.stabilized and e.n_lower > 0
    ]
    c0 = max((v for _, v in rows), default=None)
    return EntropyReport(rows=rows, c0_empirical=c0)
