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

from .core import (
    BALL_TOL,
    ExactPointSet,
    Region,
    lex_order,
    make_patch_key,
    narrow_rows,
    row_scalars,
    validate_patch_key,
)
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
    """Classify all fully visible T-patches in the window: atlas_ladder at
    one T."""
    return atlas_ladder(ps, [T], shape=shape, flag_cap=flag_cap)[0]


def atlas_ladder(
    ps: ExactPointSet, T_values: Sequence[float], shape: str = "ball", flag_cap: int = 1000
) -> List[AtlasResult]:
    """One atlas per T, in the order of T_values; a repeated T repeats the
    same result.

    shape "ball" uses the closed euclidean ball of radius T; shape "cube"
    uses the axis-aligned closed cube of side T. Membership is decided on
    squared distances with a 1e-9 slack, and near-threshold points are
    flagged (they stay included). boundary_flags holds the flag_cap smallest
    (center address, distance) pairs of the near-threshold points.

    Subsets of Z^n (n <= 3) with the identity projection go to the lattice
    engine unless their address box is too sparse for an occupancy array;
    every other set goes to the kdtree engine. The test grows with T, so a
    ladder has at most one lattice run and one kdtree run. Each run builds
    one table of address differences at its largest T and refines the
    classes rung by rung, reading only the shell each rung adds.
    """
    if shape not in ("ball", "cube"):
        raise InvalidArgument(f"unknown patch shape {shape!r}")
    n = ps.dimension
    certified = {}
    # errors as a loop over T_values would meet them, the first T first
    for T in T_values:
        if not (T > 0):
            raise InvalidArgument("patch size T must be positive")
        if T not in certified:
            certified[T] = ps.region.erode(_erosion_margin(T, shape, ps.region.kind, n))
        if len(ps) == 0:
            raise WindowTooSmall("cannot build an atlas from an empty window")

    # the occupancy array spans the addresses' box; sparse sets go to kdtree
    box = None
    if ps.rank == n and n <= 3 and np.array_equal(ps.projection, np.eye(n)):
        box = np.ptp(ps.addresses, axis=0)
    done, runs = {}, {_engine_lattice: [], _engine_kdtree: []}
    for T in sorted(certified):
        mask = certified[T].contains(ps.points)
        if not mask.any():
            done[T] = AtlasResult(T, shape, certified[T], [], 0, [], "empty")
            continue
        fits = box is not None and np.prod(box + 2.0 * T + 1.0) <= 64 * len(ps) + (1 << 22)
        runs[_engine_lattice if fits else _engine_kdtree].append((T, certified[T], mask))
    for engine, rungs in runs.items():
        if rungs:
            done.update(_ladder(ps, rungs, shape, flag_cap, engine))
    return [done[T] for T in T_values]


def _thresh2(T, shape):
    return T * T if shape == "ball" else (T / 2.0) ** 2


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


def _ladder(ps, rungs, shape, flag_cap, engine):
    """Atlases of one engine run; rungs are (T, certified region, center
    mask) in increasing T, each mask inside the one before.

    The engine returns a lex-sorted table of K address differences, every
    one within the largest T, and two readers over (center rows, table
    columns): `dense` gives a boolean matrix, `packed` the same rows packed
    into bytes. A rung reads only its shell, the columns inside its T and
    outside the T before, for its own centers. A class at a rung is the
    pair (class at the rung before, shell row), since a T-patch is the
    patch at the smaller T plus its shell.
    """
    base = np.nonzero(rungs[0][2])[0]
    cidx = base[lex_order(ps.addresses[base])]
    caddr = ps.addresses[cidx]
    table, dense, packed, name = engine(ps, cidx, shape, _thresh2(rungs[-1][0], shape))
    entries = list(map(tuple, table.tolist()))
    ids = np.zeros(cidx.size, dtype=np.int64)
    before = np.zeros(table.shape[0], dtype=bool)
    out = {}
    for T, certified, mask in rungs:
        inc, near, dist = _inside(table, ps.projection, shape, _thresh2(T, shape))
        sel = np.nonzero(mask[cidx])[0]  # lex sorted, as cidx is
        shell = np.nonzero(inc & ~before)[0]
        before = inc
        # one 1-D unique per 8-byte word of the shell rows, refining the ids
        cls = np.unique(ids[sel], return_inverse=True)[1]
        if shell.size:
            words = row_scalars(packed(sel, shell)).view(np.uint64).reshape(sel.size, -1)
            for word in words.T:
                word = np.unique(word, return_inverse=True)[1]
                cls = np.unique(cls * sel.size + word, return_inverse=True)[1]
        ids[sel] = cls
        rep = np.empty(int(cls.max()) + 1, dtype=np.intp)
        rep[cls] = sel  # any center of a class stands for it

        cols = np.nonzero(inc)[0]
        keys = []
        for row in dense(rep, cols):
            key = tuple([entries[j] for j in cols[row].tolist()])
            validate_patch_key(key)
            keys.append(key)
        # by class, then by address; narrow ints sort by radix
        order = np.argsort(cls.astype(np.min_scalar_type(cls.max())), kind="stable")
        bounds = np.cumsum(np.bincount(cls))[:-1]
        classes = [
            PatchClass(key=k, centers=c)
            for k, c in zip(keys, np.split(caddr[sel[order]], bounds))
        ]
        classes.sort(key=lambda c: c.key)

        # near hits in (center, column) order: the centers up to the one
        # holding the flag_cap-th hit hold the flag_cap smallest flags
        ncols = np.nonzero(inc & near)[0]
        hits = np.unpackbits(packed(sel, ncols), axis=1, count=ncols.size, bitorder="little")
        per_center = np.cumsum(hits.sum(axis=1))
        total = int(per_center[-1])
        rr, cc = np.nonzero(hits[: np.searchsorted(per_center, flag_cap) + 1])
        flags = sorted(
            (tuple(a), d)
            for a, d in zip(caddr[sel[rr]].tolist(), dist[ncols[cc]].tolist())
        )
        out[T] = AtlasResult(
            T=T,
            shape=shape,
            certified_region=certified,
            classes=classes,
            boundary_flag_count=total,
            boundary_flags=flags[:flag_cap],
            engine=name,
        )
    return out


def _engine_lattice(ps, cidx, shape, thresh2):
    """Identity-projection engine: offset table plus dense occupancy array.

    packed reads each byte column from eight shifted slices of the
    occupancy array over the centers' bounding box, then picks out the
    centers.
    """
    n = ps.dimension
    reach = math.floor(math.sqrt(thresh2 + BALL_TOL))
    rng = np.arange(-reach, reach + 1, dtype=np.int64)
    # "ij" order ravels the offsets lexicographically
    grids = np.meshgrid(*([rng] * n), indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=1)
    offs = offs[_inside(offs, ps.projection, shape, thresh2)[0]]

    # occupancy over the addresses' box grown by reach
    addr = ps.addresses
    lo = addr.min(axis=0) - reach
    dims = addr.max(axis=0) + reach + 1 - lo
    occ = np.zeros(tuple(dims), dtype=np.uint8)
    occ[tuple((addr - lo).T)] = 1
    loc = addr[cidx] - lo
    strides = np.cumprod(np.append(dims[1:], 1)[::-1])[::-1]
    flat, flat_c, flat_o = occ.ravel(), loc @ strides, offs @ strides

    def dense(sel, cols):
        return flat[flat_c[sel][:, None] + flat_o[cols][None, :]].astype(bool)

    # the centers' bounding box in the occupancy array, and each center in it
    a = loc.min(axis=0)
    w = tuple(loc.max(axis=0) + 1 - a)
    at = np.ravel_multi_index(tuple((loc - a).T), w)

    def packed(sel, cols):
        rows = np.empty((sel.size, -(-cols.size // 8)), dtype=np.uint8)
        for b in range(rows.shape[1]):
            byte = np.zeros(w, dtype=np.uint8)
            # column 8b + j lands on bit j; doubling is faster than a shift
            for o in offs[cols[8 * b : 8 * b + 8]][::-1]:
                byte += byte
                byte |= occ[tuple(slice(s, s + k) for s, k in zip(a + o, w))]
            rows[:, b] = byte.ravel()[at[sel]]
        return rows

    return offs, dense, packed, "lattice"


def _engine_kdtree(ps, cidx, shape, thresh2):
    """Any projection: one tree query finds every pair within T, and the
    distinct pair differences, in lex order, are the table's columns.

    The tree holds positions taken from the addresses less the window's
    smallest, and a pair's offset is its address difference times the
    projection, so neither cost nor precision depends on where the window
    sits.
    """
    from scipy.spatial import cKDTree

    addr = ps.addresses
    N, m = len(ps), cidx.size
    rad = math.sqrt(thresh2 + BALL_TOL)
    pairs = cKDTree((addr - addr.min(axis=0)).astype(float) @ ps.projection).query_pairs(
        rad * (1 + 1e-12), p=np.inf if shape == "cube" else 2.0, output_type="ndarray"
    )
    # each center with itself, then every pair in both directions
    row_of = np.full(N, -1, dtype=np.intp)
    row_of[cidx] = np.arange(m)
    row = row_of[np.concatenate([cidx, pairs[:, 0], pairs[:, 1]])]
    nb = np.concatenate([cidx, pairs[:, 1], pairs[:, 0]])
    del pairs
    keep = row >= 0
    row, nb = row[keep], nb[keep]
    diffs = addr[nb] - addr[cidx][row]

    # the distinct differences in lex order, and each pair's column among them
    _, first, col = np.unique(
        row_scalars(narrow_rows(diffs)), return_index=True, return_inverse=True
    )
    table = diffs[first]
    lex = lex_order(table)
    table, col = table[lex], np.argsort(lex)[col]

    def dense(sel, cols):
        r = np.full(m, -1, dtype=np.intp)
        r[sel] = np.arange(sel.size)
        c = np.full(table.shape[0], -1, dtype=np.intp)
        c[cols] = np.arange(cols.size)
        rr, cc = r[row], c[col]
        hit = (rr >= 0) & (cc >= 0)
        found = np.zeros((sel.size, cols.size), dtype=bool)
        found[rr[hit], cc[hit]] = True
        return found

    def packed(sel, cols):
        return np.packbits(dense(sel, cols), axis=1, bitorder="little")

    return table, dense, packed, "kdtree"


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
    for T in T_values:
        if T <= 0:
            raise InvalidArgument("T values must be positive")
    radius = [max(base, 2.5 * T) for T in T_values]
    out, prev, cache = [None] * len(T_values), {}, {}
    pending = range(len(T_values))
    for _ in range(policy.max_doublings + 1):
        # the pending T values that share a window share one atlas ladder
        windows = {}
        for i in pending:
            windows.setdefault(round(radius[i], 9), []).append(i)
        for key, idx in windows.items():
            if key not in cache:
                box = Region.centered_box(source.dimension, radius[idx[0]])
                cache[key] = source.materialize(box)
            ladder = atlas_ladder(cache[key], [T_values[i] for i in idx], shape=shape)
            for i, atlas in zip(idx, ladder):
                stable = prev.get(i) == atlas.n_lower
                out[i] = ProfileEntry(
                    T_values[i], atlas.n_lower, stable, radius[i], atlas.total_centers
                )
                prev[i] = atlas.n_lower
        pending = [i for i in pending if not out[i].stabilized]
        for i in pending:
            radius[i] *= policy.growth
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
