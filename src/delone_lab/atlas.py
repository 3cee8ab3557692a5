"""Patch classification over finite windows.

A T-patch at a center x is the set of points inside the closed ball (or cube)
of size T around x, recorded as integer address differences. Centers are
restricted to the window eroded by the patch size, so every patch is complete
and the class count is a certified lower bound for the infinite set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .core import (
    BALL_TOL,
    ExactPointSet,
    PairIndex,
    Region,
    delone_constants,
    lex_order,
    make_patch_key,
    unique_rows,
)
from .errors import InvalidArgument, WindowTooSmall
from .generators import PointSetSource, _int_grid

WINDOW_R_FACTOR = 50.0  # patch_count_profile: the first window's radius is this times R
WINDOW_GROWTH = 2.0  # and grows by this factor per step
WINDOW_MAX_DOUBLINGS = 4  # for at most this many steps
# _engine_kdtree searches and sets the bits of its centers in blocks of
# about this many (center, neighbour) pairs
ENGINE_BLOCK_PAIRS = 1 << 14


@dataclass
class PatchClass:
    table: np.ndarray = field(repr=False)  # the run's (K, rank) int64 differences, one for all
    rows: np.ndarray  # narrow unsigned rows of the table in the key, in lex order
    center_table: np.ndarray = field(repr=False)  # the point set's (N, rank) addresses, shared
    center_rows: np.ndarray  # narrow unsigned rows of center_table in the class, by address

    @property
    def centers(self) -> np.ndarray:
        """The class's (m, rank) integer addresses, lex sorted."""
        return self.center_table[self.center_rows]

    @property
    def diffs(self) -> np.ndarray:
        """The key's (k, rank) int64 address differences, lex sorted."""
        return self.table[self.rows]

    @property
    def key(self) -> tuple:
        """The patch key: the differences as a sorted tuple of int tuples."""
        return tuple(map(tuple, self.diffs.tolist()))

    def __eq__(self, other) -> bool:
        # by value, as the key tuple and center count a ClassCovering held
        if not isinstance(other, PatchClass):
            return NotImplemented
        return np.array_equal(self.diffs, other.diffs) and np.array_equal(self.centers, other.centers)


@dataclass
class AtlasResult:
    T: float
    shape: str
    certified_region: Region
    classes: List[PatchClass]
    boundary_flag_count: int  # (center, point) pairs within BALL_TOL of the threshold
    engine: str

    @property
    def n_lower(self) -> int:
        return len(self.classes)

    @property
    def total_centers(self) -> int:
        return sum(c.center_rows.size for c in self.classes)

    def keys(self) -> list:
        return [c.key for c in self.classes]

    def class_for(self, key: tuple) -> Optional[PatchClass]:
        key = make_patch_key(key)
        try:
            want = np.array(key, dtype=np.int64)
        except OverflowError:  # no address difference lies past int64
            return None
        return next((c for c in self.classes if np.array_equal(c.diffs, want)), None)


def _erosion_margin(T: float, shape: str, region_kind: str, n: int) -> float:
    if shape == "ball":
        return T
    # cube of side T: half-width per axis, half-diagonal inside a ball window
    return T / 2.0 if region_kind == "box" else (T / 2.0) * math.sqrt(n)


def compute_atlas(ps: ExactPointSet, T: float, shape: str = "ball") -> AtlasResult:
    """Classify all fully visible T-patches in the window: atlas_ladder at
    one T."""
    return atlas_ladder(ps, [T], shape=shape)[0]


def atlas_ladder(
    ps: ExactPointSet, T_values: Sequence[float], shape: str = "ball"
) -> List[AtlasResult]:
    """One atlas per T, in the order of T_values; a repeated T repeats the
    same result.

    shape "ball" uses the closed euclidean ball of radius T; shape "cube"
    uses the axis-aligned closed cube of side T. Membership is decided on
    squared distances with a 1e-9 slack, and near-threshold points are
    counted in boundary_flag_count (they stay included). Classes come in key
    order. A class holds its key and its centers as narrow rows into its
    run's one table of differences and into the point set's addresses, and
    gathers either, or builds the key tuple, only when it is read.

    A rung of a subset of Z^n (n <= 3) with the identity projection goes to
    the lattice engine when the box of its centers, grown by 2T + 1, holds
    at most 64 cells per point; every other rung goes to the kdtree engine.
    Each engine runs once over the rungs it gets: it builds one table of
    address differences at their largest T and refines the classes rung by
    rung, reading only the shell each rung adds at that rung's centers.
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

    # x @ I is x exactly, and contains reads integer rows as floats, so an
    # identity projection needs no positions
    identity = np.array_equal(ps.projection, np.eye(n))
    lattice = identity and n <= 3
    done, runs = {}, {_engine_lattice: [], _engine_kdtree: []}
    for T in sorted(certified):
        mask = certified[T].contains(ps.addresses if identity else ps.points)
        if not mask.any():
            done[T] = AtlasResult(T, shape, certified[T], [], 0, "empty")
            continue
        # the lattice engine scans the centers' box grown by the patch reach
        box = [np.ptp(col[mask]) + 2.0 * T + 1.0 for col in ps.addresses.T]
        fits = lattice and np.prod(box) <= 64 * len(ps)
        runs[_engine_lattice if fits else _engine_kdtree].append((T, certified[T], mask))
    for engine, rungs in runs.items():
        if rungs:
            done.update(_ladder(ps, rungs, shape, engine))
    return [done[T] for T in T_values]


def _thresh2(T, shape):
    return T * T if shape == "ball" else (T / 2.0) ** 2


def _reach_order(table, projection, shape):
    """Stable order of the table's address differences by reach, with the
    sorted reach values.

    The reach of a difference is its squared length for balls and its
    largest squared coordinate for cubes, so a patch of size T holds exactly
    the differences of reach at most _thresh2(T) + BALL_TOL: a prefix.
    """
    per = table.astype(float) @ projection
    per *= per
    reach = per.sum(axis=1) if shape == "ball" else per.max(axis=1)
    order = np.argsort(reach, kind="stable")
    return order, reach[order]


def _ladder(ps, rungs, shape, engine):
    """Atlases of one engine run; rungs are (T, certified region, center
    mask) in increasing T, each mask inside the one before.

    The engine takes the squared largest T, or for the kdtree engine each
    center's reach, the squared T of the largest rung that holds it. It
    returns a table of K address differences within the largest T, in reach
    order, with their reach values, and a reader:
    read(rows, lo, hi) gives, for the centers at those rows (in lex order),
    the byte columns [lo, hi) of their bits packed little-endian, bit j set
    when the center sees difference j within its reach; a rung reads no bit
    past its own. A rung's differences are the prefix [0, k) of the table,
    and its shell is [k_prev, k). A class at a rung is the pair (class at
    the rung before, shell bits), since a T-patch is the patch at the
    smaller T plus its shell, so a rung reads the byte columns
    [k_prev // 8, ceil(k / 8)) at its own centers, and the key bytes of one
    center per class. Only the class ids pass from rung to rung: a byte
    holding bits of two rungs is read by both.
    """
    cidx = np.flatnonzero(rungs[0][2]).astype(np.int32)
    cidx = cidx[lex_order(ps.addresses, cidx)]
    thresh2 = _thresh2(rungs[-1][0], shape)
    if engine is _engine_kdtree and len(rungs) > 1:
        # a center's pairs past its last rung are never read; the lattice
        # engine's table is every offset within the largest T in any case
        thresh2 = np.full(cidx.size, _thresh2(rungs[0][0], shape))
        for T, _, mask in rungs[1:]:
            thresh2[np.take(mask, cidx)] = _thresh2(T, shape)
    table, reach, read, name = engine(ps, cidx, shape, thresh2)
    # every patch holds its own center; the other key invariants (distinct
    # entries of one width, in lex order) hold by construction of the table
    zero = np.flatnonzero(~table.any(axis=1))[:1]  # of reach 0: in the first shell
    lex = lex_order(table)
    ids = np.zeros(cidx.size, dtype=np.int32)
    row_type = np.min_scalar_type(len(ps) - 1)
    k_prev = 0
    out = {}
    for T, certified, mask in rungs:
        t = _thresh2(T, shape)
        k = int(np.searchsorted(reach, t + BALL_TOL, side="right"))
        # lex sorted, as cidx is; np.take reads int32 indices about twice as
        # fast as [] does (numpy 2.4)
        sel = np.flatnonzero(np.take(mask, cidx)).astype(np.int32)
        # the rows (class before, 8-byte words of the shell bits) group into
        # the classes; bits below k_prev repeat the class before, bits past k go
        lo, hi = k_prev >> 3, (k + 7) >> 3
        shell = np.zeros((sel.size, (hi - lo + 7) // 8 * 8), dtype=np.uint8)
        if hi > lo:
            shell[:, : hi - lo] = read(sel, lo, hi)
        if k & 7:
            shell[:, hi - lo - 1] &= (1 << (k & 7)) - 1
        if not k_prev and not (zero.size and np.all(shell[:, zero[0] >> 3] >> (zero[0] & 7) & 1)):
            raise InvalidArgument("patch key must contain the zero vector")
        cls, rep = unique_rows([np.take(ids, sel), *shell.view(np.int64).T])
        rep = sel[rep]  # any center of a class stands for it
        ids[sel] = cls
        k_prev = k
        del shell

        # center rows by class, then by address; narrow ints sort by radix
        order = np.argsort(cls.astype(np.min_scalar_type(cls.max())), kind="stable")
        sizes = np.bincount(cls)
        rows = np.take(cidx, np.take(sel, order)).astype(row_type)
        members = np.split(rows, np.cumsum(sizes)[:-1])
        del cls, order, rows  # the next rung's grouping needs their room

        # a class's key is the differences its center sees, by lex rank; the
        # ranks' big-endian bytes compare as the keys do, a proper prefix first
        cols = lex[lex < k].astype(np.min_scalar_type(k))
        seen = np.unpackbits(read(rep, 0, hi), axis=1, count=k, bitorder="little")[:, cols]
        ranks = [np.flatnonzero(r) for r in seen]
        names = [r.astype(">u4").tobytes() for r in ranks]
        by_key = sorted(range(len(names)), key=names.__getitem__)
        classes = [PatchClass(table, cols[ranks[i]], ps.addresses, members[i]) for i in by_key]

        # near-threshold hits, by reach for both shapes: every center of a class sees its key
        near = np.abs(reach[:k] - t) < BALL_TOL
        flags = int(np.count_nonzero(seen[:, near[cols]], axis=1) @ sizes)
        out[T] = AtlasResult(T, shape, certified, classes, flags, name)
    return out


def _engine_lattice(ps, cidx, shape, thresh2):
    """Identity-projection engine: the offsets within the reach, and a dense
    occupancy array over the centers' box grown by the reach, all that a
    patch can see.

    The reader builds each byte column from eight shifted slices of the
    occupancy array over the box of the centers asked for, then picks it
    out at those centers. When they are few against their box, as the one
    center per class of a key read is, it gathers their cells instead.
    """
    n = ps.dimension
    r = math.floor(math.sqrt(thresh2 + BALL_TOL))
    offs = _int_grid([(-r, r)] * n)
    order, reach = _reach_order(offs, ps.projection, shape)
    k = int(np.searchsorted(reach, thresh2 + BALL_TOL, side="right"))
    offs = offs[order[:k]]

    # the centers' box, one gathered column at a time: numpy reduces a
    # column faster than across a short axis
    gathered = (np.take(col, cidx) for col in ps.addresses.T)
    box = np.array([(c.min(), c.max()) for c in gathered])
    low = box[:, 0] - r
    dims = box[:, 1] + r + 1 - low
    seen = np.all([(c >= a) & (c < a + d) for c, a, d in zip(ps.addresses.T, low, dims)], axis=0)
    occ = np.zeros(tuple(dims), dtype=np.uint8)
    occ[tuple(col[seen] - a for col, a in zip(ps.addresses.T, low))] = 1
    # each center's cell in the occupancy array, one narrow row per axis
    cell = np.empty((n, cidx.size), dtype=np.min_scalar_type(dims.max()))
    for row, col, a in zip(cell, ps.addresses.T, low):
        row[:] = np.take(col, cidx) - a
    step = offs @ occ.strides  # each offset's flat step: a cell is one byte

    def read(rows, lo, hi):
        at = np.take(cell, rows, axis=1)
        start = at.min(axis=1)
        w = tuple(int(d) for d in at.max(axis=1) + 1 - start)  # their box
        # a gathered cell costs some 16 cells of a slice (numpy 2.4)
        if 16 * rows.size < math.prod(w):
            flat = np.ravel_multi_index(at, occ.shape)
            hits = occ.ravel()[flat[:, None] + step[8 * lo : 8 * hi]]
            return np.packbits(hits, axis=1, bitorder="little")
        flat = np.ravel_multi_index(at - start[:, None], w)
        out = np.empty((rows.size, hi - lo), dtype=np.uint8)
        for b in range(lo, hi):
            byte = np.zeros(w, dtype=np.uint8)
            # column 8b + j lands on bit j; doubling is faster than a shift
            for o in offs[8 * b : 8 * b + 8][::-1]:
                byte += byte
                byte |= occ[tuple(slice(s + d, s + d + m) for s, d, m in zip(start, o, w))]
            out[:, b - lo] = byte.ravel()[flat]
        return out

    return offs, reach[:k], read, "lattice"


def _engine_kdtree(ps, cidx, shape, thresh2):
    """Any projection: one PairIndex of the points finds every point within
    reach of each center, in blocks of about ENGINE_BLOCK_PAIRS pairs, and
    the distinct differences are the table's columns. thresh2 is one squared
    reach, or one per center.

    The search runs on positions taken from the addresses less the window's
    smallest, and a pair's offset is its address difference times the
    projection, so neither cost nor precision depends on where the window
    sits. The search reaches 1e-12 past T; differences past T + BALL_TOL sit
    at the end of the table, outside every rung's prefix.

    A block groups its differences with unique_rows, and those met for the
    first time join the table in the order they are met, looked up by their
    bytes. Its bits go into one packed bit matrix of all centers, widened as
    the table grows. After the last block the table is sorted and the bit
    columns are permuted to its order, a row block at a time. The reader
    picks its bytes from that matrix.
    """
    addr = ps.addresses
    pos = (addr - addr.min(axis=0)).astype(float) @ ps.projection
    index = PairIndex(pos, p=np.inf if shape == "cube" else 2.0)
    column = {}  # a difference's row bytes to its table column, in the order met
    row_bytes = np.dtype((np.void, 8 * ps.rank))
    found = []  # the table's rows, block by block, in column order
    bits = np.zeros((cidx.size, 8), dtype=np.uint8)
    rad = np.sqrt(thresh2 + BALL_TOL) * (1 + 1e-12)  # one, or one per center
    # (center row, neighbour) pairs of a block, each center with itself included
    for rows, row, nbr in index.blocks(pos[cidx], rad, ENGINE_BLOCK_PAIRS):
        at = np.take(cidx, rows)
        # column by column: a 2-D gather of the differences is several times slower
        cols = [np.take(c, nbr) - np.take(np.take(c, at), row) for c in addr.T]
        ids, first = unique_rows(cols)
        distinct = np.stack([c[first] for c in cols], axis=1)
        del cols
        k = len(column)
        met = distinct.view(row_bytes).ravel().tolist()
        col = np.array([column.setdefault(r, len(column)) for r in met], dtype=np.int64)
        found.append(distinct[col >= k])
        width = (len(column) + 7) >> 3
        if width > bits.shape[1]:
            wider = np.zeros((cidx.size, max(width, 2 * bits.shape[1])), dtype=np.uint8)
            wider[:, : bits.shape[1]] = bits
            bits = wider
        hit = np.zeros((rows.size, 8 * width), dtype=bool)
        hit.ravel()[row * (8 * width) + np.take(col, ids)] = True  # faster than hit[row, col]
        bits[rows, :width] = np.packbits(hit, axis=1, bitorder="little")
        del ids, hit

    # the distinct differences in lex order, then stably in reach order
    table = np.concatenate(found)
    lex = lex_order(table)
    order, reach = _reach_order(table[lex], ps.projection, shape)
    perm = lex[order]
    table = table[perm]
    bits = bits[:, :width]
    step = max(1, 8 * ENGINE_BLOCK_PAIRS // perm.size)  # rows of one bit per byte
    for r in range(0, cidx.size, step):
        seen = np.unpackbits(bits[r : r + step], axis=1, count=perm.size, bitorder="little")
        seen = np.take(seen, perm, axis=1)  # several times faster than seen[:, perm]
        bits[r : r + step] = np.packbits(seen, axis=1, bitorder="little")
    return table, reach, lambda rows, lo, hi: bits[rows, lo:hi], "kdtree"


# ---------------------------------------------------------------------------
# Window growth until the class count stabilizes


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
    probe = source.materialize(Region.centered_box(source.dimension, 25.0))
    return delone_constants(probe)[1]


def patch_count_profile(
    source: PointSetSource,
    T_values: Sequence[float],
    shape: str = "ball",
) -> List[ProfileEntry]:
    """Patch counts per T, growing the window until the count stops moving.

    Budget exhaustion is not an error; the entry just reports
    stabilized=False at the largest window tried.
    """
    for T in T_values:
        if T <= 0:
            raise InvalidArgument("T values must be positive")
    base = WINDOW_R_FACTOR * estimate_R(source)
    radius = [max(base, 2.5 * T) for T in T_values]
    out, prev, cache = [None] * len(T_values), {}, {}
    pending = range(len(T_values))
    for _ in range(WINDOW_MAX_DOUBLINGS + 1):
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
            radius[i] *= WINDOW_GROWTH
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
