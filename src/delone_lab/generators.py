"""Point-set constructions with exact integer addresses.

Each generator returns a PointSetSource: a recipe that lists candidate
addresses for any region, from which materialize keeps the points that
Region.contains accepts. So materializing a subregion of a larger window,
box or ball, yields exactly the points of the larger window that fall in
the subregion.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .contfrac import ContinuedFraction
from .core import REGION_SLACK, ExactPointSet, Region
from .errors import InvalidArgument, WindowTooSmall

GOLDEN_TAU = (1.0 + math.sqrt(5.0)) / 2.0


class PointSetSource:
    """A named construction that can be materialized on demand.

    The projection has shape (rank, dimension), as in ExactPointSet.
    candidates(region) returns int64 addresses, one row each, among them
    every point of the construction in region.extent(); it may return more.
    materialize keeps the rows whose points region.contains accepts, the one
    window-membership rule of every construction.
    """

    def __init__(
        self,
        name: str,
        params: dict,
        projection: np.ndarray,
        candidates: Callable[[Region], np.ndarray],
        declared_r: Optional[float] = None,
        declared_R: Optional[float] = None,
        extras: Optional[dict] = None,
    ):
        self.name = name
        self.params = params
        self.projection = np.asarray(projection, dtype=float)
        self.rank, self.dimension = self.projection.shape
        self._candidates = candidates
        self.declared_r = declared_r
        self.declared_R = declared_R
        self.extras = extras or {}

    def materialize(self, region: Region) -> ExactPointSet:
        if region.dimension != self.dimension:
            raise InvalidArgument(
                f"{self.name} lives in dimension {self.dimension}, "
                f"got a region of dimension {region.dimension}"
            )
        addr = self._candidates(region)
        # x @ I is x exactly, and contains reads integer rows as floats
        identity = np.array_equal(self.projection, np.eye(self.dimension))
        inside = region.contains(addr if identity else addr.astype(float) @ self.projection)
        if not inside.all():
            # np.compress: boolean indexing of 2-D rows is some 7 times slower
            addr = np.compress(inside, addr, axis=0)
        return ExactPointSet(self.dimension, self.rank, self.projection, addr, region)

    def descriptor(self) -> dict:
        return {"set": self.name, "params": self.params}


def _int_axes(intervals: Iterable[Sequence[float]]) -> list:
    """Per axis, the integers in one closed interval of a product."""
    return [np.arange(math.ceil(a), math.floor(b) + 1, dtype=np.int64) for a, b in intervals]


def _int_grid(intervals: Iterable[Sequence[float]]) -> np.ndarray:
    """All integer vectors in a product of closed intervals, lex order."""
    axes = _int_axes(intervals)
    out = np.empty((math.prod(ax.size for ax in axes), len(axes)), dtype=np.int64)
    # each column filled in place through a view of the grid's shape
    grid = out.reshape(*(ax.size for ax in axes), len(axes))
    for k, ax in enumerate(axes):
        grid[..., k] = ax.reshape([-1 if j == k else 1 for j in range(len(axes))])
    return out


# ---------------------------------------------------------------------------
# Z^n, optionally with deleted sites


def gen_integer_lattice(n: int, deletions: Iterable[Sequence[int]] = ()) -> PointSetSource:
    if n < 1:
        raise InvalidArgument("dimension must be >= 1")
    dels = {tuple(int(c) for c in d) for d in deletions}
    for d in dels:
        if len(d) != n:
            raise InvalidArgument(f"deletion {d} has wrong dimension")

    def candidates(region: Region) -> np.ndarray:
        pts = _int_grid(region.extent())
        if dels:
            keep = np.ones(pts.shape[0], dtype=bool)
            for hole in dels:
                keep &= np.any(pts != hole, axis=1)
            pts = pts[keep]
        return pts

    return PointSetSource(
        name="zn",
        params={"n": n, "deletions": sorted(map(list, dels))},
        projection=np.eye(n),
        candidates=candidates,
        declared_r=0.5,
        declared_R=math.sqrt(n) / 2.0 if not dels else None,
    )


# ---------------------------------------------------------------------------
# Beatty sequences: gaps 1 and tau driven by b_k = floor((k+1)a) - floor(ka)


def gen_beatty(alpha, tau: float) -> PointSetSource:
    cf = ContinuedFraction.parse(alpha)
    tau = float(tau)
    if not (tau > 1.0) or not math.isfinite(tau):
        raise InvalidArgument("tau must be a finite number > 1")

    # After i steps from x_0 = 0 the chain has taken v = floor(i alpha) long
    # gaps and u = i - v unit gaps, so x_i = u + tau v for every integer i.
    slope = 1.0 + (tau - 1.0) * cf.value_float()

    def x_of(i: int) -> float:
        v = int(cf.floor_multiples([i])[0])
        return (i - v) + tau * v

    def candidates(region: Region) -> np.ndarray:
        ((a, b),) = region.extent()
        # index range from the mean slope, widened until both exact end
        # points lie outside the extent; x_i increases with i
        lo, hi = math.floor(a / slope), math.ceil(b / slope)
        step = 1
        while x_of(lo) >= a:
            lo, step = lo - step, 2 * step
        step = 1
        while x_of(hi) <= b:
            hi, step = hi + step, 2 * step
        i = np.arange(lo, hi + 1, dtype=np.int64)
        v = cf.floor_multiples(i)
        return np.stack([i - v, v], axis=1)

    return PointSetSource(
        name="beatty",
        params={"alpha": _alpha_param(alpha), "tau": tau},
        projection=np.array([[1.0], [tau]]),
        candidates=candidates,
        declared_r=0.5,
        declared_R=tau / 2.0,
    )


def gen_fibonacci() -> PointSetSource:
    """Golden-alpha Beatty chain with the golden long gap."""
    return gen_beatty("golden", GOLDEN_TAU)


def _alpha_param(alpha) -> str:
    if isinstance(alpha, ContinuedFraction):
        return "cf:" + ",".join(str(alpha.quotient(k)) for k in range(1, alpha.known_terms() + 1))
    return str(alpha)


# ---------------------------------------------------------------------------
# Cut-and-project from Z^2: select (m, p) with p - alpha m in [0, 1)


def gen_cut_project_1d(alpha) -> PointSetSource:
    cf = ContinuedFraction.parse(alpha)
    if cf.is_rational:
        raise InvalidArgument(
            "cut-and-project needs an irrational alpha; rational slopes put "
            "lattice points on the window boundary"
        )
    af = cf.value_float()
    norm = math.sqrt(1.0 + af * af)

    def candidates(region: Region) -> np.ndarray:
        ((a, b),) = region.extent()
        m = np.arange(math.floor(a / norm) - 2, math.ceil(b / norm) + 3, dtype=np.int64)
        # p = ceil(alpha m), which is floor(alpha m) + 1 for m != 0
        p = np.where(m == 0, 0, cf.floor_multiples(m) + 1)
        return np.stack([m, p], axis=1)

    return PointSetSource(
        name="cut_project",
        params={"alpha": _alpha_param(alpha)},
        projection=np.array([[1.0 / norm], [af / norm]]),
        candidates=candidates,
        declared_r=0.5 / norm,
        declared_R=(1.0 + af) / (2.0 * norm),
        extras={"alpha_float": af, "norm": norm},
    )


# ---------------------------------------------------------------------------
# Products


def gen_product(factors: Sequence[PointSetSource]) -> PointSetSource:
    factors = list(factors)
    if len(factors) < 2:
        raise InvalidArgument("product needs at least 2 factors")
    proj = np.zeros((sum(f.rank for f in factors), sum(f.dimension for f in factors)))
    ro = co = 0
    for f in factors:
        proj[ro : ro + f.rank, co : co + f.dimension] = f.projection
        ro += f.rank
        co += f.dimension

    def candidates(region: Region) -> np.ndarray:
        # the cartesian product of each factor's points in its share of the extent
        ivs = region.extent()
        addr = np.zeros((1, 0), dtype=np.int64)
        off = 0
        for f in factors:
            sub = f.materialize(Region.box(ivs[off : off + f.dimension])).addresses
            off += f.dimension
            left = np.repeat(addr, sub.shape[0], axis=0)
            addr = np.concatenate([left, np.tile(sub, (addr.shape[0], 1))], axis=1)
        return addr

    rs = [f.declared_r for f in factors]
    Rs = [f.declared_R for f in factors]
    return PointSetSource(
        name="product",
        params={"factors": [f.descriptor() for f in factors]},
        projection=proj,
        candidates=candidates,
        declared_r=min(rs) if all(r is not None for r in rs) else None,
        declared_R=math.sqrt(sum(R * R for R in Rs)) if all(R is not None for R in Rs) else None,
    )


# ---------------------------------------------------------------------------
# Z^3 with nested families of deleted and restored lines


def _deleted_lines_levels(x, y, z, a: Sequence[int]) -> np.ndarray:
    """Deepest level j whose line family contains each point (0 if none), of
    integer coordinates x, y, z that broadcast together: the columns of
    points, or the axes of a grid.

    Level j removes (j odd) or restores (j even) three line families, one per
    axis, with transverse residues +-a_j mod 4 a_j arranged cyclically.
    """
    lvl = np.zeros(np.broadcast_shapes(x.shape, y.shape, z.shape), np.min_scalar_type(len(a)))
    for j, aj in enumerate(a, start=1):
        m = 4 * aj
        on_x = ((y - aj) % m == 0) & ((z + aj) % m == 0)
        on_y = ((z - aj) % m == 0) & ((x + aj) % m == 0)
        on_z = ((x - aj) % m == 0) & ((y + aj) % m == 0)
        lvl[on_x | on_y | on_z] = j
    return lvl


def gen_deleted_lines(a: Sequence[int]) -> PointSetSource:
    a = [int(v) for v in a]
    if not a or a[0] < 1:
        raise InvalidArgument("need a_1 >= 1")
    for prev, cur in zip(a, a[1:]):
        q, rem = divmod(cur, prev)
        if rem != 0 or q < 5 or (q - 1) % 4 != 0:
            raise InvalidArgument(
                f"a must grow by factors of the form 4b+1 with b >= 1, got {cur}/{prev}"
            )

    def levels(pts) -> np.ndarray:
        return _deleted_lines_levels(*np.asarray(pts, np.int64).T, a)

    def candidates(region: Region) -> np.ndarray:
        # the level mask over the grid's axes, and the kept rows one x-plane
        # at a time, in lex order
        axes = _int_axes(region.extent())
        keep = _deleted_lines_levels(*np.ix_(*axes), a) % 2 == 0
        out = np.empty((int(np.count_nonzero(keep)), 3), dtype=np.int64)
        s = 0
        for x, plane in zip(axes[0], keep):
            yi, zi = np.nonzero(plane)
            e = s + yi.size
            out[s:e, 0] = x
            out[s:e, 1] = axes[1][yi]
            out[s:e, 2] = axes[2][zi]
            s = e
        return out

    return PointSetSource(
        name="deleted_lines",
        params={"a": list(a)},
        projection=np.eye(3),
        candidates=candidates,
        declared_r=0.5,
        declared_R=math.sqrt(5.0) / 2.0,
        extras={
            "levels": levels,
            "present": lambda pts: levels(pts) % 2 == 0,
        },
    )


# ---------------------------------------------------------------------------
# Hierarchical two-colorings of Z^n and their coded point sets


def _exact_even_root(a: int, n: int) -> int:
    m = round(a ** (1.0 / n))
    for cand in range(max(2, m - 2), m + 3):
        if cand**n == a:
            if cand % 2:
                raise InvalidArgument(f"a_k = {a} must be an even n-th power")
            return cand
    raise InvalidArgument(f"a_k = {a} is not an exact n-th power")


class TwoColorStructure:
    """Level-K hierarchical coloring of Z^n cells.

    Cells in [0, side_K)^n follow the nested block construction; negative
    coordinates mirror via c -> -1 - c. Each level packs 2^(2^n) vertex-type
    blocks into the lowest slots (lex order) and fills the rest with the
    inverted tile, so exactly N/2 slots per level carry the upright tile.
    """

    def __init__(self, n: int, a: Sequence[int]):
        if n < 1:
            raise InvalidArgument("dimension must be >= 1")
        self.n = n
        self.N = 2 ** (2**n + n)
        self.a = [int(v) for v in a]
        if not self.a:
            raise InvalidArgument("need at least one level")
        for v in self.a:
            if v <= self.N:
                raise InvalidArgument(f"need a_k > N = {self.N}, got {v}")
        self.m = [_exact_even_root(v, n) for v in self.a]
        self.sides = [1]
        for mk in self.m:
            self.sides.append(self.sides[-1] * mk)  # sides[k] = cells per edge of C_k
        self._white_tiles: dict = {}  # level -> white tile coordinates

    @property
    def levels(self) -> int:
        return len(self.a)

    def _pattern_black(self, t: np.ndarray, m: int) -> np.ndarray:
        """Black mask for tile coordinates t in [0, m)^n at one level."""
        slot = t >> 1
        corner = t & 1
        half = m // 2
        slot_idx = np.zeros(t.shape[0], dtype=np.int64)
        corner_idx = np.zeros(t.shape[0], dtype=np.int64)
        for i in range(self.n):
            slot_idx = slot_idx * half + slot[:, i]
            corner_idx = corner_idx * 2 + corner[:, i]
        n_corners = 2**self.n
        in_blocks = slot_idx < 2**n_corners
        shift = (n_corners - 1 - corner_idx).astype(np.int64)
        bits = (slot_idx >> shift) & 1
        return np.where(in_blocks, bits == 1, True)

    def cell_is_white(self, cells: np.ndarray) -> np.ndarray:
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim == 1:
            cells = cells.reshape(-1, self.n)
        x = np.where(cells < 0, -1 - cells, cells)
        if x.size and int(x.max()) >= self.sides[-1]:
            raise WindowTooSmall(
                f"cells reach beyond level {self.levels} "
                f"(side {self.sides[-1]}); construct more levels"
            )
        inv = np.zeros(x.shape[0], dtype=bool)
        for k in range(self.levels, 1, -1):
            side = self.sides[k - 1]
            t = x // side
            x = x % side
            inv ^= self._pattern_black(t, self.m[k - 1])
        base = self._pattern_black(x, self.m[0])
        return ~(base ^ inv)

    def _white_tile_coords(self, k: int) -> np.ndarray:
        """Coordinates of the white tiles of the level-k tile, from _pattern_black."""
        if k not in self._white_tiles:
            m = self.m[k - 1]
            t = np.indices((m,) * self.n).reshape(self.n, -1).T
            self._white_tiles[k] = t[~self._pattern_black(t, m)]
        return self._white_tiles[k]

    def _parity_counts(self, k: int, x: tuple, memo: dict) -> tuple:
        """(even, odd) cells of prod [0, x_i) by the parity of their black
        digits at levels 1..k, for 0 < x_i <= sides[k]."""
        if k == 0:
            return 1, 0
        if (k, x) in memo:
            return memo[k, x]
        side = self.sides[k - 1]
        white_tiles = self._white_tile_coords(k)
        # per axis: the whole tiles [0, q) with a full sub-side, then the
        # partial tile [q, q + 1) holding the remainder r
        parts = []
        for xi in x:
            q, r = divmod(xi, side)
            parts.append([p for p in ((0, q, side), (q, q + 1, r)) if p[1] > p[0] and p[2]])
        even = odd = 0
        for slab in itertools.product(*parts):
            lo = np.array([p[0] for p in slab])
            hi = np.array([p[1] for p in slab])
            tiles = math.prod(p[1] - p[0] for p in slab)
            inside = np.all((white_tiles >= lo) & (white_tiles < hi), axis=1)
            white = int(np.count_nonzero(inside))
            black = tiles - white
            e, o = self._parity_counts(k - 1, tuple(p[2] for p in slab), memo)
            even += white * e + black * o
            odd += white * o + black * e
        memo[k, x] = (even, odd)
        return even, odd

    def white_count_in_box(self, lo: Sequence[int], hi: Sequence[int]) -> int:
        """Exact number of white cells c with lo <= c < hi per axis.

        A cell is white iff an even number of its level digits are black, so
        the count is a digit recursion over whole tiles: a prefix box
        prod [0, x_i) splits at each level into whole tiles and one partial
        tile per axis, and a black tile swaps the (even, odd) counts of the
        level below. Each axis of the box folds through the mirror
        c -> -1 - c into at most two intervals of [0, side_K), each a
        difference of two prefixes, combined by inclusion-exclusion. The work
        does not depend on where the box sits or how large it is; each level's
        tile pattern is classified once per structure and kept.

        The black tiles of each level are read from _pattern_black over that
        level's own tile, never from N, a_k or rho, so the count stays an
        independent check of the closed-form proportions.
        """
        lo = [int(v) for v in lo]
        hi = [int(v) for v in hi]
        if len(lo) != self.n or len(hi) != self.n:
            raise InvalidArgument(f"box corners must have {self.n} coordinates")
        if any(h <= l for l, h in zip(lo, hi)):
            return 0
        # each axis folds farthest at l or h - 1: the corners raise past level K
        self.cell_is_white(np.array([lo, [h - 1 for h in hi]]))
        # per axis, the folded intervals as a signed sum of prefixes [0, e)
        terms = []
        for l, h in zip(lo, hi):
            folded = [(a, b) for a, b in ((max(l, 0), h), (max(-h, 0), -l)) if b > a]
            terms.append([(b, 1) for _, b in folded] + [(a, -1) for a, _ in folded if a])
        white, memo = 0, {}
        for combo in itertools.product(*terms):
            even, _ = self._parity_counts(self.levels, tuple(e for e, _ in combo), memo)
            white += math.prod(c for _, c in combo) * even
        return white

    def rho(self, k: int) -> Fraction:
        val = Fraction(1, 2) + Fraction((-1) ** k, 2) * self.partial_product(k)
        return val

    def partial_product(self, k: int) -> Fraction:
        out = Fraction(1)
        for j in range(k):
            out *= 1 - Fraction(self.N, self.a[j])
        return out


def rho_sequence(n: int, a: Sequence[int]) -> tuple:
    """White-cell proportions rho_0..rho_K, by recursion and closed form.

    Both routes are computed independently and must agree exactly; the pair
    of lists is returned so callers can re-check.
    """
    st = TwoColorStructure(n, a)
    N = st.N
    rec = [Fraction(1)]
    for ak in st.a:
        w = Fraction(N, 2 * ak)
        rec.append(w * rec[-1] + (1 - w) * (1 - rec[-1]))
    closed = [st.rho(k) for k in range(st.levels + 1)]
    if rec != closed:
        raise AssertionError("recursion and closed form disagree")
    return rec, closed


def gen_two_color(n: int, a: Sequence[int]) -> PointSetSource:
    st = TwoColorStructure(n, a)

    # address basis: row 0 spans the pair offset direction, rows 1..n-1 are
    # plain lattice steps. A cell c maps to first coordinate 3*c_1 (white)
    # or 3*c_1 -+ 1 (black pair), so whiteness is first coordinate mod 3.
    proj = np.zeros((n, n))
    proj[0, :] = 1.0 / 3.0
    for i in range(1, n):
        proj[i, i] = 1.0

    def addr_of_cells(cells: np.ndarray, shift: int) -> np.ndarray:
        out = np.empty_like(cells)
        out[:, 0] = 3 * cells[:, 0] + shift
        for i in range(1, n):
            out[:, i] = cells[:, i] - cells[:, 0]
        return out

    def candidates(region: Region) -> np.ndarray:
        # each point lies within 1/3 of its cell on every axis, give or take
        # the roundoff that REGION_SLACK absorbs
        reach = 1.0 / 3.0 + REGION_SLACK
        cells = _int_grid((a_ - reach, b_ + reach) for a_, b_ in region.extent())
        white = st.cell_is_white(cells)
        return np.concatenate(
            [
                addr_of_cells(cells[white], 0),
                addr_of_cells(cells[~white], -1),
                addr_of_cells(cells[~white], +1),
            ],
            axis=0,
        )

    return PointSetSource(
        name="two_color",
        params={"n": n, "a": list(st.a), "coding": "pair-offset"},
        projection=proj,
        candidates=candidates,
        declared_r=1.0 / 6.0,
        declared_R=None,
        extras={
            "structure": st,
            "scales": st.sides[1:],
            "is_white_address": lambda addr: np.asarray(addr)[:, 0] % 3 == 0,
        },
    )


# ---------------------------------------------------------------------------
# Registry used by the CLI and the verification harness


def build_source(name: str, params: Optional[dict] = None) -> PointSetSource:
    params = dict(params or {})
    try:
        if name == "zn":
            return gen_integer_lattice(
                int(params.get("n", 1)), params.get("deletions", ())
            )
        if name == "beatty":
            return gen_beatty(
                params.get("alpha", "golden"), float(params.get("tau", GOLDEN_TAU))
            )
        if name == "fibonacci":
            return gen_fibonacci()
        if name == "cut_project":
            return gen_cut_project_1d(params.get("alpha", "golden"))
        if name == "deleted_lines":
            return gen_deleted_lines(params.get("a", [4]))
        if name == "two_color":
            return gen_two_color(
                int(params.get("n", 1)), params.get("a", [16, 32, 64, 128])
            )
        if name == "product":
            factors = [
                build_source(f["set"], f.get("params")) for f in params.get("factors", [])
            ]
            return gen_product(factors)
    except (TypeError, KeyError, ValueError) as exc:
        raise InvalidArgument(f"bad parameters for {name!r}: {exc}") from exc
    raise InvalidArgument(f"unknown set name {name!r}")
