"""Named verification suites over the built-in constructions.

Each suite is a deterministic list of checks. Result details carry values,
never timings or sizes of transient buffers, so two runs with the same seed
render byte-identical output. The CLI `verify` command and the acceptance
tests both drive these suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence

import numpy as np

from .address import (
    build_address_map,
    linear_fit,
    lipschitz_constant,
    meyer_residual,
    path_displacement_distribution,
)
from .atlas import atlas_ladder, compute_atlas
from .contfrac import ContinuedFraction, construct_alpha_for_growth, recurrence_formula
from .core import Region, delone_constants, packing_radius
from .ergodic import (
    density_profile,
    oscillation_probe,
    point_count_weight,
    volume_weight,
)
from .errors import DeloneLabError
from .generators import (
    gen_cut_project_1d,
    gen_deleted_lines,
    gen_fibonacci,
    gen_integer_lattice,
    gen_two_color,
    rho_sequence,
)
from .repetitivity import (
    crystal_gap_probe,
    factor_ranks,
    max_start_gap,
    repetitivity_function,
    repetitivity_ladder,
)
from .spectral import autocorrelation, detect_peaks, diffraction_estimate


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SweepRow:
    generator: str
    dimension: int
    T: float
    n_lower: int
    M_lower: float
    M_upper: float
    r: float
    aperiodic: bool


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


class _Suite:
    """Collects checks; an exception inside a check body fails that check only."""

    def __init__(self, suite: str):
        self.suite = suite
        self.results: List[CheckResult] = []

    def check(self, name: str, body: Callable[[], tuple]):
        try:
            passed, detail = body()
        except (DeloneLabError, AssertionError, ValueError, ArithmeticError) as exc:
            passed, detail = False, "error: %s: %s" % (type(exc).__name__, exc)
        self.results.append(CheckResult(self.suite, name, bool(passed), detail))


# ---------------------------------------------------------------------------
# shared sweep: repetitivity brackets over the built-in constructions


# label -> (source factory, window half-width, T values, aperiodic, resolution)
SWEEP_PLAN = {
    "zn-1": (lambda: gen_integer_lattice(1), 80.0, (2.0, 4.0, 8.0), False, None),
    "zn-2": (lambda: gen_integer_lattice(2), 24.0, (2.0, 4.0), False, 0.05),
    "fibonacci": (gen_fibonacci, 130.0, (1.0, 2.0, 4.0, 8.0), True, None),
    "cut-project": (
        lambda: gen_cut_project_1d(ContinuedFraction.golden()),
        110.0,
        (1.0, 2.0, 4.0),
        True,
        None,
    ),
    "two-color": (
        lambda: gen_two_color(1, [16, 32, 64, 128]),
        130.0,
        (2.0, 4.0, 8.0),
        True,
        None,
    ),
}


def repetitivity_sweep(labels: Sequence[str] = tuple(SWEEP_PLAN)) -> List[SweepRow]:
    """Certified repetitivity brackets for every T of the given plan labels,
    in label order; only those constructions are built."""
    rows: List[SweepRow] = []
    for label in labels:
        factory, half, t_values, aperiodic, resolution = SWEEP_PLAN[label]
        source = factory()
        ps = source.materialize(Region.centered_box(source.dimension, half))
        r = source.declared_r if source.declared_r is not None else packing_radius(ps)
        for T, res in zip(t_values, repetitivity_ladder(ps, t_values, resolution=resolution)):
            rows.append(
                SweepRow(
                    generator=label,
                    dimension=source.dimension,
                    T=T,
                    n_lower=res.n_lower,
                    M_lower=res.M_lower,
                    M_upper=res.M_upper,
                    r=r,
                    aperiodic=aperiodic,
                )
            )
    return rows


def bound_violations(rows: Sequence[SweepRow]) -> List[SweepRow]:
    """Rows where M_upper < r (N^(1/n) - 1), which should never happen."""
    bad = []
    for row in rows:
        lower = row.r * (row.n_lower ** (1.0 / row.dimension) - 1.0)
        if row.M_upper < lower - 1e-9:
            bad.append(row)
    return bad


def crystal_trigger_errors(rows: Sequence[SweepRow]) -> List[str]:
    """Aperiodic rows whose bracket sits entirely below T/3, and lattice rows
    where the small-repetitivity trigger fails to fire.

    The trigger M < T/3 is a sufficient condition, so for a lattice it is only
    expected once T clears three times the covering radius. Repetitivity of a
    periodic set is constant in T, so the smallest certified upper bracket for
    the generator stands in for the covering radius when scoping the check.
    """
    problems = []
    reference: dict = {}
    for row in rows:
        if not row.aperiodic:
            prev = reference.get(row.generator)
            if prev is None or row.M_upper < prev:
                reference[row.generator] = row.M_upper
    for row in rows:
        below = row.M_upper < row.T / 3.0
        if row.aperiodic and below:
            problems.append(
                "%s T=%s bracket [%s, %s] entirely below T/3"
                % (row.generator, _fmt(row.T), _fmt(row.M_lower), _fmt(row.M_upper))
            )
        if not row.aperiodic and not below:
            resolvable = row.T > 3.0 * reference[row.generator] + 1e-9
            if resolvable:
                problems.append(
                    "%s T=%s M_upper=%s fails the crystal trigger"
                    % (row.generator, _fmt(row.T), _fmt(row.M_upper))
                )
    return problems


def cubical_identity_rows(
    labels: Sequence[str] = ("zn-1", "fibonacci", "cut-project", "two-color"),
) -> list:
    """1D plan labels: class count with cube windows of side T vs balls of
    radius T/2. In one dimension the two window shapes coincide."""
    out = []
    for label in labels:
        factory, half, t_values, _, _ = SWEEP_PLAN[label]
        ps = factory().materialize(Region.centered_box(1, half))
        cubes = atlas_ladder(ps, t_values, shape="cube")
        balls = atlas_ladder(ps, [T / 2.0 for T in t_values])
        for T, cube, ball in zip(t_values, cubes, balls):
            out.append((label, T, cube.n_lower, ball.n_lower))
    return out


def bracket_sweep_check(s: "_Suite", label: str):
    """Growth bound and crystal trigger over one label's sweep rows."""

    def body():
        rows = repetitivity_sweep([label])
        bad = bound_violations(rows)
        probs = crystal_trigger_errors(rows)
        ok = not bad and not probs and len(rows) == len(SWEEP_PLAN[label][2])
        return ok, "%d certified T values, %d bound violations, %d trigger errors" % (
            len(rows),
            len(bad),
            len(probs),
        )

    s.check("bracket-sweep", body)


# ---------------------------------------------------------------------------
# words: symbolic recurrence and complexity


def recurrence_cases() -> list:
    """Five irrationals with partial quotients in {1..5}."""
    return [
        ("golden", ContinuedFraction.golden()),
        ("silver", ContinuedFraction([2], extend=lambda k: 2)),
        ("stair", ContinuedFraction([1, 2, 3, 4, 5], extend=lambda k: (k - 1) % 5 + 1)),
        ("mix", ContinuedFraction([3, 1, 4, 1, 5], extend=lambda k: [3, 1, 4, 1, 5][(k - 1) % 5])),
        ("five", ContinuedFraction([5], extend=lambda k: 5)),
    ]


def recurrence_vs_oracle(cf: ContinuedFraction, lengths: Sequence[int]) -> List[str]:
    """Exact mismatches between the convergent-sum formula and a word scan:
    one rank pass over the word, each gap read on the starts of word[:50 l]."""
    word = cf.beatty_word(1, 50 * max(lengths))
    bad = []
    for ell, ranks in factor_ranks(word, lengths):
        formula = recurrence_formula(cf, ell)
        scanned = max_start_gap(ranks[: 49 * ell + 1])
        if formula != scanned:
            bad.append("l=%d formula=%s scan=%s" % (ell, formula, scanned))
    return bad


def sturmian_alphas() -> list:
    """Three badly approximable irrationals (periodic partial quotients)."""
    return [
        ("golden", ContinuedFraction.golden()),
        ("sqrt2-1", ContinuedFraction([2], extend=lambda k: 2)),
        ("alt-12", ContinuedFraction([1, 2], extend=lambda k: 1 if k % 2 == 1 else 2)),
    ]


def word_complexities(cf: ContinuedFraction, ks: Sequence[int]) -> dict:
    """{k: (count, stabilized)} for length-k factors of the symbol sequence.

    Each k's prefix is sized from the recurrence bound so every factor
    occurs; stabilization is confirmed by doubling the prefix. One word and
    one rank pass serve every k.
    """
    prefix = {k: max(64, 2 * (recurrence_formula(cf, k) + k)) for k in ks}
    word = cf.beatty_word(1, 2 * max(prefix.values()))
    out = {}
    for k, ranks in factor_ranks(word, ks):
        first, both = (len(np.unique(ranks[: n * prefix[k] - k + 1])) for n in (1, 2))
        out[k] = (both, first == both)
    return out


# ---------------------------------------------------------------------------
# deleted-lines helpers (shared with the acceptance tests)


def independent_deleted_mask(a: Sequence[int], lo: int, hi: int) -> np.ndarray:
    """Deleted/present mask on the integer cube [lo, hi]^3 built by explicit
    line enumeration, as an independent route to the per-point congruences."""
    side = hi - lo + 1
    level = np.zeros((side, side, side), dtype=np.int64)

    def hits(residue: int, modulus: int) -> list:
        first = lo + (residue - lo) % modulus
        return list(range(first, hi + 1, modulus))

    # Later (coarser) levels overwrite earlier ones, matching the generator's
    # deepest-match rule. Each family fixes two coordinates by congruences.
    for j, aj in enumerate(a, start=1):
        m = 4 * int(aj)
        plus, minus = hits(aj, m), hits(-aj, m)
        for y in plus:
            for z in minus:
                level[:, y - lo, z - lo] = j  # parallel to the x-axis
        for z in plus:
            for x in minus:
                level[x - lo, :, z - lo] = j  # parallel to the y-axis
        for x in plus:
            for y in minus:
                level[x - lo, y - lo, :] = j  # parallel to the z-axis
    return level % 2 == 0  # True = point kept


def _dual_route(ps, a: Sequence[int]) -> tuple:
    """The kept mask of independent_deleted_mask on [-24, 24]^3, and whether
    the points of ps, a window on that cube, are exactly the kept ones."""
    keep = independent_deleted_mask(a, -24, 24)
    got = np.zeros_like(keep)
    got[tuple((ps.addresses + 24).T)] = True
    return keep, np.array_equal(keep, got)


def deleted_lines_checks(s: "_Suite", a1: int):
    source = gen_deleted_lines([a1])
    region = Region.box([(-24, 24)] * 3)
    ps = source.materialize(region)

    def dual_route():
        keep, same = _dual_route(ps, [a1])
        return same, "a1=%d window [-24,24]^3 kept=%d of %d, routes %s" % (
            a1,
            int(keep.sum()),
            keep.size,
            "agree" if same else "DISAGREE",
        )

    s.check("congruences-dual-route-a%d" % a1, dual_route)

    def quadratic_bound():
        parts = []
        ok = True
        ladder = atlas_ladder(ps, [float(T) for T in range(1, a1 + 1)])
        for T, atlas in enumerate(ladder, start=1):
            n = atlas.n_lower
            bound = 12 * T * T
            ok = ok and n <= bound
            parts.append("T=%d N=%d<=%d" % (T, n, bound))
        return ok, "a1=%d %s" % (a1, ", ".join(parts))

    s.check("patch-count-quadratic-bound-a%d" % a1, quadratic_bound)

    def discreteness():
        r = packing_radius(source.materialize(Region.box([(-6, 6)] * 3)))
        return abs(r - 0.5) < 1e-9, "a1=%d min-gap radius %s" % (a1, _fmt(r))

    s.check("uniform-discreteness-a%d" % a1, discreteness)


# ---------------------------------------------------------------------------
# the suites


def suite_lattice(seed: int = 0) -> List[CheckResult]:
    s = _Suite("lattice")
    z1 = gen_integer_lattice(1)
    ps1 = z1.materialize(Region.box([(-80, 80)]))

    def single_class():
        ns = [atlas.n_lower for atlas in atlas_ladder(ps1, (1.0, 3.0, 7.5))]
        return ns == [1, 1, 1], "class counts at T=1,3,7.5: %s" % (ns,)

    s.check("single-patch-class", single_class)

    def bracket_constant():
        res = repetitivity_function(ps1, 5.0)
        good = res.M_lower == 0.5 and res.M_upper == 0.5
        return good, "T=5 bracket [%s, %s]" % (_fmt(res.M_lower), _fmt(res.M_upper))

    s.check("covering-constant", bracket_constant)

    def crystal_fires():
        results = repetitivity_ladder(ps1, (3.0, 6.0, 9.0))
        probe = crystal_gap_probe(results, R=0.5, r=0.5, dimension=1)
        fired = all(row.crystal_by_small_M and row.crystal_by_small_N for row in probe.rows)
        return fired, "verdict: %s" % probe.verdict

    s.check("crystal-trigger", crystal_fires)

    def count_121():
        ps2 = gen_integer_lattice(2).materialize(Region.centered_box(2, 5.0))
        return len(ps2.addresses) == 121, "points in [-5,5]^2: %d" % len(ps2.addresses)

    s.check("window-count-121", count_121)

    def density_volume():
        prof = density_profile(
            volume_weight(1), Region.box([(-400, 400)]), [4.0, 8.0, 16.0], seed=seed
        )
        worst = max(row.delta for row in prof.rows)
        return worst == 0.0, "max delta over U=4,8,16: %s" % _fmt(worst)

    s.check("volume-weight-flat", density_volume)

    def density_count():
        big = z1.materialize(Region.box([(-400, 400)]))
        prof = density_profile(
            point_count_weight(big), Region.box([(-400, 400)]), [4.0, 8.0, 16.0], seed=seed
        )
        pairs = [(row.U, row.delta) for row in prof.rows]
        ok = all(delta <= 2.0 / U + 1e-12 for U, delta in pairs)
        return ok, "deltas vs 2/U: %s" % (
            ", ".join("U=%s %s<=%s" % (_fmt(U), _fmt(d), _fmt(2.0 / U)) for U, d in pairs)
        )

    s.check("count-weight-bracket", density_count)

    def autocorr_frozen():
        win = z1.materialize(Region.box([(-15, 15)]))
        ac = autocorrelation(win, 10.0)
        ok = all(ac.counts.get((float(m),), 0) == 19 - abs(m) for m in range(-18, 19))
        spec = diffraction_estimate(ac, np.array([[0.0], [0.5], [1.0]]))
        vals = spec.intensity
        ok = ok and abs(vals[0] - 18.05) < 1e-9 and abs(vals[2] - 18.05) < 1e-9
        ok = ok and abs(vals[1] - 0.05) < 1e-9
        return ok, "pair counts 19-|m|, intensity at k=0,0.5,1: %s, %s, %s" % (
            _fmt(float(vals[0])),
            _fmt(float(vals[1])),
            _fmt(float(vals[2])),
        )

    s.check("autocorrelation-frozen", autocorr_frozen)

    def peaks_integer():
        win = z1.materialize(Region.box([(-15, 15)]))
        ac = autocorrelation(win, 10.0)
        grid = np.linspace(0.0, 2.0, 401).reshape(-1, 1)
        spec = diffraction_estimate(ac, grid)
        peaks = detect_peaks(spec)
        pitch = 2.0 / 400
        ok = len(peaks) >= 2 and all(
            min(abs(p.k[0] - t) for t in (0.0, 1.0, 2.0)) <= pitch + 1e-12 for p in peaks
        )
        return ok, "peaks at k=%s" % (", ".join(_fmt(float(p.k[0])) for p in peaks))

    s.check("integer-peaks", peaks_integer)

    def address_identity():
        z2 = gen_integer_lattice(2).materialize(Region.centered_box(2, 10.0))
        amap = build_address_map(z2)
        fit = linear_fit(z2, amap)
        lip = lipschitz_constant(z2, amap, seed=seed)
        wd = path_displacement_distribution(z2, amap, 0, 1.0)
        dens = wd.evaluate(np.array([[[0.0, 2.0], [0.0, 2.0]]]))[0] / 4.0
        ok = np.array_equal(amap.basis, np.eye(2, dtype=np.int64))
        ok = ok and fit.proj_residual < 1e-9 and fit.residuals_zero
        ok = ok and abs(lip.value - 1.0) < 1e-9
        ok = ok and np.allclose(dens, [1.0, 0.0], atol=1e-9)
        return ok, "basis identity, proj residual %s, Lipschitz %s, axis density (%s, %s)" % (
            _fmt(fit.proj_residual),
            _fmt(lip.value),
            _fmt(float(dens[0])),
            _fmt(float(dens[1])),
        )

    s.check("address-identity", address_identity)
    return s.results


def suite_fibonacci(seed: int = 0) -> List[CheckResult]:
    s = _Suite("fibonacci")
    source = gen_fibonacci()
    ps = source.materialize(Region.box([(-130, 130)]))

    def word_frozen():
        word = ContinuedFraction.golden().beatty_word(1, 10)
        want = [1, 0, 1, 1, 0, 1, 0, 1, 1, 0]
        return word == want, "b_1..b_10 = %s" % (word,)

    s.check("symbol-word-frozen", word_frozen)

    def recurrence_frozen():
        g = ContinuedFraction.golden()
        got = (recurrence_formula(g, 1), recurrence_formula(g, 3))
        return got == (3, 8), "recurrence at l=1,3: %s" % (got,)

    s.check("recurrence-frozen", recurrence_frozen)

    def three_classes():
        n = compute_atlas(ps, 1.2).n_lower
        return n == 3, "classes at T=1.2: %d" % n

    s.check("three-classes", three_classes)

    bracket_sweep_check(s, "fibonacci")

    def shift_identity():
        res = repetitivity_function(ps, 4.0)
        lo, hi = res.prime()
        ok = lo == res.M_lower + 4.0 and hi == res.M_upper + 4.0
        return ok, "shifted bracket [%s, %s]" % (_fmt(lo), _fmt(hi))

    s.check("shift-identity", shift_identity)

    def address_checks():
        big = source.materialize(Region.box([(-400, 400)]))
        amap = build_address_map(big)
        fit = linear_fit(big, amap)
        rep = meyer_residual(fit)
        ok = amap.rank == 2 and fit.proj_residual < 1e-9 and rep.bounded
        return ok, "rank %d, proj residual %s, annulus variation %s" % (
            amap.rank,
            _fmt(fit.proj_residual),
            _fmt(rep.variation),
        )

    s.check("address-fit", address_checks)

    def cubical_rows():
        rows = cubical_identity_rows(["fibonacci"])
        bad = [row for row in rows if row[2] != row[3]]
        return not bad and rows, "cube-vs-half-ball class counts: %s" % (
            ", ".join("T=%s %d/%d" % (_fmt(T), nc, nb) for _, T, nc, nb in rows)
        )

    s.check("cubical-identity", cubical_rows)
    return s.results


def suite_cut_project(seed: int = 0) -> List[CheckResult]:
    s = _Suite("cut-project")
    source = gen_cut_project_1d(ContinuedFraction.golden())
    ps = source.materialize(Region.box([(-110, 110)]))

    def gaps_bounded():
        x = np.sort(ps.points[:, 0])
        gaps = np.diff(x)
        lo, hi = float(gaps.min()), float(gaps.max())
        ok = lo > 1.0 / math.sqrt(2.0) and hi < math.sqrt(2.0)
        return ok, "gap range [%s, %s] inside (1/sqrt2, sqrt2)" % (_fmt(lo), _fmt(hi))

    s.check("gap-bounds", gaps_bounded)

    def word_matches_symbols():
        # The two gaps adjacent to the origin swap order (strip phase); compare
        # the gap word to the symbol sequence away from that seam.
        x = np.sort(ps.points[:, 0])
        gaps = np.diff(x)
        norm = source.extras["norm"]
        # classify each gap by the midpoint between the two exact gap values
        mid = (1.0 + source.extras["alpha_float"] / 2.0) / norm
        word = (gaps > mid).astype(int).tolist()
        i0 = int(np.argmin(np.abs(x)))
        tail = word[i0 + 2 : i0 + 42]
        cf = ContinuedFraction.golden()
        want = cf.beatty_word(2, len(tail))
        ok = tail == want and len(tail) == 40
        return ok, "40 symbols beyond the seam match the Beatty word"

    s.check("gap-word", word_matches_symbols)

    bracket_sweep_check(s, "cut-project")

    def declared_constants():
        r, R = delone_constants(ps)
        rd, Rd = source.declared_r, source.declared_R
        ok = abs(r - rd) < 1e-6 and R <= Rd + 1e-6
        return ok, "measured (r, R) = (%s, %s) vs declared (%s, %s)" % (
            _fmt(r),
            _fmt(R),
            _fmt(rd),
            _fmt(Rd),
        )

    s.check("delone-constants", declared_constants)
    return s.results


def suite_deleted_lines(seed: int = 0) -> List[CheckResult]:
    s = _Suite("deleted-lines")
    for a1 in (2, 4):
        deleted_lines_checks(s, a1)

    def two_level():
        ps = gen_deleted_lines([4, 20]).materialize(Region.box([(-24, 24)] * 3))
        same = _dual_route(ps, [4, 20])[1]
        return same, "levels (4, 20) dual routes %s" % ("agree" if same else "DISAGREE")

    s.check("two-level-dual-route", two_level)
    return s.results


def suite_two_color(seed: int = 0) -> List[CheckResult]:
    s = _Suite("two-color")
    source = gen_two_color(1, [16, 32, 64, 128])
    structure = source.extras["structure"]

    def pattern_frozen():
        pat = "".join("W" if w else "B" for w in structure.cell_is_white(np.arange(16)))
        return pat == "WWWBBWBBBBBBBBBB", "first-scale cells: %s" % pat

    s.check("pattern-frozen", pattern_frozen)

    def proportions_exact():
        recursion, closed = rho_sequence(1, [16, 32, 64, 128])
        count_ok = True
        side = 1
        details = []
        for k in range(1, 5):
            side *= [16, 32, 64, 128][k - 1]
            whites = structure.white_count_in_box([0], [side])
            exact = Fraction(whites, side)
            count_ok = count_ok and exact == closed[k] == recursion[k]
            details.append("s_%d: %d/%d" % (k, whites, side))
        return count_ok, "white proportions %s match both routes" % ("; ".join(details))

    s.check("proportions-exact", proportions_exact)

    def oscillation_floor():
        rep = oscillation_probe(source, source.extras["scales"])
        ok = bool(rep.exceeds_floor) and rep.floor > 0.0
        return ok, "oscillation %s exceeds product floor %s" % (
            _fmt(rep.oscillation),
            _fmt(rep.floor),
        )

    s.check("oscillation-floor", oscillation_floor)

    def coded_points():
        ps = source.materialize(Region.box([(-40, 40)]))
        is_white = source.extras["is_white_address"](ps.addresses)
        cells = np.round(ps.points[is_white, 0]).astype(np.int64)
        agree = bool(np.all(structure.cell_is_white(cells)))
        r = packing_radius(ps)
        ok = agree and abs(r - 1.0 / 6.0) < 1e-9
        return ok, "white addresses map to white cells; min-gap radius %s" % _fmt(r)

    s.check("coded-points", coded_points)

    bracket_sweep_check(s, "two-color")
    return s.results


def suite_words(seed: int = 0) -> List[CheckResult]:
    s = _Suite("words")

    def formula_vs_scan():
        lengths = list(range(1, 61))
        mismatches = []
        for label, cf in recurrence_cases():
            bad = recurrence_vs_oracle(cf, lengths)
            mismatches.extend("%s %s" % (label, b) for b in bad)
        return not mismatches, "5 irrationals, l=1..60: %d mismatches" % len(mismatches)

    s.check("recurrence-formula-vs-scan", formula_vs_scan)

    def complexity():
        bad = []
        for label, cf in sturmian_alphas():
            for k, (count, stab) in word_complexities(cf, range(1, 31)).items():
                if not stab or count != k + 1:
                    bad.append("%s k=%d count=%d stabilized=%s" % (label, k, count, stab))
        return not bad, "3 irrationals, k=1..30: %d deviations from k+1" % len(bad)

    s.check("sturmian-complexity", complexity)

    def growth_table():
        built = construct_alpha_for_growth(lambda q: float(q * q), 8)
        ok = all(row[2] > row[3] for row in built.table)
        return ok, "recurrence column beats g(q) on all %d rows" % len(built.table)

    s.check("growth-construction", growth_table)
    return s.results


SUITES = {
    "lattice": suite_lattice,
    "fibonacci": suite_fibonacci,
    "cut-project": suite_cut_project,
    "deleted-lines": suite_deleted_lines,
    "two-color": suite_two_color,
    "words": suite_words,
}

def run_suite(name: str, seed: int = 0) -> List[CheckResult]:
    if name == "all":
        out: List[CheckResult] = []
        for suite in SUITES.values():
            out.extend(suite(seed))
        return out
    if name not in SUITES:
        raise KeyError("unknown suite %r; have %s" % (name, ", ".join(list(SUITES) + ["all"])))
    return SUITES[name](seed)


def render_lines(results: Sequence[CheckResult]) -> List[str]:
    lines = []
    for res in results:
        lines.append(
            "[%s] %s/%s: %s" % ("PASS" if res.passed else "FAIL", res.suite, res.name, res.detail)
        )
    failed = sum(1 for r in results if not r.passed)
    lines.append("%d checks, %d failed" % (len(results), failed))
    return lines
