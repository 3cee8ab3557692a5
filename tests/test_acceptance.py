"""End-to-end acceptance checks over the whole library.

Each test prints exactly one [PASS]/[FAIL] line so the run can be audited
from the console, then asserts. Frozen numbers in here were derived by hand
or by the independent oracle routes in the other test modules.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import delone_lab.address as address_mod
from delone_lab.address import (
    build_address_map,
    linear_fit,
    lipschitz_constant,
    meyer_residual,
    path_displacement_distribution,
)
from delone_lab.atlas import compute_atlas
from delone_lab.contfrac import ContinuedFraction, is_badly_approximable
from delone_lab.core import Region
from delone_lab.ergodic import density_profile, point_count_weight, volume_weight
from delone_lab.generators import (
    TwoColorStructure,
    gen_cut_project_1d,
    gen_deleted_lines,
    gen_fibonacci,
    gen_integer_lattice,
    gen_two_color,
    rho_sequence,
)
from delone_lab.repetitivity import crystal_gap_probe, repetitivity_function
from delone_lab.spectral import autocorrelation, detect_peaks, diffraction_estimate
from delone_lab.verify import (
    bound_violations,
    crystal_trigger_errors,
    cubical_identity_rows,
    independent_deleted_mask,
    recurrence_cases,
    recurrence_vs_oracle,
    repetitivity_sweep,
    sturmian_alphas,
    word_complexities,
)


def report(num: int, ok: bool, detail: str) -> None:
    print("\n[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_01_recurrence_formula_matches_word_scan():
    t0 = time.monotonic()
    cases = recurrence_cases()
    problems = []
    for name, cf in cases:
        if not is_badly_approximable(cf, 60, bound=5).bounded:
            problems.append("%s has a partial quotient above 5" % name)
        if min(cf.quotient(k) for k in range(1, 61)) < 1:
            problems.append("%s has a partial quotient below 1" % name)
        problems += ["%s %s" % (name, m) for m in recurrence_vs_oracle(cf, range(1, 61))]
    elapsed = time.monotonic() - t0
    ok = len(cases) == 5 and not problems and elapsed < 10.0
    report(
        1,
        ok,
        "convergent-sum formula vs brute word scan, 5 irrationals, l=1..60: "
        "%d mismatches, %.1fs (budget 10s)" % (len(problems), elapsed),
    )


def test_02_sturmian_complexity_is_k_plus_1():
    t0 = time.monotonic()
    alphas = sturmian_alphas()
    bad = []
    for name, cf in alphas:
        if not is_badly_approximable(cf, 60, bound=5).bounded:
            bad.append("%s quotients not bounded" % name)
        complexities = word_complexities(cf, range(1, 31))
        for k in range(1, 31):
            count, stabilized = complexities[k]
            if count != k + 1 or not stabilized:
                bad.append("%s k=%d count=%d stabilized=%s" % (name, k, count, stabilized))
    elapsed = time.monotonic() - t0
    ok = len(alphas) == 3 and not bad and elapsed < 30.0
    report(
        2,
        ok,
        "distinct length-k windows = k+1 for k=1..30 on 3 bounded-quotient "
        "irrationals: %d deviations, %.1fs (budget 30s)" % (len(bad), elapsed),
    )


def test_03_lower_bound_inequality_holds_on_sweep():
    rows = repetitivity_sweep()
    violations = bound_violations(rows)
    # recompute the inequality here rather than trusting the helper
    recheck = [
        r
        for r in rows
        if r.M_upper < r.r * (r.n_lower ** (1.0 / r.dimension) - 1.0) - 1e-9
    ]
    ok = len(rows) == 15 and not violations and not recheck
    report(
        3,
        ok,
        "M_upper >= r(N^(1/n)-1) on %d certified (generator, T) pairs: "
        "%d violations, recheck %d" % (len(rows), len(violations), len(recheck)),
    )


def test_04_crystal_triggers_classify_correctly():
    rows = repetitivity_sweep()
    problems = list(crystal_trigger_errors(rows))

    # aperiodic brackets must never sit entirely below T/3
    for r in rows:
        if r.aperiodic and r.M_upper < r.T / 3.0:
            problems.append("%s T=%s below T/3" % (r.generator, r.T))

    # lattice repetitivity must be the covering radius, constant in T
    z1 = [r for r in rows if r.generator == "zn-1"]
    z2 = [r for r in rows if r.generator == "zn-2"]
    if not (z1 and all(r.M_lower == 0.5 and r.M_upper == 0.5 for r in z1)):
        problems.append("zn-1 bracket is not exactly 1/2")
    brackets = {(r.M_lower, r.M_upper) for r in z2}
    if len(brackets) != 1:
        problems.append("zn-2 bracket varies with T")
    (lo, hi) = next(iter(brackets))
    half_diag = math.sqrt(2.0) / 2.0
    if not (lo - 1e-9 <= half_diag <= hi + 1e-9):
        problems.append("zn-2 bracket misses sqrt(2)/2")

    # the verdict must fire for the 1d lattice at scales where it can
    ps1 = gen_integer_lattice(1).materialize(Region.centered_box(1, 80.0))
    results = [repetitivity_function(ps1, T) for T in (3.0, 6.0, 9.0)]
    probe = crystal_gap_probe(results, R=0.5, r=0.5, dimension=1)
    fired = all(row.crystal_by_small_M and row.crystal_by_small_N for row in probe.rows)
    if not fired or probe.verdict != "ideal-crystal signature":
        problems.append("lattice verdict did not fire: %s" % probe.verdict)

    report(
        4,
        not problems,
        "aperiodic brackets above T/3, lattice bracket = covering radius, "
        "verdict %r: %d misclassifications" % (probe.verdict, len(problems)),
    )


def test_05_shifted_identity_is_exact():
    plan = [
        (gen_integer_lattice(1), 80.0, 2.0, None),
        (gen_integer_lattice(2), 24.0, 2.0, 0.05),
        (gen_fibonacci(), 130.0, 2.0, None),
        (gen_fibonacci(), 130.0, 4.0, None),
        (gen_cut_project_1d(ContinuedFraction.golden()), 110.0, 2.0, None),
        (gen_two_color(1, [16, 32, 64, 128]), 130.0, 2.0, None),
    ]
    checked = 0
    exact = True
    for source, half, T, resolution in plan:
        ps = source.materialize(Region.centered_box(source.dimension, half))
        res = repetitivity_function(ps, T, resolution=resolution)
        exact = exact and res.prime() == (res.M_lower + T, res.M_upper + T)
        checked += 1
    report(
        5,
        exact and checked == 6,
        "shifted bracket equals bracket plus T, float-exact, on %d results" % checked,
    )


def test_06_deleted_lines_bound_and_congruences():
    t0 = time.monotonic()
    problems = []
    counts = []
    for a1 in (2, 4):
        ps = gen_deleted_lines([a1]).materialize(Region.box([(-24, 24)] * 3))
        keep = independent_deleted_mask([a1], -24, 24)
        got = np.zeros((49, 49, 49), dtype=bool)
        addr = ps.addresses
        got[addr[:, 0] + 24, addr[:, 1] + 24, addr[:, 2] + 24] = True
        if not np.array_equal(keep, got):
            problems.append("a1=%d congruence routes disagree" % a1)
        for T in range(1, a1 + 1):
            n = compute_atlas(ps, float(T)).n_lower
            counts.append("a1=%d T=%d N=%d" % (a1, T, n))
            if n > 12 * T * T:
                problems.append("a1=%d T=%d N=%d exceeds 12T^2=%d" % (a1, T, n, 12 * T * T))
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 60.0
    report(
        6,
        ok,
        "window [-24,24]^3, N(T) <= 12T^2 and line congruences match: %s, "
        "%d problems, %.1fs (budget 60s)" % ("; ".join(counts), len(problems), elapsed),
    )


def test_07_two_color_proportions_exact():
    st = TwoColorStructure(1, [16, 32, 64, 128])
    rec, closed = rho_sequence(1, [16, 32, 64, 128])
    problems = []
    if st.N != 8:
        problems.append("modifier count is %d, wanted 8" % st.N)
    if rec != closed:
        problems.append("recursion and closed form disagree")
    scales = [16, 512, 32768, 4194304]
    for k, s in enumerate(scales, start=1):
        counted = Fraction(st.white_count_in_box([0], [s]), s)
        if counted != st.rho(k):
            problems.append("scale %d counted %s, closed form %s" % (s, counted, st.rho(k)))
        gap = abs(st.rho(k) - Fraction(1, 2))
        floor = Fraction(1, 2) * st.partial_product(k)
        if not (gap >= floor > 0):
            problems.append("scale %d gap %s under floor %s" % (s, gap, floor))
    report(
        7,
        not problems,
        "counted white proportions equal the exact rationals %s and stay "
        ">= %s away from 1/2: %d problems"
        % ([str(st.rho(k)) for k in range(1, 5)], Fraction(1, 2) * st.partial_product(4), len(problems)),
    )


def test_08_weight_averages_converge():
    region = Region.box([(-300, 300)])
    vol = density_profile(volume_weight(1), region, [4.0, 8.0, 16.0], seed=0)
    ps = gen_integer_lattice(1).materialize(region)
    cnt = density_profile(point_count_weight(ps), region, [4.0, 8.0, 16.0], seed=0)
    vol_bad = [row for row in vol.rows if row.delta != 0.0]
    cnt_bad = [row for row in cnt.rows if row.delta > 2.0 / row.U]
    ok = not vol_bad and not cnt_bad and len(vol.rows) == 3 and len(cnt.rows) == 3
    worst = max(row.delta * row.U / 2.0 for row in cnt.rows)
    report(
        8,
        ok,
        "volume weight delta identically 0, point-count delta <= 2/U at "
        "U=4,8,16 (worst fraction of bound %.2f)" % worst,
    )


def test_09_lattice_diffraction_values():
    ps = gen_integer_lattice(1).materialize(Region.centered_box(1, 12.0))
    ac = autocorrelation(ps, 10.0)
    problems = []
    if ac.point_count != 19:
        problems.append("expected 19 points in the open ball, got %d" % ac.point_count)
    if ac.normalization != 20.0:
        problems.append("normalization %r is not 20.0" % ac.normalization)
    for diff, _, count, weight in ac.atoms():
        m = diff[0]
        if count != 19 - abs(m) or weight != (19 - abs(m)) / 20.0:
            problems.append("atom %s count %d weight %r" % (diff, count, weight))
    spec = diffraction_estimate(ac, np.linspace(0.0, 2.0, 401))
    for k, want in ((0.0, 18.05), (0.5, 0.05), (1.0, 18.05)):
        got = spec.value_at([k])
        if abs(got - want) > 1e-9:
            problems.append("intensity at k=%s is %r, wanted %s" % (k, got, want))
    peaks = detect_peaks(spec)
    pitch = 2.0 / 400
    found = set()
    for p in peaks:
        k = float(p.k[0])
        nearest = round(k)
        if abs(k - nearest) > pitch + 1e-12:
            problems.append("peak at %s is not within one pitch of an integer" % k)
        found.add(int(nearest))
    if found != {0, 1, 2}:
        problems.append("peaks found at %s, wanted integers 0,1,2" % sorted(found))
    report(
        9,
        not problems,
        "T=10 pair weights (19-|m|)/20 exact, intensities 18.05/0.05/18.05 "
        "within 1e-9, %d peaks on integers: %d problems" % (len(peaks), len(problems)),
    )


def test_10_address_map_fits_agree(monkeypatch):
    t0 = time.monotonic()
    ps = gen_fibonacci().materialize(Region.centered_box(1, 6950.0))
    amap = build_address_map(ps)
    fit = linear_fit(ps, amap)
    problems = []
    if len(ps) < 10_000:
        problems.append("window holds only %d points" % len(ps))

    wd = path_displacement_distribution(ps, amap, axis=0, R=2.0)
    L_path = wd.evaluate(np.array([[[0.0, 1000.0]]]))[0] / 1000.0
    L_ls = fit.L[:, 0]
    rel = float(np.linalg.norm(L_path - L_ls) / np.linalg.norm(L_ls))
    if rel > 0.02:
        problems.append("least squares and path displacement differ by %.3f" % rel)

    if fit.proj_residual > 1e-9:
        problems.append("projection residue %r" % fit.proj_residual)

    rep = meyer_residual(fit)
    if rep.variation >= 0.20 or not rep.bounded:
        problems.append("outer annulus residual varies by %.3f" % rep.variation)

    monkeypatch.setattr(address_mod, "LIPSCHITZ_EXACT_LIMIT", 20_000)
    lip_full = lipschitz_constant(ps, amap)
    half = gen_fibonacci().materialize(Region.centered_box(1, 3475.0))
    lip_half = lipschitz_constant(half)
    drift = abs(lip_full.value - lip_half.value) / lip_half.value
    if drift > 0.05:
        problems.append("constant moved %.3f under window doubling" % drift)
    if {lip_full.mode, lip_half.mode} != {"all-pairs"}:
        problems.append("expected exhaustive pair mode on both windows")

    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 60.0
    report(
        10,
        ok,
        "%d-point chain: fits differ %.4f (<2%%), residue %.1e, annulus "
        "variation %.4f, constant drift %.4f (<5%%), %.1fs (budget 60s)"
        % (len(ps), rel, fit.proj_residual, rep.variation, drift, elapsed),
    )


def test_11_cube_windows_match_half_radius_balls():
    rows = cubical_identity_rows()
    mismatches = [(g, T) for g, T, n_cube, n_ball in rows if n_cube != n_ball]
    generators = {g for g, *_ in rows}
    ok = (
        len(rows) == 13
        and not mismatches
        and generators == {"zn-1", "fibonacci", "cut-project", "two-color"}
    )
    report(
        11,
        ok,
        "side-T cube classes equal radius-T/2 ball classes on %d rows over "
        "%d one-dimensional generators: %d mismatches"
        % (len(rows), len(generators), len(mismatches)),
    )


def test_12_verification_is_deterministic(cli_env):
    t0 = time.monotonic()
    cmd = [sys.executable, "-m", "delone_lab.cli", "verify", "all", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, env=cli_env)
    second = subprocess.run(cmd, capture_output=True, env=cli_env)
    elapsed = time.monotonic() - t0
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stderr == second.stderr
        and b"0 failed" in first.stdout
        and elapsed < 600.0
    )
    report(
        12,
        ok,
        "two seeded runs byte-identical (%d bytes, rc %d/%d), %.0fs "
        "(budget 600s)" % (len(first.stdout), first.returncode, second.returncode, elapsed),
    )
