"""Correctness checks on CLI artifacts, run outside the timed region.

Each check rebuilds the operation's point set from closed forms
(oracles.py) and compares the artifact with it. Patch classes are taken
from the library only after they pass a partition test and a brute-force
classification of sampled centers, and then serve as input to the
covering-radius references.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import oracles

GOLDEN_TAU = (1.0 + math.sqrt(5.0)) / 2.0


class CheckFailed(Exception):
    pass


def expect(cond, msg, *args):
    if not cond:
        raise CheckFailed(msg % args if args else msg)


def read_artifact(path: str):
    with open(path) as fh:
        text = fh.read()
    first, rest = text.split("\n", 1)
    expect(first.startswith("# "), "artifact lacks its config line")
    rows = list(csv.reader(io.StringIO(rest)))
    return json.loads(first[2:]), rows[0], rows[1:]


# ---------------------------------------------------------------------------
# reference point sets


def reference_points(source: dict, window: list):
    """(addresses, projection) of a construction on a box, from closed forms."""
    name, params = source["set"], source["params"]
    if name == "zn":
        n = int(params.get("n", 1))
        return oracles.integer_box(window, params.get("deletions", ())), np.eye(n)
    if name in ("fibonacci", "beatty"):
        expect(params.get("alpha", "golden") == "golden", "only the golden alpha has a closed form here")
        tau = float(params.get("tau", GOLDEN_TAU)) if name == "beatty" else GOLDEN_TAU
        (a, b), = window
        return oracles.beatty_window(a, b, tau), np.array([[1.0], [tau]])
    if name == "cut_project":
        (a, b), = window
        return oracles.cut_project_window(a, b)
    if name == "deleted_lines":
        pts = oracles.integer_box(window)
        return pts[oracles.deleted_lines_keep(pts, params["a"])], np.eye(3)
    if name == "product":
        parts = [reference_points(f | {"params": f.get("params", {})}, [iv])
                 for f, iv in zip(params["factors"], window)]
        addr = parts[0][0]
        for sub, _ in parts[1:]:
            addr = np.concatenate(
                [np.repeat(addr, sub.shape[0], axis=0), np.tile(sub, (addr.shape[0], 1))], axis=1
            )
        rank = sum(p.shape[0] for _, p in parts)
        proj = np.zeros((rank, len(parts)))
        r = 0
        for c, (_, p) in enumerate(parts):
            proj[r : r + p.shape[0], c] = p[:, 0]
            r += p.shape[0]
        return addr, proj
    raise CheckFailed("no reference for set %r" % name)


def _sorted_rows(a: np.ndarray) -> np.ndarray:
    return a[np.lexsort(a.T[::-1])] if a.shape[0] else a


def _same_rows(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(_sorted_rows(a), _sorted_rows(b))


def _eroded_mask(pos: np.ndarray, window: list, margin: float) -> np.ndarray:
    lo = np.array([a + margin for a, _ in window])
    hi = np.array([b - margin for _, b in window])
    return np.all((pos >= lo - 1e-9) & (pos <= hi + 1e-9), axis=1)


# ---------------------------------------------------------------------------
# per-command checks; each returns a fingerprint of the result


class Context:
    """Library handles and the reference set for one operation."""

    def __init__(self, op, seed: int):
        from delone_lab.atlas import compute_atlas
        from delone_lab.core import Region
        from delone_lab.generators import build_source

        self.op, self.seed = op, seed
        self.addr, self.proj = reference_points(op.source, op.window)
        self.pos = self.addr.astype(float) @ self.proj
        self.index = {tuple(r): i for i, r in enumerate(self.addr.tolist())}
        self._compute_atlas = compute_atlas
        source = build_source(op.source["set"], op.source["params"])
        self.ps = source.materialize(Region.box(op.window))
        expect(_same_rows(self.ps.addresses, self.addr),
               "library window differs from the closed form (%d vs %d points)",
               len(self.ps), self.addr.shape[0])

    def verified_atlas(self, T: float):
        """The library atlas, after checking it against brute force."""
        res = self._compute_atlas(self.ps, T)
        centers = np.concatenate([c.centers for c in res.classes]) if res.classes else np.zeros((0, self.addr.shape[1]), np.int64)
        want = self.addr[_eroded_mask(self.pos, self.op.window, T)]
        expect(_same_rows(centers, want), "T=%s: class centers do not partition the %d certified points", T, want.shape[0])
        rng = np.random.default_rng(self.seed)
        for cls in res.classes:
            picks = rng.choice(cls.centers.shape[0], size=min(2, cls.centers.shape[0]), replace=False)
            for i in picks:
                idx = self.index[tuple(cls.centers[i].tolist())]
                got = oracles.brute_force_key(self.addr, self.pos, idx, T)
                expect(got == cls.key, "T=%s: center %s classified to the wrong key", T, cls.centers[i].tolist())
        return res


def check_generate(ctx, config, header, rows):
    n, rank = ctx.proj.shape[1], ctx.proj.shape[0]
    expect(config["count"] == len(rows) == ctx.addr.shape[0],
           "point count %s, reference %d", config["count"], ctx.addr.shape[0])
    got = np.array([[int(v) for v in r[n : n + rank]] for r in rows], dtype=np.int64).reshape(-1, rank)
    x = np.array([[float(v) for v in r[:n]] for r in rows]).reshape(-1, n)
    expect(_same_rows(got, ctx.addr), "addresses differ from the closed form")
    expect(np.allclose(x, got.astype(float) @ ctx.proj, rtol=1e-12, atol=1e-9), "positions are not address @ projection")
    if ctx.op.source["set"] == "cut_project":
        bad = [r for r in got.tolist() if not oracles.cut_strip_holds(*r)]
        expect(not bad, "%d points violate 0 <= p - alpha m < 1, e.g. %s", len(bad), bad[:1])
    return {"points": len(rows)}


def check_atlas(ctx, config, header, rows):
    out = []
    for r in rows:
        T, classes, centers = float(r[0]), int(r[1]), int(r[2])
        res = ctx.verified_atlas(T)
        expect(classes == res.n_lower and centers == res.total_centers,
               "T=%s: artifact says %d classes / %d centers, checked atlas %d / %d",
               T, classes, centers, res.n_lower, res.total_centers)
        if ctx.op.source["set"] == "zn" and not ctx.op.source["params"].get("deletions"):
            expect(classes == 1, "Z^n has one patch class, artifact says %d", classes)
        out.append([T, classes, centers])
    return {"classes": out}


def check_repetitivity(ctx, config, header, rows):
    n = ctx.proj.shape[1]
    out = []
    for r in rows:
        T, classes = float(r[0]), int(r[1])
        lo, hi, s_lo, s_hi, floor_ = (float(v) for v in r[2:7])
        expect(s_lo == lo + T and s_hi == hi + T, "T=%s: shifted bracket is not the bracket + T", T)
        expect(lo <= hi and floor_ <= min(lo, T) + 1e-12, "T=%s: bracket ends out of order", T)
        if n == 1:
            expect(lo == hi, "T=%s: 1-D bracket [%r, %r] is not exact", T, lo, hi)
        src = ctx.op.source
        if src["set"] == "zn" and not src["params"].get("deletions"):
            want = math.sqrt(n) / 2.0
            expect(lo - 1e-9 <= want <= hi + 1e-9, "T=%s: [%r, %r] misses sqrt(n)/2", T, lo, hi)
        res = ctx.verified_atlas(T)
        expect(classes == res.n_lower, "T=%s: %d classes, checked atlas %d", T, classes, res.n_lower)
        box = [(a + 2 * T, b - 2 * T) for a, b in ctx.op.window]
        per_class = [c.centers.astype(float) @ ctx.proj for c in res.classes]
        if n == 1:
            per_exact = [oracles.covering_radius_1d(c[:, 0], *box[0]) for c in per_class]
            exact = max(per_exact)
            expect(abs(lo - exact) <= 1e-12 * max(1.0, exact), "T=%s: M = %r, exact M = %r", T, lo, exact)
            want_floor = max(min(e, T) for e in per_exact)
            expect(abs(floor_ - want_floor) <= 1e-12 * max(1.0, want_floor),
                   "T=%s: certified floor %r, reference %r", T, floor_, want_floor)
        elif n == 2:
            exact = max(oracles.covering_radius_box_2d(c, box) for c in per_class)
            expect(lo - 1e-9 <= exact <= hi + 1e-9, "T=%s: [%r, %r] misses the exact M = %r", T, lo, hi, exact)
        elif n == 3:
            brackets = [oracles.covering_radius_grid(c, box, 0.29) for c in per_class]
            m_lo, m_hi = max(b[0] for b in brackets), max(b[1] for b in brackets)
            expect(max(lo, m_lo) <= min(hi, m_hi) + 1e-9,
                   "T=%s: [%r, %r] does not overlap the reference grid [%r, %r]", T, lo, hi, m_lo, m_hi)
        out.append([T, classes, lo, hi])
    return {"brackets": out}


def check_frequencies(ctx, config, header, rows):
    T = float(config["T"])
    res = ctx.verified_atlas(T)
    biggest = max(res.classes, key=lambda c: (c.centers.shape[0], c.key))
    key = tuple(tuple(v) for v in config["key"])
    expect(key == biggest.key, "the counted key is not the most common class")
    pos = biggest.centers.astype(float) @ ctx.proj
    counts, prev_vol = [], 0.0
    for r in rows:
        region = json.loads(r[0])
        count, vol, freq = int(r[1]), float(r[2]), float(r[3])
        lo = np.array([a for a, _ in region["intervals"]])
        hi = np.array([b for _, b in region["intervals"]])
        want = int(np.count_nonzero(np.all((pos >= lo - 1e-9) & (pos <= hi + 1e-9), axis=1)))
        expect(count == want, "count %d in %s, reference %d", count, r[0], want)
        expect(freq == count / vol and vol > prev_vol, "frequency is not count / volume on a growing ladder")
        prev_vol = vol
        counts.append(count)
    return {"counts": counts}


def density_boxes(window: list, Us: list, seed: int):
    """(U, lower corners, upper corners) per U of the boxes a density
    profile samples: the tiling at side U anchored at the window's lower
    corner, thinned to at most 512 boxes, then 200 seeded boxes with sides
    in [U, 2U]. One generator serves the U values in increasing order."""
    lo = np.array([a for a, _ in window], dtype=float)
    span = np.array([b for _, b in window], dtype=float) - lo
    n = lo.size
    rng = np.random.default_rng(seed)
    for U in sorted(Us):
        counts = np.floor(span / U).astype(int)
        total = int(np.prod(counts))
        flat = np.arange(0, total, max(1, math.ceil(total / 512)))
        idx = np.stack(np.unravel_index(flat, tuple(counts)), axis=1).astype(float)
        a = [lo + idx * U]
        b = [a[0] + U]
        for _ in range(200):
            sides = np.minimum(U * (1.0 + rng.random(n)), span)
            corner = lo + rng.random(n) * (span - sides)
            a.append(corner[None, :])
            b.append(corner[None, :] + sides)
        yield U, np.concatenate(a), np.concatenate(b)


def check_wdist(ctx, config, header, rows):
    expect(config["weight"] == "count", "only the point-count weight has a reference here")
    boxes = list(density_boxes(ctx.op.window, [float(u) for u in config["U"]], int(config["seed"])))
    expect(len(rows) == len(boxes), "%d rows for %d U values", len(rows), len(boxes))
    out = []
    for r, (U_ref, a, b) in zip(rows, boxes):
        U, f_plus, f_minus, f_med, delta = (float(v) for v in r[:5])
        n_boxes = int(r[5])
        dens = oracles.box_counts(ctx.pos, a, b) / np.prod(b - a, axis=1)
        want = (float(dens.max()), float(dens.min()), float(np.median(dens)))
        expect(U == U_ref and n_boxes == a.shape[0], "U=%s: %d boxes, reference %d at U=%s", U, n_boxes, a.shape[0], U_ref)
        for got, ref, what in zip((f_plus, f_minus, f_med), want, ("f_plus", "f_minus", "f_median")):
            expect(abs(got - ref) <= 1e-12 * max(abs(ref), 1.0), "U=%s: %s = %r, reference counts give %r", U, what, got, ref)
        expect(delta == f_plus - f_minus, "U=%s: delta is not f_plus - f_minus", U)
        out.append([U, f_plus, f_minus])
    return {"rows": out}


def check_diffraction(ctx, config, header, rows):
    T, kmax, kcount = float(config["T"]), float(config["kmax"]), int(config["kcount"])
    x = ctx.pos[:, 0]
    P = int(np.count_nonzero(np.abs(x) < T))
    expect(config["pairs"] == P, "%s points in the ball, reference %d", config["pairs"], P)
    grid = np.linspace(0.0, kmax, kcount)
    want = oracles.exponential_sum_intensity(x, T, grid)
    scale = P * P / (2.0 * T)
    expect(abs(want[0] - scale) <= 1e-9 * scale, "reference intensity(0) is not P^2/norm")
    k = np.array([float(r[0]) for r in rows])
    got = np.array([float(r[1]) for r in rows])
    if config["peaks"]:
        idx = oracles.local_maxima(want)
        expect(np.array_equal(k, grid[idx]), "peaks at %s, reference %s", k.tolist(), grid[idx].tolist())
        expect(np.allclose(got, want[idx], rtol=0, atol=1e-8 * scale), "peak intensities differ from the exponential sum")
    else:
        expect(np.array_equal(k, grid), "k grid differs")
        expect(abs(got[0] - scale) <= 1e-9 * scale, "intensity(0) = %r, P^2/norm = %r", got[0], scale)
        err = float(np.max(np.abs(got - want)))
        expect(err <= 1e-8 * scale, "intensity differs from the exponential sum by %r", err)
    diffs = (ctx.addr[np.abs(x) < T][:, None, :] - ctx.addr[np.abs(x) < T][None, :, :]).reshape(-1, ctx.addr.shape[1])
    atoms = int(np.unique(diffs, axis=0).shape[0])
    return {"ball_points": P, "atoms": atoms, "rows": len(rows)}


def check_address(ctx, config, header, rows):
    fields = {r[0]: (r[1], r[2]) for r in rows}
    origin = np.array(json.loads(fields["origin"][0]), dtype=np.int64)
    basis = np.array(json.loads(fields["basis"][0]), dtype=np.int64)
    rank = ctx.addr.shape[1]
    expect(int(fields["rank"][0]) == rank == basis.shape[0], "rank %s, address width %d", fields["rank"][0], rank)
    norms = np.sum(ctx.pos * ctx.pos, axis=1)
    near = ctx.addr[norms <= norms.min() + 1e-12]
    expect(np.array_equal(origin, _sorted_rows(near)[0]), "origin is not the point nearest 0")
    coef = oracles.integer_coefficients(ctx.addr - origin, basis)
    expect(coef is not None, "the basis does not span every translated address")
    resid = float(fields["proj_residual"][0])
    expect(resid < 1e-9, "proj_residual %r >= 1e-9", resid)
    P = ctx.addr.shape[0]
    pairs, tag = int(fields["lipschitz_pairs"][0]), fields["lipschitz_pairs"][1]
    if P <= 10_000:
        expect(tag == "exact" and pairs == P * (P - 1) // 2, "all-pairs Lipschitz used %d pairs of %d points", pairs, P)
    else:
        expect(tag == "sampled" and 0 < pairs <= 1_000_000, "sampled Lipschitz used %d pairs", pairs)
    return {"points": P, "rank": rank, "lipschitz": float(fields["lipschitz"][0]), "lipschitz_mode": tag}


CHECKS = {
    "generate": check_generate,
    "atlas": check_atlas,
    "repetitivity": check_repetitivity,
    "frequencies": check_frequencies,
    "wdist": check_wdist,
    "diffraction": check_diffraction,
    "address": check_address,
}


def check_op(op, path: str, seed: int):
    """(passed, detail, fingerprint) for one operation's artifact."""
    try:
        config, header, rows = read_artifact(path)
        fp = CHECKS[op.command](Context(op, seed), config, header, rows)
        return True, "ok", fp
    except CheckFailed as exc:
        return False, str(exc), None
    except Exception as exc:  # a check that cannot run is a failed check
        return False, "check raised %s: %s" % (type(exc).__name__, exc), None


def check_verify_outputs(outputs: list):
    """outputs: (exit code, stdout) per pass of `verify all` with one seed."""
    code, text = outputs[0]
    lines = text.splitlines()
    if code != 0 or any(line.startswith("[FAIL]") for line in lines):
        return False, "exit code %s, %d [FAIL] lines" % (code, sum(l.startswith("[FAIL]") for l in lines)), None
    if any(o != outputs[0] for o in outputs[1:]):
        return False, "runs with one seed are not byte-identical", None
    return True, "ok", {"checks": sum(l.startswith("[PASS]") for l in lines), "summary": lines[-1] if lines else ""}
