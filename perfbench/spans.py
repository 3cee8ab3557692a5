"""Spans around delone_lab's public calls, recorded from the benchmark's side.

Tracer.install() swaps each traced function for a wrapper in every
delone_lab module that holds a reference to it, because cli, verify,
ergodic and repetitivity bind functions with `from .x import f`.
uninstall() puts the originals back. Spans are kept in memory as dicts
(id, name, start, end, parent, attrs) and written as JSON lines at the end
of a run; derive() turns one pass's spans into per-layer metrics, named
as in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

COMMANDS = ["generate", "atlas", "repetitivity", "frequencies", "wdist", "diffraction", "address", "verify"]
SUITES = ["lattice", "fibonacci", "cut-project", "deleted-lines", "two-color", "words"]

# (module, attribute path, span name, attrs from (args, result))
FUNCTIONS = [
    ("delone_lab.atlas", "compute_atlas", "atlas.compute",
     lambda a, k, r: {"engine": r.engine, "classes": r.n_lower, "centers": r.total_centers,
                      "key": repr((a[0].region, len(a[0]), a[0].rank, a[1], k.get("shape", a[2] if len(a) > 2 else "ball")))}),
    ("delone_lab.repetitivity", "repetitivity_function", "repetitivity.function",
     lambda a, k, r: {"classes": r.n_lower, "dim": a[0].dimension, "width": r.M_upper - r.M_lower}),
    ("delone_lab.repetitivity", "covering_radius", "repetitivity.covering", None),
    ("delone_lab.spectral", "autocorrelation", "spectral.autocorrelation",
     lambda a, k, r: {"pairs": r.point_count ** 2, "atoms": len(r.counts)}),
    ("delone_lab.spectral", "diffraction_estimate", "spectral.diffraction",
     lambda a, k, r: {"terms": r.k_grid.shape[0] * len(a[0].counts)}),
    ("delone_lab.spectral", "detect_peaks", "spectral.peaks", None),
    ("delone_lab.address", "build_address_map", "address.map", None),
    ("delone_lab.address", "linear_fit", "address.fit", None),
    ("delone_lab.address", "lipschitz_constant", "address.lipschitz",
     lambda a, k, r: {"pairs": r.pairs_used}),
    ("delone_lab.ergodic", "patch_frequency", "ergodic.frequency", None),
    ("delone_lab.ergodic", "density_profile", "ergodic.density",
     lambda a, k, r: {"boxes": sum(row.n_boxes for row in r.rows)}),
    ("delone_lab.generators", "PointSetSource.materialize", "generators.materialize",
     lambda a, k, r: {"set": a[0].name, "points": len(r)}),
    ("delone_lab.core", "ExactPointSet.__init__", "core.pointset_init", None),
    ("delone_lab.generators", "TwoColorStructure.cell_is_white", "generators.cell_is_white", None),
]
# counted, not timed: these run up to a few hundred thousand times per pass
COUNTERS = [
    ("delone_lab.contfrac", "ContinuedFraction.floor_multiple", "floor_calls"),
    ("delone_lab.core", "make_patch_key", "patch_keys"),
]


def replace_everywhere(module_name: str, path: str, make) -> list:
    """Replace a function or method by make(original) wherever delone_lab
    refers to it; returns (owner, name, original) triples for undoing."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    wrapped = make(orig)
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return [(owner, attr, orig)]
    # module-level functions: rebind every module global that holds the original
    undo = []
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "delone_lab" or mod is None:
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapped)
                undo.append((mod, key, orig))
    return undo


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
            "_c0": (self.counts["floor_calls"], self.counts["patch_keys"]),
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        f0, p0 = span.pop("_c0")
        span["attrs"]["floor_calls"] = self.counts["floor_calls"] - f0
        span["attrs"]["patch_keys"] = self.counts["patch_keys"] - p0
        self._stack.pop()

    def _timed(self, fn, name, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs_of is not None:
                span["attrs"].update(attrs_of(args, kwargs, result))
            return result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        import delone_lab.cli  # noqa: F401  (loads every module that binds a target)
        import delone_lab.verify as verify

        for module, path, name, attrs_of in FUNCTIONS:
            self._undo += replace_everywhere(module, path, lambda f, n=name, a=attrs_of: self._timed(f, n, a))
        for module, path, key in COUNTERS:
            self._undo += replace_everywhere(module, path, lambda f, k=key: self._counted(f, k))
        for suite in SUITES:  # run_suite looks suites up in this dict at call time
            orig = verify.SUITES[suite]
            verify.SUITES[suite] = self._timed(orig, "verify.%s" % suite, None)
            self._undo.append((verify.SUITES, suite, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo = []


# ---------------------------------------------------------------------------
# per-layer metrics from one pass of spans


def derive(spans: list) -> dict:
    """Per-layer metrics of one pass. Spans must be one pass's spans; root
    spans (parent None) are CLI commands, with attrs command, ok, bytes.
    Commands that failed are left out, with everything under them."""
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def root_of(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    live = [s for s in spans if root_of(s)["attrs"].get("ok", True)]
    roots = [s for s in live if s["parent"] is None]

    def outermost(name):
        out = []
        for s in live:
            if s["name"] != name:
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] != name:
                p = by_id[p]["parent"]
            if p is None:
                out.append(s)
        return out

    def total(name):
        return sum(dur[s["id"]] for s in outermost(name))

    def self_time(s):
        return dur[s["id"]] - sum(dur[c["id"]] for c in children.get(s["id"], []))

    def ratio(a, b):
        return a / b if b else 0.0

    def named(name):
        return [s for s in live if s["name"] == name]

    m = {}
    for c in COMMANDS:
        m["cli.%s_s" % c] = sum(dur[r["id"]] for r in roots if r["attrs"].get("command") == c)
    m["cli.self_s"] = sum(self_time(r) for r in roots)
    m["cli.artifact_bytes"] = sum(r["attrs"].get("bytes", 0) for r in roots)

    mats = outermost("generators.materialize")
    m["generators.materialize_s"] = total("generators.materialize")
    m["generators.points"] = sum(s["attrs"].get("points", 0) for s in mats)
    m["generators.points_per_s"] = ratio(m["generators.points"], m["generators.materialize_s"])
    floor_calls = sum(r["attrs"]["floor_calls"] for r in roots)
    chain_points = sum(s["attrs"].get("points", 0) for s in named("generators.materialize")
                       if s["attrs"].get("set") in ("beatty", "cut_project"))
    m["contfrac.floor_multiple_calls"] = floor_calls
    m["generators.points_per_floor_call"] = ratio(chain_points, floor_calls)
    m["core.pointset_init_s"] = total("core.pointset_init")

    atl = outermost("atlas.compute")
    m["atlas.compute_s"] = total("atlas.compute")
    m["atlas.calls"] = len(named("atlas.compute"))
    m["atlas.centers"] = sum(s["attrs"].get("centers", 0) for s in atl)
    m["atlas.classes"] = sum(s["attrs"].get("classes", 0) for s in atl)
    m["atlas.centers_per_s"] = ratio(m["atlas.centers"], m["atlas.compute_s"])
    for engine in ("sorted-line", "lattice", "kdtree"):
        m["atlas.%s_s" % engine.replace("-", "_")] = sum(
            dur[s["id"]] for s in atl if s["attrs"].get("engine") == engine)
    m["core.patch_key_calls"] = sum(r["attrs"]["patch_keys"] for r in roots)
    m["atlas.patch_keys_per_class"] = ratio(sum(s["attrs"]["patch_keys"] for s in atl), m["atlas.classes"])
    repeats = 0
    for r in roots:
        seen = set()
        for s in atl:
            if root_of(s) is r:
                repeats += s["attrs"].get("key") in seen
                seen.add(s["attrs"].get("key"))
    m["atlas.repeat_calls"] = repeats

    rep = outermost("repetitivity.function")
    m["repetitivity.self_s"] = sum(self_time(s) for s in named("repetitivity.function"))
    m["repetitivity.covering_s"] = total("repetitivity.covering")
    m["repetitivity.covering_calls"] = len(named("repetitivity.covering"))
    m["repetitivity.classes_per_s"] = ratio(sum(s["attrs"].get("classes", 0) for s in rep),
                                            sum(dur[s["id"]] for s in rep))
    m["repetitivity.bracket_width"] = sum(s["attrs"].get("width", 0.0) for s in rep if s["attrs"].get("dim", 0) >= 2)

    auto = named("spectral.autocorrelation")
    m["spectral.autocorrelation_s"] = total("spectral.autocorrelation")
    m["spectral.pairs"] = sum(s["attrs"].get("pairs", 0) for s in auto)
    m["spectral.atoms"] = sum(s["attrs"].get("atoms", 0) for s in auto)
    m["spectral.pairs_per_s"] = ratio(m["spectral.pairs"], m["spectral.autocorrelation_s"])
    m["spectral.diffraction_s"] = total("spectral.diffraction")
    m["spectral.cos_terms"] = sum(s["attrs"].get("terms", 0) for s in named("spectral.diffraction"))
    m["spectral.peaks_s"] = total("spectral.peaks")

    m["address.map_s"] = total("address.map")
    m["address.fit_s"] = total("address.fit")
    m["address.lipschitz_s"] = total("address.lipschitz")
    m["address.lipschitz_pairs"] = sum(s["attrs"].get("pairs", 0) for s in named("address.lipschitz"))

    m["ergodic.frequency_s"] = total("ergodic.frequency")
    m["ergodic.density_s"] = total("ergodic.density")
    m["ergodic.boxes"] = sum(s["attrs"].get("boxes", 0) for s in named("ergodic.density"))

    for suite in SUITES:
        m["verify.%s_s" % suite] = total("verify.%s" % suite)
    m["generators.cell_is_white_s"] = total("generators.cell_is_white")
    return m
