"""Command-line interface.

Every command assembles a config dict (generator, parameters, windows, seed),
runs one analysis, and emits a flat artifact that embeds the config. CSV
artifacts start with a single `# {json}` comment line; JSON artifacts carry
the config under a "config" key. Identical config and seed give byte-identical
output. Each data row ends with a tag column: exact, certified-bracket,
sampled, float-sum (a floating-point sum such as a diffraction intensity),
or least-squares (read off a least-squares fit), reflecting the producing
module's contract.

Exit codes: 1 bad config or input, 2 resource budget exhausted, 3 file I/O,
4 verification failure.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from typing import List, Optional, Sequence

import click
import numpy as np

from . import __version__
from . import verify as verify_mod
from .address import (
    build_address_map,
    linear_fit,
    lipschitz_constant,
    meyer_residual,
)
from .atlas import atlas_ladder, compute_atlas
from .core import ExactPointSet, FloatPointSet, Region, make_patch_key
from .ergodic import (
    density_profile,
    patch_frequency,
    point_count_weight,
    volume_weight,
    white_point_count_weight,
)
from .errors import DeloneLabError, InvalidArgument, ResourceLimit
from .generators import build_source
from .repetitivity import query_workers, repetitivity_ladder
from .spectral import autocorrelation, detect_peaks, diffraction_estimate

EXIT_BAD_CONFIG = 1
EXIT_BUDGET = 2
EXIT_IO = 3
EXIT_VERIFY = 4

# Default scale lists are perturbed off round values so that patch boundaries
# never sit exactly on points of the integer-based constructions. Values the
# user passes are used verbatim.
DEFAULT_T = "2.000001,4.000001,8.000001"
DEFAULT_U = "4.000001,8.000001,16.000001"


class VerificationFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing and emission helpers


def _parse_json_text(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArgument(
            "%s is not valid JSON: %s (line %d, column %d)"
            % (what, exc.msg, exc.lineno, exc.colno)
        ) from exc


def _parse_params(text: Optional[str]) -> dict:
    if not text:
        return {}
    obj = _parse_json_text(text, "--params")
    if not isinstance(obj, dict):
        raise InvalidArgument("--params must be a JSON object")
    return obj


def _parse_scalar_list(text: str, flag: str) -> List[float]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(float(part))
        except ValueError as exc:
            raise InvalidArgument("%s: %r is not a number" % (flag, part)) from exc
    if not out:
        raise InvalidArgument("%s: empty list" % flag)
    return out


def _parse_window(text: str, dimension: int) -> Region:
    text = text.strip()
    if text.startswith("{"):
        region = Region.from_json(_parse_json_text(text, "--window"))
        if region.dimension != dimension:
            raise InvalidArgument(
                "--window region is %dD but the set is %dD"
                % (region.dimension, dimension)
            )
        return region
    try:
        half = float(text)
    except ValueError as exc:
        raise InvalidArgument(
            "--window must be a half-width number or a JSON region"
        ) from exc
    if half <= 0:
        raise InvalidArgument("--window half-width must be positive")
    return Region.centered_box(dimension, half)


def _extra_params(extra: Sequence[str]) -> dict:
    """Turn trailing `--key value` / `--key=value` pairs into parameters."""
    params = {}
    items = list(extra)
    i = 0
    while i < len(items):
        token = items[i]
        if not token.startswith("--"):
            raise InvalidArgument("unexpected argument %r" % token)
        body = token[2:]
        if "=" in body:
            key, raw = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(items):
                raise InvalidArgument("flag --%s is missing a value" % key)
            raw = items[i + 1]
            i += 2
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _config(command: str, **fields) -> dict:
    cfg = {
        "tool": "delone-lab",
        "version": __version__,
        "command": command,
        "threads": os.environ.get("DELONE_LAB_THREADS"),
    }
    cfg.update(fields)
    return cfg


def _emit(
    config: dict,
    columns: List[str],
    rows: List[list],
    fmt: str,
    out: Optional[str],
    extra_json: Optional[dict] = None,
):
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("# " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        payload = {"config": config, "columns": columns, "rows": rows}
        if extra_json:
            payload.update(extra_json)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build(set_name: str, params: dict, window: str):
    source = build_source(set_name.replace("-", "_"), params)
    region = _parse_window(window, source.dimension)
    return source, source.materialize(region), region


def _common_options(f):
    for opt in reversed(
        [
            click.option("--set", "set_name", default="zn", show_default=True, help="construction name"),
            click.option("--params", default=None, help="JSON object of construction parameters"),
            click.option("--seed", default=0, show_default=True, type=int),
            click.option("--out", default=None, type=click.Path(dir_okay=False), help="artifact path (default stdout)"),
            click.option("--format", "fmt", default="csv", show_default=True, type=click.Choice(["csv", "json"])),
        ]
    ):
        f = opt(f)
    return f


# ---------------------------------------------------------------------------
# commands


@click.group(name="delone-lab")
def cli():
    """Generate Delone-set constructions and compute order invariants."""
    query_workers()  # a bad DELONE_LAB_THREADS stops every command before it runs


@cli.command(
    context_settings=dict(ignore_unknown_options=True),
    short_help="materialize a construction on a window",
)
@_common_options
@click.option("--window", default="10", show_default=True, help="half-width or JSON region")
@click.argument("extra", nargs=-1, type=click.UNPROCESSED)
def generate(set_name, params, seed, out, fmt, window, extra):
    """Write the points of a construction, with exact integer addresses.

    Unknown trailing flags become construction parameters, so
    `generate --set zn --n 2 --window 5` selects the square lattice.
    """
    merged = _parse_params(params)
    merged.update(_extra_params(extra))
    source, ps, region = _build(set_name, merged, window)
    config = _config(
        "generate",
        set=source.name,
        params=source.params,
        window=region.to_json(),
        seed=seed,
        count=len(ps.addresses),
    )
    n, rank = ps.dimension, ps.rank
    columns = ["x%d" % i for i in range(n)] + ["a%d" % j for j in range(rank)] + ["tag"]
    rows = [
        pos + addr + ["exact"]
        for pos, addr in zip(ps.points.tolist(), ps.addresses.tolist())
    ]
    # JSON artifacts double as reloadable point-set files
    extra = {"point_set": ps.to_json()} if fmt == "json" else None
    _emit(config, columns, rows, fmt, out, extra_json=extra)


@cli.command(short_help="patch classes per radius")
@_common_options
@click.option("--window", default="60", show_default=True)
@click.option("--T", "t_list", default=DEFAULT_T, show_default=True, help="comma list of radii")
@click.option("--shape", default="ball", show_default=True, type=click.Choice(["ball", "cube"]))
def atlas(set_name, params, seed, out, fmt, window, t_list, shape):
    """Count patch classes on certified interior centers."""
    source, ps, region = _build(set_name, _parse_params(params), window)
    t_values = _parse_scalar_list(t_list, "--T")
    config = _config(
        "atlas",
        set=source.name,
        params=source.params,
        window=region.to_json(),
        T=t_values,
        shape=shape,
        seed=seed,
    )
    columns = ["T", "classes", "centers", "boundary_flags", "engine", "tag"]
    rows = []
    for T, res in zip(t_values, atlas_ladder(ps, t_values, shape=shape)):
        rows.append(
            [T, res.n_lower, res.total_centers, res.boundary_flag_count, res.engine, "exact"]
        )
    _emit(config, columns, rows, fmt, out)


@cli.command(short_help="repetitivity brackets per radius")
@_common_options
@click.option("--window", default="60", show_default=True)
@click.option("--T", "t_list", default=DEFAULT_T, show_default=True)
@click.option(
    "--resolution", default=None, type=float,
    help="covering-radius tolerance for n >= 2: each bracket is at most half this wide",
)
def repetitivity(set_name, params, seed, out, fmt, window, t_list, resolution):
    """Certified brackets for the repetitivity function and its shift."""
    source, ps, region = _build(set_name, _parse_params(params), window)
    t_values = _parse_scalar_list(t_list, "--T")
    config = _config(
        "repetitivity",
        set=source.name,
        params=source.params,
        window=region.to_json(),
        T=t_values,
        resolution=resolution,
        seed=seed,
    )
    columns = [
        "T",
        "classes",
        "M_lower",
        "M_upper",
        "M_shift_lower",
        "M_shift_upper",
        "certified_floor",
        "notes",
        "tag",
    ]
    rows = []
    for T, res in zip(t_values, repetitivity_ladder(ps, t_values, resolution=resolution)):
        lo, hi = res.prime()
        rows.append(
            [
                T, res.n_lower, res.M_lower, res.M_upper, lo, hi, res.certified_floor,
                "; ".join(res.notes), "certified-bracket",
            ]
        )
    _emit(config, columns, rows, fmt, out)


@cli.command(short_help="patch frequencies over nested windows")
@_common_options
@click.option("--window", default="60", show_default=True)
@click.option("--T", "t_value", default=2.000001, show_default=True, type=float)
@click.option("--key", default=None, help="JSON list of address offsets; default: most common class")
def frequencies(set_name, params, seed, out, fmt, window, t_value, key):
    """Per-volume counts of one patch class over a ladder of windows."""
    source, ps, region = _build(set_name, _parse_params(params), window)
    if region.kind != "box":
        raise InvalidArgument("frequencies needs a box window")
    full = compute_atlas(ps, t_value)
    if key is not None:
        patch_key = make_patch_key(_parse_json_text(key, "--key"))
    else:
        patch_key = max(full.classes, key=lambda c: (c.centers.shape[0], c.key)).key
    # count inside fractions of the certified part of the window, scaled
    # about its center, so every ladder rung is fully covered by classified
    # centers wherever the window sits
    certified = region.erode(t_value + 1e-9)
    mid_half = [((lo + hi) / 2, (hi - lo) / 2) for (lo, hi) in certified.intervals]
    ladder = [
        Region.box([(c - h * s, c + h * s) for (c, h) in mid_half])
        for s in (0.4, 0.6, 0.8, 1.0)
    ]
    config = _config(
        "frequencies",
        set=source.name,
        params=source.params,
        window=region.to_json(),
        T=t_value,
        key=[list(v) for v in patch_key],
        seed=seed,
    )
    columns = ["region", "count", "volume", "frequency", "tag"]
    rows = []
    for row in patch_frequency(ps, patch_key, t_value, ladder, atlas=full):
        rows.append(
            [
                json.dumps(row.region.to_json(), sort_keys=True),
                row.count,
                row.volume,
                row.frequency,
                "exact",
            ]
        )
    _emit(config, columns, rows, fmt, out)


@cli.command(short_help="weight-distribution averages over box sizes")
@_common_options
@click.option("--window", default="400", show_default=True)
@click.option("--U", "u_list", default=DEFAULT_U, show_default=True)
@click.option(
    "--weight",
    default="count",
    show_default=True,
    type=click.Choice(["vol", "count", "white"]),
)
def wdist(set_name, params, seed, out, fmt, window, u_list, weight):
    """Upper/lower averaged densities of a local weight over boxes of side U."""
    source, ps, region = _build(set_name, _parse_params(params), window)
    u_values = _parse_scalar_list(u_list, "--U")
    if weight == "vol":
        wd = volume_weight(source.dimension)
    elif weight == "count":
        wd = point_count_weight(ps)
    else:
        wd = white_point_count_weight(ps)
    config = _config(
        "wdist",
        set=source.name,
        params=source.params,
        window=region.to_json(),
        U=u_values,
        weight=weight,
        seed=seed,
    )
    prof = density_profile(wd, region, u_values, seed=seed)
    columns = ["U", "f_plus", "f_minus", "f_median", "delta", "boxes", "tag"]
    rows = [
        [r.U, r.f_plus, r.f_minus, r.f_zero_median, r.delta, r.n_boxes, "sampled"]
        for r in prof.rows
    ]
    _emit(config, columns, rows, fmt, out)


@cli.command(short_help="autocorrelation and diffraction on a k-grid")
@_common_options
@click.option("--window", default="40", show_default=True)
@click.option("--T", "t_value", default=10.000001, show_default=True, type=float)
@click.option("--kmax", default=2.0, show_default=True, type=float)
@click.option("--kcount", default=401, show_default=True, type=int)
@click.option("--peaks", "peaks_only", is_flag=True, help="emit detected peaks instead of the grid")
def diffraction(set_name, params, seed, out, fmt, window, t_value, kmax, kcount, peaks_only):
    """Pair-difference autocorrelation of one ball window, then its cosine sum."""
    source, ps, region = _build(set_name, _parse_params(params), window)
    if source.dimension != 1:
        raise InvalidArgument("the k-grid sweep is one-dimensional; use the library directly for n >= 2")
    if kcount < 2:
        raise InvalidArgument("--kcount must be >= 2")
    ac = autocorrelation(ps, t_value)
    grid = np.linspace(0.0, kmax, kcount).reshape(-1, 1)
    spec = diffraction_estimate(ac, grid)
    config = _config(
        "diffraction",
        set=source.name,
        params=source.params,
        window=region.to_json(),
        T=t_value,
        kmax=kmax,
        kcount=kcount,
        peaks=bool(peaks_only),
        seed=seed,
        pairs=ac.point_count,
    )
    if peaks_only:
        columns = ["k", "intensity", "tag"]
        rows = [[float(p.k[0]), float(p.intensity), "float-sum"] for p in detect_peaks(spec)]
    else:
        columns = ["k", "intensity", "tag"]
        rows = [
            [float(k), float(v), "float-sum"]
            for k, v in zip(grid[:, 0], spec.intensity)
        ]
    _emit(config, columns, rows, fmt, out)


@cli.command(short_help="address basis, linear fit, displacement bounds")
@_common_options
@click.option("--window", default="200", show_default=True)
def address(set_name, params, seed, out, fmt, window):
    """Integer basis of the address group plus the linear part of the set."""
    source, ps, region = _build(set_name, _parse_params(params), window)
    amap = build_address_map(ps)
    fit = linear_fit(ps, amap)
    lip = lipschitz_constant(ps, amap, seed=seed)
    config = _config(
        "address",
        set=source.name,
        params=source.params,
        window=region.to_json(),
        seed=seed,
    )
    columns = ["field", "value", "tag"]
    lip_tag = "exact" if lip.mode == "all-pairs" else "sampled"
    rows = [
        ["origin", json.dumps([int(v) for v in amap.origin_address]), "exact"],
        ["basis", json.dumps([[int(v) for v in row] for row in amap.basis]), "exact"],
        ["rank", amap.rank, "exact"],
        [
            "degenerate_combination",
            json.dumps(
                None
                if amap.degenerate_combination is None
                else [int(v) for v in amap.degenerate_combination]
            ),
            "exact",
        ],
        ["proj_residual", fit.proj_residual, "least-squares"],
        ["max_residual", fit.max_residual, "least-squares"],
        ["residuals_zero", int(fit.residuals_zero), "least-squares"],
        ["residual_exponent", "" if fit.exponent is None else fit.exponent, "least-squares"],
        ["lipschitz", lip.value, lip_tag],
        ["lipschitz_pairs", lip.pairs_used, lip_tag],
    ]
    try:
        rep = meyer_residual(fit)
        rows.append(["bounded_residual", int(rep.bounded), "least-squares"])
        rows.append(["annulus_variation", rep.variation, "least-squares"])
    except DeloneLabError as exc:
        rows.append(["bounded_residual", "undetermined: %s" % exc, "least-squares"])
    _emit(config, columns, rows, fmt, out)


@cli.command(short_help="run a named check suite")
@click.argument("suite", default="all")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", default=None, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", default="csv", show_default=True, type=click.Choice(["csv", "json"]))
def verify(suite, seed, out, fmt):
    """Run one construction's checks (or `all`); nonzero exit on failure.

    Suites: lattice, fibonacci, cut-project, deleted-lines, two-color, words, all.
    """
    try:
        results = verify_mod.run_suite(suite, seed=seed)
    except KeyError as exc:
        raise InvalidArgument(str(exc.args[0])) from exc
    for line in verify_mod.render_lines(results):
        click.echo(line)
    if out:
        config = _config("verify", suite=suite, seed=seed)
        columns = ["suite", "check", "passed", "detail", "tag"]
        rows = [[r.suite, r.name, int(r.passed), r.detail, "exact"] for r in results]
        _emit(config, columns, rows, fmt, out)
    if any(not r.passed for r in results):
        raise VerificationFailure("%d checks failed" % sum(1 for r in results if not r.passed))


@cli.command(name="import-float", short_help="validate an external float point set")
@click.argument("path", type=click.Path(exists=False, dir_okay=False))
@click.option("--tolerance", default=None, type=float, help="override the file's separation tolerance")
@click.option("--out", default=None, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", default="csv", show_default=True, type=click.Choice(["csv", "json"]))
def import_float(path, tolerance, out, fmt):
    """Load a float point set, enforce pairwise separation, echo it back.

    Analyses of imported sets run in approximate mode: no integer addresses,
    so address maps and exact patch keys are unavailable.
    """
    with open(path) as fh:
        obj = json.load(fh)
    if "point_set" in obj:  # artifact produced by `generate --format json`
        obj = obj["point_set"]
    if "addresses" in obj:
        exact = ExactPointSet.from_json(obj)
        pts = exact.points
        region = exact.region
        tol = tolerance if tolerance is not None else 1e-9
        fps = FloatPointSet(pts, tolerance=tol, region=region)
    else:
        if tolerance is not None:
            obj = dict(obj, tolerance=tolerance)
        fps = FloatPointSet.from_json(obj)
    click.echo(
        "imported %d points, dimension %d, tolerance %s, mode approximate"
        % (len(fps), fps.dimension, repr(fps.tolerance))
    )
    if out:
        config = _config(
            "import-float",
            source_path=str(path),
            tolerance=fps.tolerance,
            count=len(fps),
        )
        columns = ["x%d" % i for i in range(fps.dimension)] + ["tag"]
        rows = [row + ["exact"] for row in fps.points.tolist()]
        _emit(config, columns, rows, fmt, out)


# ---------------------------------------------------------------------------
# entry point with the documented exit codes


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except VerificationFailure as exc:
        click.echo("verification failed: %s" % exc, err=True)
        raise SystemExit(EXIT_VERIFY)
    except ResourceLimit as exc:
        click.echo("budget exhausted: %s" % exc, err=True)
        raise SystemExit(EXIT_BUDGET)
    except DeloneLabError as exc:
        click.echo("bad configuration: %s" % exc, err=True)
        raise SystemExit(EXIT_BAD_CONFIG)
    except json.JSONDecodeError as exc:
        click.echo(
            "bad configuration: invalid JSON: %s (line %d, column %d)"
            % (exc.msg, exc.lineno, exc.colno),
            err=True,
        )
        raise SystemExit(EXIT_BAD_CONFIG)
    except OSError as exc:
        click.echo("file I/O error: %s" % exc, err=True)
        raise SystemExit(EXIT_IO)
    except click.ClickException as exc:
        exc.show()
        raise SystemExit(EXIT_BAD_CONFIG)
    except click.exceptions.Abort:
        raise SystemExit(EXIT_BAD_CONFIG)


if __name__ == "__main__":
    raise SystemExit(main())
