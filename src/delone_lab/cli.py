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
from .errors import DeloneLabError, InvalidArgument, ResourceLimit, WindowTooSmall
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


def _csv_field(value) -> str:
    """One artifact field: None is empty, any other value its str(), quoted
    when it holds a comma, a double quote or a line feed. A carriage return
    alone is not quoted; this is the rule of `csv.writer(lineterminator="\\n")`
    on Python 3.11, fixed here as the artifact format."""
    text = "" if value is None else value if isinstance(value, str) else str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# Rows go out ROW_BLOCK at a time; a block holds ROW_BLOCK times a row's
# widest bytes.
ROW_BLOCK = 8192
PAD = 0xFF  # pads every text to its column's width; UTF-8 never writes it


def _text_table(texts) -> np.ndarray:
    """The texts' UTF-8 bytes as the rows of a uint8 matrix padded with PAD,
    at least one byte wide."""
    data = "".join(texts).encode()
    sizes = np.fromiter(map(len, texts), np.intp, len(texts))
    if len(data) != sizes.sum():  # not all ASCII: count bytes, not characters
        sizes = np.fromiter((len(t.encode()) for t in texts), np.intp, len(texts))
    table = np.full((len(texts), max(1, sizes.max(initial=0))), PAD, np.uint8)
    table[np.arange(table.shape[1]) < sizes[:, None]] = np.frombuffer(data, np.uint8)
    return table


def _digit_table(values: np.ndarray) -> np.ndarray:
    """The decimal texts of an integer array as the rows of a uint8 matrix,
    right-aligned behind PAD, the sign in the first column: str() of each
    value, by numpy arithmetic."""
    negative = values < 0
    rest = values.astype(np.uint64)
    np.negative(rest, out=rest, where=negative)  # |value|, -2**63 included
    width = len(str(int(rest.max(initial=0))))
    table = np.full((len(values), width + 1), PAD, np.uint8)
    table[negative, 0] = ord("-")
    for col in range(width, 0, -1):
        digit = (rest % 10).astype(np.uint8) + ord("0")
        table[:, col] = digit if col == width else np.where(rest > 0, digit, PAD)
        rest //= 10
    return table


def _column_table(column, field):
    """A column's texts as a padded uint8 matrix, and each row's index into
    it in the narrowest unsigned dtype that holds it. An integer array gets
    the digits of its distinct values by numpy; a float64 array formats each
    distinct value once with str() (a float's str() is its repr; a NaN or
    an infinity goes through field), told apart by their bits, so 0.0 and
    -0.0 keep their own text. Any other column is formatted field by field,
    an array through its tolist() values."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        uniq, index = np.unique(column, return_inverse=True)
        table = _digit_table(uniq)
    elif isinstance(column, np.ndarray) and column.dtype == np.float64:
        uniq, index = np.unique(column.view(np.int64), return_inverse=True)
        uniq = uniq.view(np.float64)
        texts = list(map(str, uniq.tolist()))
        for j in np.flatnonzero(~np.isfinite(uniq)).tolist():
            texts[j] = field(uniq[j].item())
        table = _text_table(texts)
    else:
        values = column.tolist() if isinstance(column, np.ndarray) else column
        table, index = _text_table([field(v) for v in values]), np.arange(len(values))
    return table, index.astype(np.min_scalar_type(max(len(table) - 1, 0)))


class _Rows:
    """A list of rows held as columns: 1-D arrays, sequences, _Shared
    columns, or one string that fills every row. _json_chunks writes it
    through a _Table."""

    def __init__(self, columns):
        self.columns = list(columns)


class _Shared:
    """An integer column that two tables write. Its texts do not depend on
    the field, so the first table to meet it tables it for both."""

    def __init__(self, column):
        self.column, self.tabled = column, None


class _Table:
    """Rows filled from per-column byte tables, ROW_BLOCK rows at a time.

    A row is lead, the columns' fields with sep between them, then tail;
    join goes between rows. Each field is rendered by field, and a string
    column is that literal on every row. Every column is tabled here, so
    columns of different lengths are refused before a byte is written.
    Iterating yields the rows' UTF-8 bytes block by block: a block is a
    matrix of rows with the literals in place, each column's texts are
    taken into it as one void value a row, and the PAD bytes dropped."""

    def __init__(self, columns, field, lead: str, sep: str, tail: str, join: str = ""):
        self.skip = len(join.encode())
        row = bytearray((join + lead).encode())  # one row's literals, PAD where a column goes
        self.columns = []  # (offset in the row, texts as void values, row index)
        for j, column in enumerate(columns):
            row += (sep if j else "").encode()
            if isinstance(column, str):
                row += field(column).encode()
                continue
            if isinstance(column, _Shared) and column.tabled is None:
                column.tabled = _column_table(column.column, field)
            texts, index = column.tabled if isinstance(column, _Shared) else _column_table(column, field)
            self.columns.append((len(row), texts.view("V%d" % texts.shape[1]).ravel(), index))
            row += bytes([PAD]) * texts.shape[1]
        row += tail.encode()
        lengths = {len(index) for _, _, index in self.columns}
        if len(lengths) != 1:
            raise ValueError("columns of different lengths")
        self.n = lengths.pop()
        self.row = np.frombuffer(bytes(row), np.uint8)
        self.dtype = np.dtype({
            "names": ["c%d" % j for j in range(len(self.columns))],
            "formats": [texts.dtype for _, texts, _ in self.columns],
            "offsets": [offset for offset, _, _ in self.columns],
            "itemsize": len(row),
        })

    def __iter__(self):
        block = np.tile(self.row, (min(ROW_BLOCK, self.n), 1))
        records = block.view(self.dtype)[:, 0]
        for start in range(0, self.n, ROW_BLOCK):
            rows = records[: self.n - start]
            for name, (_, texts, index) in zip(self.dtype.names, self.columns):
                rows[name] = texts.take(index[start : start + len(rows)])
            data = block[: len(rows)].tobytes().translate(None, bytes([PAD]))
            yield data[self.skip :] if start == 0 else data


def _json_field(indent: str):
    """json.dumps of one value nested at this indent of an indent=2 text."""
    return lambda v: json.dumps(v, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _json_chunks(value, indent: str = ""):
    """json.dumps(value, sort_keys=True, indent=2) in chunks, byte for
    byte, where a _Rows stands for its list of rows and every dict has
    string keys. A chunk is UTF-8 bytes, or a _Table of a _Rows' rows."""
    inner = indent + "  "
    if isinstance(value, _Rows):
        lead = "\n%s[\n%s  " % (inner, inner)
        rows = _Table(value.columns, _json_field(inner + "  "), lead, ",\n  " + inner, "\n%s]" % inner, ",")
        if not rows.n:
            yield b"[]"
            return
        yield b"["
        yield rows
        yield ("\n" + indent + "]").encode()
    elif isinstance(value, dict) and value:
        for j, key in enumerate(sorted(value)):
            yield ((",\n" if j else "{\n") + inner + json.dumps(key) + ": ").encode()
            yield from _json_chunks(value[key], inner)
        yield ("\n" + indent + "}").encode()
    else:
        yield _json_field(indent)(value).encode()


def _emit(
    config: dict,
    table: dict,
    fmt: str,
    out: Optional[str],
    extra_json: Optional[dict] = None,
):
    """Write an artifact from a table of named columns. A column is a 1-D
    array, a sequence, a _Shared column, or one string that fills every row
    (a tag). Every column is tabled before --out is opened; the rows then go
    out a block at a time, as UTF-8 bytes to the file or as text to stdout."""
    if fmt == "csv":
        head = "# " + json.dumps(config, sort_keys=True) + "\n" + ",".join(map(_csv_field, table)) + "\n"
        chunks = [head.encode(), _Table(table.values(), _csv_field, "", ",", "\n")]
    else:
        payload = {"config": config, "columns": list(table), "rows": _Rows(table.values())}
        if extra_json:
            payload.update(extra_json)
        chunks = [*_json_chunks(payload), b"\n"]
    blocks = (data for chunk in chunks for data in ([chunk] if isinstance(chunk, bytes) else chunk))
    if out:
        with open(out, "wb") as fh:
            fh.writelines(blocks)
    else:
        sys.stdout.writelines(data.decode() for data in blocks)


def _source(command: str, set_name: str, params: Optional[str], window: str, seed: int, extra: Sequence[str] = (), **fields):
    """The cheap prologue of every set command: the construction recipe, the
    window parsed against its dimension, and the artifact config. Nothing is
    materialized here. A command parses every option before this call, runs
    the checks that need only the source or the region after it, and then
    calls `source.materialize(region)` once."""
    merged = _parse_params(params)
    merged.update(_extra_params(extra))
    source = build_source(set_name.replace("-", "_"), merged)
    region = _parse_window(window, source.dimension)
    config = _config(
        command, set=source.name, params=source.params, window=region.to_json(), seed=seed, **fields
    )
    return source, region, config


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
    source, region, config = _source("generate", set_name, params, window, seed, extra)
    ps = source.materialize(region)
    config["count"] = len(ps.addresses)
    table = {"x%d" % i: ps.points[:, i] for i in range(ps.dimension)}
    addresses = [_Shared(column) for column in ps.addresses.T]  # JSON writes them twice
    table.update(("a%d" % j, column) for j, column in enumerate(addresses))
    table["tag"] = "exact"
    # JSON artifacts double as reloadable point-set files: ExactPointSet.to_json's
    # fields, with the addresses written by column
    extra = None
    if fmt == "json":
        fields = dict(dimension=ps.dimension, rank=ps.rank, projection=ps.projection.tolist())
        extra = {"point_set": dict(fields, addresses=_Rows(addresses), region=ps.region.to_json())}
    _emit(config, table, fmt, out, extra_json=extra)


@cli.command(short_help="patch classes per radius")
@_common_options
@click.option("--window", default="60", show_default=True)
@click.option("--T", "t_list", default=DEFAULT_T, show_default=True, help="comma list of radii")
@click.option("--shape", default="ball", show_default=True, type=click.Choice(["ball", "cube"]))
def atlas(set_name, params, seed, out, fmt, window, t_list, shape):
    """Count patch classes on certified interior centers."""
    t_values = _parse_scalar_list(t_list, "--T")
    source, region, config = _source("atlas", set_name, params, window, seed, T=t_values, shape=shape)
    ps = source.materialize(region)
    ladder = atlas_ladder(ps, t_values, shape=shape)
    table = {
        "T": t_values,
        "classes": [res.n_lower for res in ladder],
        "centers": [res.total_centers for res in ladder],
        "boundary_flags": [res.boundary_flag_count for res in ladder],
        "engine": [res.engine for res in ladder],
        "tag": "exact",
    }
    _emit(config, table, fmt, out)


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
    if resolution is not None and not resolution > 0:  # NaN fails too
        raise InvalidArgument("resolution must be positive")
    t_values = _parse_scalar_list(t_list, "--T")
    source, region, config = _source(
        "repetitivity", set_name, params, window, seed, T=t_values, resolution=resolution
    )
    ps = source.materialize(region)
    ladder = repetitivity_ladder(ps, t_values, resolution=resolution)
    shifted = [res.prime() for res in ladder]
    table = {
        "T": t_values,
        "classes": [res.n_lower for res in ladder],
        "M_lower": [res.M_lower for res in ladder],
        "M_upper": [res.M_upper for res in ladder],
        "M_shift_lower": [lo for lo, _ in shifted],
        "M_shift_upper": [hi for _, hi in shifted],
        "certified_floor": [res.certified_floor for res in ladder],
        "notes": ["; ".join(res.notes) for res in ladder],
        "tag": "certified-bracket",
    }
    _emit(config, table, fmt, out)


@cli.command(short_help="patch frequencies over nested windows")
@_common_options
@click.option("--window", default="60", show_default=True)
@click.option("--T", "t_value", default=2.000001, show_default=True, type=float)
@click.option("--key", default=None, help="JSON list of address offsets; default: most common class")
def frequencies(set_name, params, seed, out, fmt, window, t_value, key):
    """Per-volume counts of one patch class over a ladder of windows."""
    patch_key = None if key is None else make_patch_key(_parse_json_text(key, "--key"))
    source, region, config = _source("frequencies", set_name, params, window, seed, T=t_value)
    if region.kind != "box":
        raise InvalidArgument("frequencies needs a box window")
    ps = source.materialize(region)
    full = compute_atlas(ps, t_value)
    if patch_key is None:
        if not full.classes:
            raise WindowTooSmall("no certified patch centers in the window")
        # classes come in key order: the last of the most common has the largest key
        patch_key = max(reversed(full.classes), key=lambda c: c.center_rows.size).key
    config["key"] = [list(v) for v in patch_key]
    # count inside fractions of the certified part of the window, scaled
    # about its center, so every ladder rung is fully covered by classified
    # centers wherever the window sits
    certified = region.erode(t_value + 1e-9)
    mid_half = [((lo + hi) / 2, (hi - lo) / 2) for (lo, hi) in certified.intervals]
    ladder = [
        Region.box([(c - h * s, c + h * s) for (c, h) in mid_half])
        for s in (0.4, 0.6, 0.8, 1.0)
    ]
    counts = patch_frequency(ps, patch_key, t_value, ladder, atlas=full)
    table = {
        "region": [json.dumps(row.region.to_json(), sort_keys=True) for row in counts],
        "count": [row.count for row in counts],
        "volume": [row.volume for row in counts],
        "frequency": [row.frequency for row in counts],
        "tag": "exact",
    }
    _emit(config, table, fmt, out)


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
    u_values = _parse_scalar_list(u_list, "--U")
    source, region, config = _source("wdist", set_name, params, window, seed, U=u_values, weight=weight)
    if weight == "white" and source.name != "two_color":
        raise InvalidArgument("--weight white counts the white points of --set two-color only")
    if weight == "vol":  # reads no point, so the window is never built
        wd = volume_weight(source.dimension)
    else:
        ps = source.materialize(region)
        wd = point_count_weight(ps) if weight == "count" else white_point_count_weight(ps)
    rows = density_profile(wd, region, u_values, seed=seed).rows
    table = {
        "U": [r.U for r in rows],
        "f_plus": [r.f_plus for r in rows],
        "f_minus": [r.f_minus for r in rows],
        "f_median": [r.f_zero_median for r in rows],
        "delta": [r.delta for r in rows],
        "boxes": [r.n_boxes for r in rows],
        "tag": "sampled",
    }
    _emit(config, table, fmt, out)


@cli.command(short_help="autocorrelation and diffraction on a k-grid")
@_common_options
@click.option("--window", default="40", show_default=True)
@click.option("--T", "t_value", default=10.000001, show_default=True, type=float)
@click.option("--kmax", default=2.0, show_default=True, type=float)
@click.option("--kcount", default=401, show_default=True, type=int)
@click.option("--peaks", "peaks_only", is_flag=True, help="emit detected peaks instead of the grid")
def diffraction(set_name, params, seed, out, fmt, window, t_value, kmax, kcount, peaks_only):
    """Pair-difference autocorrelation of one ball window, then its cosine sum."""
    if kcount < 2:
        raise InvalidArgument("--kcount must be >= 2")
    if not np.isfinite(kmax):
        raise InvalidArgument("k grid must be finite")
    source, region, config = _source(
        "diffraction", set_name, params, window, seed,
        T=t_value, kmax=kmax, kcount=kcount, peaks=bool(peaks_only),
    )
    if source.dimension != 1:
        raise InvalidArgument("the k-grid sweep is one-dimensional; use the library directly for n >= 2")
    ps = source.materialize(region)
    ac = autocorrelation(ps, t_value)
    grid = np.linspace(0.0, kmax, kcount).reshape(-1, 1)
    spec = diffraction_estimate(ac, grid)
    config["pairs"] = ac.point_count
    if peaks_only:
        peaks = detect_peaks(spec)
        table = {"k": [float(p.k[0]) for p in peaks], "intensity": [float(p.intensity) for p in peaks]}
    else:
        table = {"k": grid[:, 0], "intensity": spec.intensity}
    table["tag"] = "float-sum"
    _emit(config, table, fmt, out)


@cli.command(short_help="address basis, linear fit, displacement bounds")
@_common_options
@click.option("--window", default="200", show_default=True)
def address(set_name, params, seed, out, fmt, window):
    """Integer basis of the address group plus the linear part of the set."""
    source, region, config = _source("address", set_name, params, window, seed)
    ps = source.materialize(region)
    amap = build_address_map(ps)
    fit = linear_fit(ps, amap)
    lip = lipschitz_constant(ps, amap, seed=seed)
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
    names, values, tags = zip(*rows)
    _emit(config, {"field": names, "value": values, "tag": tags}, fmt, out)


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
        table = {
            "suite": [r.suite for r in results],
            "check": [r.name for r in results],
            "passed": [int(r.passed) for r in results],
            "detail": [r.detail for r in results],
            "tag": "exact",
        }
        _emit(config, table, fmt, out)
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
    if isinstance(obj, dict) and "point_set" in obj:  # a `generate --format json` artifact
        obj = obj["point_set"]
    if not isinstance(obj, dict):
        raise InvalidArgument("a point-set file holds a JSON object, not a %s" % type(obj).__name__)
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
        table = {"x%d" % i: fps.points[:, i] for i in range(fps.dimension)}
        table["tag"] = "exact"
        _emit(config, table, fmt, out)


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
    except MemoryError as exc:
        click.echo("budget exhausted: %s" % (str(exc) or "out of memory"), err=True)
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
