"""Command-line surface: artifacts, exit codes, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delone_lab.cli as cli_mod
import delone_lab.repetitivity as repetitivity_mod
import delone_lab.verify as verify_mod
from delone_lab.atlas import PatchClass, atlas_ladder, compute_atlas
from delone_lab.cli import main
from delone_lab.core import ExactPointSet, FloatPointSet, Region, make_patch_key
from delone_lab.ergodic import WeightDistribution, density_profile
from delone_lab.errors import ResourceLimit
from delone_lab.generators import PointSetSource, TwoColorStructure, build_source
from delone_lab.verify import CheckResult


def run_cli(argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    config = json.loads(lines[0][2:])
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return config, rows[0], rows[1:]


FIB = ["--set", "fibonacci"]
# (argv, part of the message): each option is bad, and each window is large
BAD_OPTION_CASES = [
    pytest.param(
        ["repetitivity", *FIB, "--window", "20000", "--resolution", "-1"],
        "resolution must be positive", id="resolution",
    ),
    pytest.param(
        ["diffraction", *FIB, "--window", "2000", "--T", "1500", "--kmax", "nan"],
        "k grid must be finite", id="kmax",
    ),
    pytest.param(
        ["frequencies", *FIB, "--window", "20000", "--key", '[[0], ["x"]]'],
        "list of integer vectors", id="key",
    ),
    pytest.param(
        ["frequencies", *FIB, "--window", "20000", "--key", "[[0], [true]]"],
        "is a boolean", id="bool-key",
    ),
    pytest.param(
        ["frequencies", *FIB, "--window", '{"kind": "ball", "center": [0], "radius": 600}'],
        "needs a box window", id="ball-window",
    ),
    pytest.param(["atlas", *FIB, "--window", "300000", "--T", "abc"], "--T", id="atlas-T"),
    pytest.param(["repetitivity", *FIB, "--window", "300000", "--T", "abc"], "--T", id="repetitivity-T"),
    pytest.param(["wdist", *FIB, "--window", "300000", "--U", "abc"], "--U", id="wdist-U"),
    pytest.param(
        ["wdist", *FIB, "--window", "300000", "--weight", "white"], "--set two-color", id="white-weight"
    ),
    pytest.param(
        ["diffraction", "--set", "zn", "--params", '{"n": 2}', "--window", "600"],
        "one-dimensional", id="diffraction-2d",
    ),
    pytest.param(["generate", *FIB, "--window", "300000", "--alpha"], "missing a value", id="generate-flag"),
    pytest.param(
        ["address", *FIB, "--window", "300000", "--params", "[1]"], "JSON object", id="address-params"
    ),
]


class TestGenerate:
    def test_square_lattice_121_points(self, capsys):
        assert run_cli(["generate", "--set", "zn", "--n", "2", "--window", "5"]) == 0
        config, header, rows = parse_csv(capsys.readouterr().out)
        assert config["count"] == 121 and len(rows) == 121
        assert config["tool"] == "delone-lab" and config["command"] == "generate"
        assert config["set"] == "zn" and config["params"] == {"n": 2, "deletions": []}
        assert header == ["x0", "x1", "a0", "a1", "tag"]
        assert all(r[-1] == "exact" for r in rows)

    def test_json_artifact_reloads(self, tmp_path, capsys):
        art = tmp_path / "fib.json"
        code = run_cli(
            ["generate", "--set", "fibonacci", "--window", "20", "--format", "json", "--out", str(art)]
        )
        assert code == 0
        obj = json.loads(art.read_text())
        assert set(obj) >= {"config", "columns", "rows", "point_set"}
        assert len(obj["rows"]) == obj["config"]["count"]
        # the block holds what ExactPointSet.to_json holds
        assert obj["point_set"] == ExactPointSet.from_json(obj["point_set"]).to_json()

        assert run_cli(["import-float", str(art)]) == 0
        echo = capsys.readouterr().out
        assert "mode approximate" in echo
        assert "imported %d points" % obj["config"]["count"] in echo

    @pytest.mark.parametrize(
        "name, params, dimension",
        [
            ("zn", {"n": 2}, 2),
            ("product", {"factors": [{"set": "zn"}, {"set": "fibonacci"}]}, 2),
            ("deleted_lines", {"a": [2]}, 3),
        ],
    )
    def test_zero_radius_ball_holds_the_origin(self, name, params, dimension, capsys):
        window = {"kind": "ball", "center": [0] * dimension, "radius": 0}
        argv = ["generate", "--set", name, "--params", json.dumps(params), "--window", json.dumps(window)]
        assert run_cli(argv) == 0
        config, header, rows = parse_csv(capsys.readouterr().out)
        assert config["count"] == 1
        assert rows == [["0.0"] * dimension + ["0"] * (len(header) - dimension - 1) + ["exact"]]

    def test_subprocess_byte_determinism(self, cli_env):
        cmd = [sys.executable, "-m", "delone_lab.cli", "generate", "--set", "fibonacci", "--window", "30"]
        a = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
        b = subprocess.run(cmd, capture_output=True, check=True, env=cli_env)
        assert a.stdout == b.stdout and a.stdout

    def test_threads_echoed_in_config(self, capsys, monkeypatch):
        monkeypatch.setenv("DELONE_LAB_THREADS", "2")
        assert run_cli(["generate", "--set", "zn", "--window", "3"]) == 0
        config, _, _ = parse_csv(capsys.readouterr().out)
        assert config["threads"] == "2"

    @pytest.mark.parametrize("threads", ["abc", "0", "-2"])
    def test_bad_threads_is_bad_configuration(self, threads, capsys, monkeypatch):
        monkeypatch.setenv("DELONE_LAB_THREADS", threads)
        for argv in (
            ["repetitivity", "--set", "zn", "--params", '{"n": 2}', "--window", "8", "--T", "2"],
            # rejected before any check runs, not reported as failed checks
            ["verify", "deleted-lines", "--seed", "0"],
        ):
            assert run_cli(argv) == 1
            captured = capsys.readouterr()
            assert "bad configuration" in captured.err
            assert "[FAIL]" not in captured.out


def row_by_row_generate(config, fmt):
    """A `generate` artifact built one element and one row at a time."""
    source = build_source(config["set"], config["params"])
    ps = source.materialize(Region.from_json(config["window"]))
    columns = ["x%d" % i for i in range(ps.dimension)] + ["a%d" % j for j in range(ps.rank)] + ["tag"]
    rows = []
    for pos, addr in zip(ps.points, ps.addresses):
        rows.append([float(v) for v in pos] + [int(v) for v in addr] + ["exact"])
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("# " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()
    point_set = {
        "dimension": ps.dimension,
        "rank": ps.rank,
        "projection": [list(map(float, row)) for row in ps.projection],
        "addresses": [list(map(int, row)) for row in ps.addresses],
        "region": ps.region.to_json(),
    }
    payload = {"config": config, "columns": columns, "rows": rows, "point_set": point_set}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestGenerateRows:
    CASES = [
        ("zn", {"n": 2, "deletions": [[0, 0], [3, 1], [3, 1], [40, 40]]}, [[-12.5, 9], [-4, 11]]),
        ("product", {"factors": [{"set": "fibonacci"}, {"set": "fibonacci"}]}, [[-7.3, 8.1], [-6.2, 5.9]]),
        ("deleted_lines", {"a": [2, 10]}, [[-5, 6], [-4, 4], [-6, 3]]),
    ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name, params, window", CASES)
    def test_bytes_match_row_by_row_reference(self, tmp_path, name, params, window, fmt):
        art = tmp_path / ("a." + fmt)
        argv = [
            "generate", "--set", name, "--params", json.dumps(params),
            "--window", json.dumps({"kind": "box", "intervals": window}),
            "--format", fmt, "--out", str(art),
        ]
        assert run_cli(argv) == 0
        text = art.read_text()
        config = json.loads(text.splitlines()[0][2:]) if fmt == "csv" else json.loads(text)["config"]
        assert config["count"] > 10
        assert text == row_by_row_generate(config, fmt)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(
            [
                ("zn", {"n": 1}),
                ("zn", {"n": 2, "deletions": [[0, 0], [3, 1]]}),
                ("fibonacci", {}),
                ("cut_project", {"alpha": "golden"}),
                ("product", {"factors": [{"set": "fibonacci"}, {"set": "zn"}]}),
                ("deleted_lines", {"a": [2, 10]}),
                ("two_color", {"n": 2, "a": [100, 144]}),
            ]
        ),
        st.sampled_from([0.0, -3.7, 3e5]),
        st.floats(0.25, 9.0),
        st.booleans(),
    )
    def test_json_bytes_match_json_dumps(self, source, center, half, ball):
        """`generate --format json`, written column by column, against
        json.dumps(payload, sort_keys=True, indent=2) of its rows and point
        set, on boxes and balls, empty ones and ones far from the origin."""
        name, params = source
        n = build_source(name, params).dimension
        center = min(center, 100.0) if name == "two_color" else center  # its 2 levels span ±120
        window = (
            {"kind": "ball", "center": [center] * n, "radius": half - 0.25}
            if ball
            else {"kind": "box", "intervals": [[center - half, center + half]] * n}
        )
        argv = ["generate", "--set", name, "--params", json.dumps(params), "--window", json.dumps(window)]
        with contextlib.redirect_stdout(io.StringIO()) as sink:
            assert run_cli(argv + ["--format", "json"]) == 0
        text = sink.getvalue()
        assert text == row_by_row_generate(json.loads(text)["config"], "json")

    def test_csv_never_builds_the_point_set_json(self, capsys, monkeypatch):
        calls = []
        orig = ExactPointSet.to_json

        def counted(self):
            calls.append(len(self))
            return orig(self)

        monkeypatch.setattr(ExactPointSet, "to_json", counted)
        assert run_cli(["generate", "--set", "zn", "--n", "2", "--window", "4"]) == 0
        assert calls == []
        # JSON writes the point set's fields itself, its addresses by column
        assert run_cli(["generate", "--set", "zn", "--n", "2", "--window", "4", "--format", "json"]) == 0
        assert calls == []
        capsys.readouterr()

    def test_import_float_rows_match_elementwise(self, tmp_path, capsys):
        src = tmp_path / "pts.json"
        pts = [[0.1, -2.5], [1.0 / 3.0, 7.25], [-0.0, 1e-17]]
        fps = FloatPointSet(np.array(pts), 1e-3, Region.centered_box(2, 10.0))
        src.write_text(json.dumps(fps.to_json()))
        assert json.loads(src.read_text())["points"] == [list(map(float, r)) for r in fps.points]
        art = tmp_path / "out.csv"
        assert run_cli(["import-float", str(src), "--out", str(art)]) == 0
        _, header, rows = parse_csv(art.read_text())
        assert header == ["x0", "x1", "tag"]
        assert rows == [[repr(float(v)) for v in r] + ["exact"] for r in fps.points]
        capsys.readouterr()


FLOAT_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, -1e16, 1e15, 0.1, 1e-5, 2.5]
FLOATS = st.sampled_from(FLOAT_EDGES) | st.floats()
INT64 = st.integers(-3, 3) | st.integers(-(2**63), 2**63 - 1)
BIG_INTS = st.integers(-(2**80), 2**80)  # AddressMap.phi yields Python ints past the int64 bound


def csv_quotes_a_bare_carriage_return():
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["a\rb"])
    return buf.getvalue() != "a\rb\n"


# The artifact format leaves a bare "\r" unquoted, as csv.writer does on
# Python 3.11; the oracle draws "\r" wherever the running csv agrees, and
# test_a_bare_carriage_return_is_not_quoted pins the format everywhere.
CR = [] if csv_quotes_a_bare_carriage_return() else ["\r"]
TEXT = st.text(alphabet=[",", '"', "\n", " ", "%", "a", "é", "0"] + CR, max_size=6)


@st.composite
def column_tables(draw):
    """A table of named columns of every kind `_emit` takes, and its rows
    as lists of Python values. The "pooled" arrays draw from a few values,
    so that most rows repeat one."""
    n = draw(st.integers(0, 16))

    def values(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    def pooled(elements):
        return values(st.sampled_from(draw(st.lists(elements, min_size=1, max_size=3))))

    kinds = {
        "float64": lambda: np.array(values(FLOATS)),
        "float64-pooled": lambda: np.array(pooled(FLOATS), dtype=np.float64),
        "int64": lambda: np.array(values(INT64), dtype=np.int64),
        "int64-pooled": lambda: np.array(pooled(INT64), dtype=np.int64),
        "big-int": lambda: values(BIG_INTS),
        "big-int-array": lambda: np.array(values(BIG_INTS), dtype=object),
        "bool-array": lambda: np.array(values(st.booleans()), dtype=bool),
        "text": lambda: values(TEXT),
        "mixed": lambda: values(st.none() | FLOATS | st.integers() | TEXT | st.booleans()),
        "tag": lambda: draw(TEXT),
    }
    chosen = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=5))
    chosen.append(draw(st.sampled_from(sorted(set(kinds) - {"tag"}))))  # one column sets the length
    names = draw(st.lists(TEXT, min_size=len(chosen), max_size=len(chosen), unique=True))
    table = {name: kinds[kind]() for name, kind in zip(names, chosen)}
    return table, table_rows(table)


def table_rows(table):
    n = len(next(c for c in table.values() if not isinstance(c, str)))
    columns = [
        [c] * n if isinstance(c, str) else c.tolist() if isinstance(c, np.ndarray) else c
        for c in table.values()
    ]
    return [list(row) for row in zip(*columns)]


def emitted(table, fmt):
    config = {"command": "test"}
    with contextlib.redirect_stdout(io.StringIO()) as sink:
        cli_mod._emit(config, table, fmt, None)
    return sink.getvalue()


class TestColumnWriter:
    @settings(max_examples=300, deadline=None)
    @given(column_tables())
    @example(({"x": np.array([0.0, -0.0, 0.0, -0.0, 0.0]), "tag": "exact"}, None))
    def test_bytes_equal_csv_writer_and_json_of_rows(self, table_and_rows):
        """The column writer against `csv.writer` over the same rows, and
        the JSON artifact against one built from the rows."""
        table, rows = table_and_rows
        rows = table_rows(table) if rows is None else rows
        buf = io.StringIO()
        buf.write('# {"command": "test"}\n')
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(table))
        writer.writerows(rows)
        assert emitted(table, "csv") == buf.getvalue()
        payload = {"config": {"command": "test"}, "columns": list(table), "rows": rows}
        assert emitted(table, "json") == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_a_bare_carriage_return_is_not_quoted(self):
        table = {"s": ["a\rb", "c\nd", "e,f"], "tag": "t\r"}
        assert emitted(table, "csv") == '# {"command": "test"}\ns,tag\na\rb,t\r\n"c\nd",t\r\n"e,f",t\r\n'

    def test_columns_of_other_lengths_are_refused(self):
        for table in ({"a": [1, 2], "b": [1], "tag": "t"}, {"a": np.arange(3.0), "tag": "t", "b": [0, 1]}):
            with pytest.raises((ValueError, TypeError)):
                emitted(table, "csv")
            with pytest.raises(ValueError):
                emitted(table, "json")


# one small run of every command; import-float reads a `generate` JSON artifact
SMALL_RUNS = [
    ["generate", "--set", "zn", "--n", "2", "--window", "4"],
    ["generate", "--set", "product", "--params", '{"factors": [{"set": "fibonacci"}, {"set": "fibonacci"}]}',
     "--window", "6"],
    ["atlas", "--set", "fibonacci", "--window", "40"],
    ["repetitivity", "--set", "fibonacci", "--window", "40", "--T", "1.5,2.5"],
    ["frequencies", "--set", "zn", "--window", "30"],
    ["wdist", "--set", "fibonacci", "--window", "400"],
    ["diffraction", "--set", "fibonacci", "--window", "40", "--kcount", "21"],
    ["diffraction", "--set", "zn", "--window", "40", "--kmax", "1", "--kcount", "11", "--peaks"],
    ["address", "--set", "fibonacci", "--window", "60"],
    ["verify", "lattice"],
    ["import-float"],
]


class TestCrossFormat:
    def test_every_command_has_a_run(self):
        assert {argv[0] for argv in SMALL_RUNS} == set(cli_mod.cli.commands)

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: "-".join(argv[:3]))
    def test_csv_is_csv_writer_over_the_json_rows(self, argv, tmp_path, capsys):
        if argv[0] == "import-float":
            src = tmp_path / "points.json"
            generate = ["generate", "--set", "fibonacci", "--window", "20", "--format", "json"]
            assert run_cli(generate + ["--out", str(src)]) == 0
            argv = ["import-float", str(src)]
        text = {}
        for fmt in ("csv", "json"):
            art = tmp_path / ("artifact." + fmt)
            assert run_cli(argv + ["--format", fmt, "--out", str(art)]) == 0
            text[fmt] = art.read_text()
        capsys.readouterr()
        obj = json.loads(text["json"])
        assert obj["rows"]
        buf = io.StringIO()
        buf.write("# " + json.dumps(obj["config"], sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(obj["columns"])
        writer.writerows(obj["rows"])
        assert text["csv"] == buf.getvalue()


# SHA-256 of the `address` CSV artifact on the benchmark's address inputs at
# seed 0: basis, tags and Lipschitz bytes all count. The least-squares rows
# rest on LAPACK, so another numpy build may need the digests taken again.
FIB_PARAMS = "{}"
FIBXFIB_PARAMS = '{"factors": [{"set": "fibonacci"}, {"set": "fibonacci"}]}'
ADDRESS_SHA256 = {
    "fib-2000": (
        "fibonacci", FIB_PARAMS, [[-2020, 1980]],
        "cb4bb892588ca050f7ad86ea2fd380bdbe196b3cc8776cc77ce66c47e85d85de",
    ),
    "fib-10000": (
        "fibonacci", FIB_PARAMS, [[-10020, 9980]],
        "14331efd60eaac07d0ca2722273aee0b3eaf642d5db3fbba4ecd748fbee9ccdd",
    ),
    "z2-holes-60": (
        "zn", '{"deletions": [[5, 0], [8, 1]], "n": 2}', [[-55, 65], [-60, 60]],
        "b148eb1a4a50c01a944bf3d9963b9456b95491d7f770bf49b414dc2369677402",
    ),
    "fibxfib-20": (
        "product", FIBXFIB_PARAMS,
        [[-20.825037066792895, 19.174962933207105], [-22.89253805914673, 17.10746194085327]],
        "3182c9d736d389dce5ae7da10389a82268e14ba6948b1d7fd1a01e05b179d71e",
    ),
    "deleted-lines-6": (
        "deleted_lines", '{"a": [2, 10]}', [[-10, 2], [-9, 3], [-8, 4]],
        "3ab2e48f01848a6f39eec64086fd9d73683fdf1954c95e989dd7722c8e0b6b8a",
    ),
}


class TestAnalysisCommands:
    def test_atlas_rows_and_default_T(self, capsys):
        assert run_cli(["atlas", "--set", "zn", "--window", "30"]) == 0
        config, header, rows = parse_csv(capsys.readouterr().out)
        assert config["T"] == [2.000001, 4.000001, 8.000001]
        assert header[:2] == ["T", "classes"]
        assert [r[1] for r in rows] == ["1", "1", "1"]
        assert all(r[-1] == "exact" for r in rows)

    def test_repetitivity_bracket_rows(self, capsys):
        code = run_cli(
            ["repetitivity", "--set", "fibonacci", "--window", "40", "--T", "1.5"]
        )
        assert code == 0
        config, header, rows = parse_csv(capsys.readouterr().out)
        assert header == [
            "T", "classes", "M_lower", "M_upper",
            "M_shift_lower", "M_shift_upper", "certified_floor", "notes", "tag",
        ]
        (row,) = rows
        assert row[-1] == "certified-bracket"
        assert float(row[4]) == pytest.approx(float(row[2]) + 1.5)

    def test_repetitivity_notes_column(self, capsys):
        # Z has covering radius 1/2: above T = 0.3, below T = 2
        code = run_cli(["repetitivity", "--set", "zn", "--window", "20", "--T", "0.3,2.000001"])
        assert code == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert [float(r[2]) for r in rows] == [0.5, 0.5]
        notes = [r[header.index("notes")] for r in rows]
        assert "window effects may over-report M_lower" in notes[0]
        assert notes[1] == ""

    def test_frequencies_far_window_ladder(self, capsys):
        window = json.dumps({"kind": "box", "intervals": [[300000, 304000]]})
        T = 2.000001
        assert run_cli(["frequencies", "--set", "fibonacci", "--window", window]) == 0
        config, _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 4
        # brute force: the patch key of every point, from its distances alone
        src = build_source("fibonacci", {})
        ps = src.materialize(Region.from_json(config["window"]))
        x, addr = ps.points[:, 0], ps.addresses
        key = make_patch_key(config["key"])
        certified = ps.region.erode(T)
        for r in rows:
            (lo, hi), = json.loads(r[0])["intervals"]
            want = 0
            for i in np.nonzero((x >= lo) & (x <= hi))[0]:
                assert certified.contains(ps.points[i : i + 1])[0]
                near = np.abs(x - x[i]) <= T + 1e-9
                want += make_patch_key((addr[near] - addr[i]).tolist()) == key
            assert int(r[1]) == want > 0

    def test_frequencies_centered_ladder_scales_the_box(self, capsys):
        assert run_cli(["frequencies", "--set", "zn", "--window", "30"]) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        (lo, hi), = Region.centered_box(1, 30.0).erode(2.000001 + 1e-9).intervals
        got = [json.loads(r[0])["intervals"] for r in rows]
        assert got == [[[lo * s, hi * s]] for s in (0.4, 0.6, 0.8, 1.0)]

    def test_frequencies_computes_one_atlas(self, capsys, monkeypatch):
        import delone_lab.cli as cli_mod
        import delone_lab.ergodic as ergodic_mod

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return compute_atlas(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "compute_atlas", counted)
        monkeypatch.setattr(ergodic_mod, "compute_atlas", counted)
        assert run_cli(["frequencies", "--set", "zn", "--window", "30"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "set_name, params, window, tied",
        [
            # T-patches of Z less every third point: two classes, one each way,
            # of one count in a symmetric window
            ("zn", {"n": 1, "deletions": [[k] for k in range(-30, 31, 3)]}, "30", True),
            ("fibonacci", {}, "40", True),
            ("zn", {"n": 2, "deletions": [[0, 0], [3, 1]]}, "12", False),
        ],
    )
    def test_frequencies_default_key_is_the_largest_most_common(
        self, set_name, params, window, tied, capsys
    ):
        argv = ["frequencies", "--set", set_name, "--params", json.dumps(params)]
        assert run_cli(argv + ["--window", window]) == 0
        config, _, _ = parse_csv(capsys.readouterr().out)
        ps = build_source(set_name, params).materialize(Region.from_json(config["window"]))
        classes = compute_atlas(ps, 2.000001).classes
        # the most common class, ties to the largest key
        want = max(classes, key=lambda c: (c.centers.shape[0], c.key))
        assert make_patch_key(config["key"]) == want.key
        counts = sorted(c.centers.shape[0] for c in classes)
        assert (counts[-2] == counts[-1]) == tied

    def test_atlas_and_repetitivity_build_no_key(self, capsys, monkeypatch):
        def no_key(cls):
            raise AssertionError("a patch key was built")

        monkeypatch.setattr(PatchClass, "key", property(no_key))
        z2 = json.dumps({"n": 2, "deletions": [[0, 0], [3, 1]]})
        fibxfib = json.dumps({"factors": [{"set": "fibonacci"}, {"set": "fibonacci"}]})
        for argv in (
            ["atlas", "--set", "zn", "--params", z2, "--window", "12", "--T", "1,2.000001"],
            ["atlas", "--set", "product", "--params", fibxfib, "--window", "10", "--T", "2,3.000001"],
            ["atlas", "--set", "fibonacci", "--window", "60", "--shape", "cube"],
            ["repetitivity", "--set", "zn", "--params", z2, "--window", "8", "--T", "2.000001"],
            ["repetitivity", "--set", "fibonacci", "--window", "60"],
        ):
            assert run_cli(argv) == 0
        with pytest.raises(AssertionError, match="a patch key was built"):
            run_cli(["frequencies", "--set", "fibonacci", "--window", "40"])

    def test_counting_gathers_no_centers(self, capsys, monkeypatch):
        def no_centers(cls):
            raise AssertionError("class centers were gathered")

        monkeypatch.setattr(PatchClass, "centers", property(no_centers))
        z2 = json.dumps({"n": 2, "deletions": [[0, 0], [3, 1]]})
        fibxfib = json.dumps({"factors": [{"set": "fibonacci"}, {"set": "fibonacci"}]})
        for argv in (
            ["atlas", "--set", "zn", "--params", z2, "--window", "12", "--T", "1,2.000001"],
            ["atlas", "--set", "product", "--params", fibxfib, "--window", "10", "--T", "2,3.000001"],
            ["atlas", "--set", "fibonacci", "--window", "60", "--shape", "cube"],
        ):
            assert run_cli(argv) == 0
        results = verify_mod.suite_deleted_lines()
        assert results and all(r.passed for r in results)
        # the center count is the class sizes, and every certified point
        ps = build_source("deleted_lines", {"a": [4]}).materialize(Region.centered_box(3, 12.0))
        for at in atlas_ladder(ps, [1.0, 2.0, 3.0, 4.0]):
            assert at.total_centers == sum(c.center_rows.size for c in at.classes)
            assert at.total_centers == np.count_nonzero(at.certified_region.contains(ps.points))
        with pytest.raises(AssertionError, match="class centers were gathered"):
            run_cli(["repetitivity", "--set", "fibonacci", "--window", "60"])

    def test_frequencies_without_certified_centers(self, capsys):
        # [0.2, 4.3] eroded by T = 2.000001 holds no integer
        window = json.dumps({"kind": "box", "intervals": [[0.2, 4.3]]})
        assert run_cli(["frequencies", "--set", "zn", "--window", window]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad configuration: ")
        assert "no certified patch centers in the window" in err

    def test_frequencies_with_key(self, capsys):
        code = run_cli(
            [
                "frequencies", "--set", "zn", "--window", "30",
                "--T", "2.000001", "--key", "[[0],[1],[-1],[2],[-2]]",
            ]
        )
        assert code == 0
        config, header, rows = parse_csv(capsys.readouterr().out)
        assert rows and all(r[-1] == "exact" for r in rows)

    def test_wdist_sampled_rows(self, capsys):
        code = run_cli(
            ["wdist", "--set", "zn", "--window", "300", "--U", "4.000001,8.000001"]
        )
        assert code == 0
        config, header, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 2
        assert all(r[-1] == "sampled" for r in rows)

    def test_wdist_volume_weight_is_one(self, capsys):
        assert run_cli(["wdist", "--set", "fibonacci", "--weight", "vol"]) == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert header[1:5] == ["f_plus", "f_minus", "f_median", "delta"]
        assert [r[1:5] for r in rows] == [["1.0", "1.0", "1.0", "0.0"]] * 3

    def test_wdist_volume_weight_builds_no_window(self, monkeypatch, capsys):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("the volume weight reads no point")

        monkeypatch.setattr(PointSetSource, "materialize", forbidden)
        assert run_cli(["wdist", "--set", "fibonacci", "--weight", "vol", "--window", "300000"]) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert [r[1:5] for r in rows] == [["1.0", "1.0", "1.0", "0.0"]] * 3

    def test_wdist_white_weight_counts_white_cells(self, capsys):
        # a white cell c is the point c, so a closed box [a, b] holds the
        # white cells ceil(a) .. floor(b), counted by the structure itself
        assert run_cli(["wdist", "--set", "two_color", "--weight", "white"]) == 0
        config, _, rows = parse_csv(capsys.readouterr().out)
        st = TwoColorStructure(1, config["params"]["a"])

        def white(boxes):
            return np.array(
                [float(st.white_count_in_box([math.ceil(a)], [math.floor(b) + 1])) for (a, b), in boxes]
            )

        wd = WeightDistribution(label="white", evaluate=white, u0=0.0)
        prof = density_profile(wd, Region.from_json(config["window"]), config["U"], seed=0)
        want = [[r.U, r.f_plus, r.f_minus, r.f_zero_median, r.delta, r.n_boxes] for r in prof.rows]
        assert [[float(v) for v in r[:6]] for r in rows] == want
        assert prof.rows[0].f_plus > prof.rows[0].f_minus

    def test_diffraction_grid_and_peaks(self, capsys):
        args = ["diffraction", "--set", "zn", "--window", "40", "--kmax", "1", "--kcount", "11"]
        assert run_cli(args) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 11
        assert all(r[-1] == "float-sum" for r in rows)

        assert run_cli(args + ["--peaks"]) == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert "intensity" in header
        assert [float(r[0]) for r in rows] == [0.0, 1.0]
        assert all(r[-1] == "float-sum" for r in rows)

    def test_address_report(self, capsys):
        assert run_cli(["address", "--set", "fibonacci", "--window", "60"]) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        fields = {r[0]: r[1] for r in rows}
        assert fields["rank"] == "2"
        assert float(fields["lipschitz"]) == pytest.approx(1.0)

    @pytest.mark.parametrize("window", ["60", "300"])
    def test_address_tags(self, window, capsys):
        # integer results are exact, fit results least-squares; window 60 is
        # too small for the annulus verdict, which reads "undetermined"
        assert run_cli(["address", "--set", "fibonacci", "--window", window]) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        tags = {r[0]: r[2] for r in rows}
        exact = ["origin", "basis", "rank", "degenerate_combination", "lipschitz", "lipschitz_pairs"]
        fit = ["proj_residual", "max_residual", "residuals_zero", "residual_exponent", "bounded_residual"]
        if window == "300":
            fit.append("annulus_variation")
        assert tags == {**dict.fromkeys(exact, "exact"), **dict.fromkeys(fit, "least-squares")}
        bounded = {r[0]: r[1] for r in rows}["bounded_residual"]
        assert bounded.startswith("undetermined") == (window == "60")

    @pytest.mark.parametrize("name", sorted(ADDRESS_SHA256))
    def test_address_artifact_frozen(self, name, tmp_path):
        set_name, params, window, digest = ADDRESS_SHA256[name]
        art = tmp_path / "address.csv"
        argv = ["address", "--set", set_name, "--params", params, "--seed", "0"]
        argv += ["--window", json.dumps({"kind": "box", "intervals": window}), "--out", str(art)]
        assert run_cli(argv) == 0
        assert hashlib.sha256(art.read_bytes()).hexdigest() == digest


# stdout of `verify <suite> --seed 0`; every figure in it is fixed but the
# least-squares projection residual, which rests on LAPACK and is masked
FROZEN_VERIFY_STDOUT = {
    "cut-project": [
        "[PASS] cut-project/gap-bounds: gap range [0.850650808352, 1.37638192047] inside "
        "(1/sqrt2, sqrt2)",
        "[PASS] cut-project/gap-word: 40 symbols beyond the seam match the Beatty word",
        "[PASS] cut-project/bracket-sweep: 3 certified T values, 0 bound violations, "
        "0 trigger errors",
        "[PASS] cut-project/delone-constants: measured (r, R) = (0.425325404176, "
        "0.688190960236) vs declared (0.425325404176, 0.688190960236)",
        "4 checks, 0 failed",
    ],
    "deleted-lines": [
        "[PASS] deleted-lines/congruences-dual-route-a2: a1=2 window [-24,24]^3 "
        "kept=112357 of 117649, routes agree",
        "[PASS] deleted-lines/patch-count-quadratic-bound-a2: a1=2 T=1 N=7<=12, T=2 N=34<=48",
        "[PASS] deleted-lines/uniform-discreteness-a2: a1=2 min-gap radius 0.5",
        "[PASS] deleted-lines/congruences-dual-route-a4: a1=4 window [-24,24]^3 "
        "kept=116326 of 117649, routes agree",
        "[PASS] deleted-lines/patch-count-quadratic-bound-a4: a1=4 T=1 N=7<=12, T=2 "
        "N=31<=48, T=3 N=79<=108, T=4 N=142<=192",
        "[PASS] deleted-lines/uniform-discreteness-a4: a1=4 min-gap radius 0.5",
        "[PASS] deleted-lines/two-level-dual-route: levels (4, 20) dual routes agree",
        "7 checks, 0 failed",
    ],
    "fibonacci": [
        "[PASS] fibonacci/symbol-word-frozen: b_1..b_10 = [1, 0, 1, 1, 0, 1, 0, 1, 1, 0]",
        "[PASS] fibonacci/recurrence-frozen: recurrence at l=1,3: (3, 8)",
        "[PASS] fibonacci/three-classes: classes at T=1.2: 3",
        "[PASS] fibonacci/bracket-sweep: 4 certified T values, 0 bound violations, 0 trigger errors",
        "[PASS] fibonacci/shift-identity: shifted bracket [12.972135955, 12.972135955]",
        "[PASS] fibonacci/address-fit: rank 2, proj residual 3.33066907388e-16, annulus "
        "variation 0.00673099161039",
        "[PASS] fibonacci/cubical-identity: cube-vs-half-ball class counts: T=1 1/1, T=2 "
        "3/3, T=4 3/3, T=8 7/7",
        "7 checks, 0 failed",
    ],
    "lattice": [
        "[PASS] lattice/single-patch-class: class counts at T=1,3,7.5: [1, 1, 1]",
        "[PASS] lattice/covering-constant: T=5 bracket [0.5, 0.5]",
        "[PASS] lattice/crystal-trigger: verdict: ideal-crystal signature",
        "[PASS] lattice/window-count-121: points in [-5,5]^2: 121",
        "[PASS] lattice/volume-weight-flat: max delta over U=4,8,16: 0",
        "[PASS] lattice/count-weight-bracket: deltas vs 2/U: U=4 0.416330033491<=0.5, U=8 "
        "0.207310525924<=0.25, U=16 0.107264422025<=0.125",
        "[PASS] lattice/autocorrelation-frozen: pair counts 19-|m|, intensity at "
        "k=0,0.5,1: 18.05, 0.05, 18.05",
        "[PASS] lattice/integer-peaks: peaks at k=0, 1, 2",
        "[PASS] lattice/address-identity: basis identity, proj residual 8.881784197e-16, "
        "Lipschitz 1, axis density (1, 0)",
        "9 checks, 0 failed",
    ],
    "two-color": [
        "[PASS] two-color/pattern-frozen: first-scale cells: WWWBBWBBBBBBBBBB",
        "[PASS] two-color/proportions-exact: white proportions s_1: 4/16; s_2: 352/512; "
        "s_3: 11008/32768; s_4: 2742272/4194304 match both routes",
        "[PASS] two-color/oscillation-floor: oscillation 0.31787109375 exceeds product floor "
        "0.3076171875",
        "[PASS] two-color/coded-points: white addresses map to white cells; "
        "min-gap radius 0.166666666667",
        "[PASS] two-color/bracket-sweep: 3 certified T values, 0 bound violations, "
        "0 trigger errors",
        "5 checks, 0 failed",
    ],
    "words": [
        "[PASS] words/recurrence-formula-vs-scan: 5 irrationals, l=1..60: 0 mismatches",
        "[PASS] words/sturmian-complexity: 3 irrationals, k=1..30: 0 deviations from k+1",
        "[PASS] words/growth-construction: recurrence column beats g(q) on all 8 rows",
        "3 checks, 0 failed",
    ],
}


def mask_residual(lines):
    return [re.sub(r"proj residual [^,]+,", "proj residual <lstsq>,", line) for line in lines]


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", sorted(FROZEN_VERIFY_STDOUT))
    def test_suite_stdout_frozen(self, suite, capsys):
        assert run_cli(["verify", suite, "--seed", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert mask_residual(out) == mask_residual(FROZEN_VERIFY_STDOUT[suite])

    def test_words_suite_passes(self, capsys):
        assert run_cli(["verify", "words"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert all(line.startswith("[PASS]") for line in out[:-1])
        assert out[-1].endswith("0 failed")

    def test_in_process_determinism(self, capsys):
        run_cli(["verify", "words", "--seed", "0"])
        first = capsys.readouterr().out
        run_cli(["verify", "words", "--seed", "0"])
        assert capsys.readouterr().out == first

    def test_failure_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify_mod,
            "run_suite",
            lambda suite, seed=0: [CheckResult("stub", "broken", False, "boom")],
        )
        assert run_cli(["verify", "lattice"]) == 4
        err = capsys.readouterr().err
        assert "verification failed" in err

    def test_budget_exits_2(self, monkeypatch, capsys):
        def blow_up(suite, seed=0):
            raise ResourceLimit("synthetic budget stop")

        monkeypatch.setattr(verify_mod, "run_suite", blow_up)
        assert run_cli(["verify", "lattice"]) == 2
        assert "budget exhausted" in capsys.readouterr().err

    def test_artifact_out(self, tmp_path, capsys):
        art = tmp_path / "words.csv"
        assert run_cli(["verify", "words", "--out", str(art)]) == 0
        capsys.readouterr()
        config, header, rows = parse_csv(art.read_text())
        assert config["suite"] == "words"
        assert header == ["suite", "check", "passed", "detail", "tag"]
        assert all(r[2] == "1" for r in rows)


# (argv, exit code, start of the one-line message, a cli_mod function that
# raises MemoryError in its place or None): bad input, never a traceback
MALFORMED_INVOCATIONS = [
    pytest.param(
        ["wdist", "--set", "zn", "--U", "1e-300", "--window", "10"],
        1, "bad configuration: U = 1e-300 tiles the window", None, id="wdist-tiny-U",
    ),
    pytest.param(
        ["wdist", "--set", "zn", "--params", '{"n": 2}', "--U", "1e-9,1", "--window", "10"],
        1, "bad configuration: U = 1e-09 tiles the window", None, id="wdist-tiling-past-int64",
    ),
    pytest.param(
        ["wdist", "--set", "zn", "--U", "1e-17", "--window", "10"],
        1, "bad configuration: U = 1e-17 gives boxes too small", None, id="wdist-zero-volume-boxes",
    ),
    pytest.param(
        ["diffraction", "--set", "zn", "--window", "10", "--T", "5", "--kmax", "1e308", "--kcount", "5"],
        1, "bad configuration: k grid too large", None, id="diffraction-kmax-direct",
    ),
    pytest.param(
        ["diffraction", "--set", "zn", "--window", "10", "--T", "5", "--kmax", "1e308", "--kcount", "500"],
        1, "bad configuration: k grid too large", None, id="diffraction-kmax-factored",
    ),
    pytest.param(
        ["diffraction", "--set", "zn", "--window", "10", "--T", "5"],
        2, "budget exhausted: ", "diffraction_estimate", id="out-of-memory",
    ),
    pytest.param(
        ["atlas", "--set", "fibonacci", "--window", '{"kind": "box", "intervals": [["a", 3]]}'],
        1, "bad configuration: malformed region", None, id="window-string",
    ),
    pytest.param(
        ["generate", "--set", "zn", "--params", '{"n": "two"}', "--window", "5"],
        1, "bad configuration: bad parameters for 'zn'", None, id="n-string",
    ),
    pytest.param(
        ["generate", "--set", "zn", "--params", '{"n": 1, "deletions": 5}', "--window", "5"],
        1, "bad configuration: bad parameters for 'zn'", None, id="deletions-int",
    ),
    pytest.param(
        ["generate", "--set", "product", "--params", '{"factors": ["fibonacci", "fibonacci"]}', "--window", "5"],
        1, "bad configuration: bad parameters for 'product'", None, id="factors-strings",
    ),
    pytest.param(
        ["atlas", "--set", "fibonacci", "--window", "nan"],
        1, "bad configuration: box bounds must be finite", None, id="window-nan",
    ),
    pytest.param(
        ["atlas", "--set", "fibonacci", "--window", "inf"],
        1, "bad configuration: box bounds must be finite", None, id="window-inf",
    ),
    pytest.param(
        ["atlas", "--set", "fibonacci", "--window", '{"kind": "ball", "center": [0], "radius": -5}'],
        1, "bad configuration: ball radius must be >= 0", None, id="ball-radius-negative",
    ),
    pytest.param(
        ["frequencies", "--set", "fibonacci", "--window", "200", "--key", "5"],
        1, "bad configuration: a patch key is a list of integer vectors", None, id="key-int",
    ),
    pytest.param(
        ["frequencies", "--set", "fibonacci", "--window", "200", "--key", "[[1e400]]"],
        1, "bad configuration: a patch key is a list of integer vectors", None, id="key-overflow",
    ),
    pytest.param(["verify", "nope"], 1, "bad configuration: unknown suite 'nope'", None, id="verify-nope"),
    pytest.param(
        ["import-float", "no-such-file.json"], 3, "file I/O error: ", None, id="import-float-missing",
    ),
]


class TestExitCodes:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, code, message, oom", MALFORMED_INVOCATIONS)
    def test_malformed_invocation(self, argv, code, message, oom, tmp_path, capsys, monkeypatch):
        """One exit code of 1 to 4 and one line on stderr; any artifact
        written holds no NaN."""
        if oom is not None:

            def exhausted(*args, **kwargs):
                raise MemoryError("Unable to allocate 7.45 GiB for an array")

            monkeypatch.setattr(cli_mod, oom, exhausted)
        monkeypatch.chdir(tmp_path)
        art = tmp_path / "artifact.csv"
        assert run_cli([*argv, "--out", str(art)]) == code
        out, err = capsys.readouterr()
        assert err.startswith(message) and err.count("\n") == 1
        assert "Traceback" not in out + err
        assert not art.exists() or "nan" not in art.read_text().lower()

    def test_bad_params_json_is_1(self, capsys):
        assert run_cli(["generate", "--set", "zn", "--params", "{bad"]) == 1
        err = capsys.readouterr().err
        assert "bad configuration" in err and "line 1" in err

    def test_unknown_set_is_1(self, capsys):
        assert run_cli(["generate", "--set", "nope"]) == 1

    def test_unknown_suite_is_1(self, capsys):
        assert run_cli(["verify", "bogus"]) == 1

    @pytest.mark.parametrize(
        "window",
        [
            "inf",
            "1e400",
            '{"kind": "box", "intervals": [[-Infinity, 5]]}',
            '{"kind": "ball", "center": [NaN], "radius": 5}',
            '{"kind": "ball", "center": [0], "radius": Infinity}',
        ],
    )
    def test_non_finite_window_is_1(self, capsys, window):
        assert run_cli(["atlas", "--set", "fibonacci", "--window", window]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad configuration: ") and "must be finite" in err

    @pytest.mark.parametrize(
        "window",
        [
            '{"kind": "box", "intervals": 5}',
            '{"kind": "box", "intervals": [["a", 3]]}',
            '{"kind": "ball", "center": [0]}',
        ],
    )
    def test_malformed_window_is_1(self, capsys, window):
        assert run_cli(["atlas", "--set", "fibonacci", "--window", window]) == 1
        assert capsys.readouterr().err.startswith("bad configuration: malformed region: ")

    def test_nan_U_is_1(self, capsys):
        assert run_cli(["wdist", "--set", "zn", "--params", '{"n": 1}', "--window", "50", "--U", "4,nan"]) == 1
        assert capsys.readouterr().err.startswith("bad configuration: U = nan is not above")

    def test_unknown_option_is_1(self, capsys):
        assert run_cli(["atlas", "--set", "zn", "--nonsense", "1"]) == 1

    def test_ladder_errors_are_those_of_a_per_T_loop(self, capsys):
        # the first T in the caller's order that cannot be eroded names the error
        assert run_cli(["atlas", "--set", "zn", "--window", "10", "--T", "1,500"]) == 1
        assert capsys.readouterr().err == (
            "bad configuration: box cannot be eroded by 500.0: an interval empties\n"
        )
        # T=6 leaves no evaluation region (the window less 2T) before T=11
        # leaves no certified centers
        assert run_cli(["repetitivity", "--set", "zn", "--window", "10", "--T", "6,11"]) == 1
        assert capsys.readouterr().err == (
            "bad configuration: box cannot be eroded by 12.0: an interval empties\n"
        )

    def test_missing_input_file_is_3(self, capsys):
        assert run_cli(["import-float", "/no/such/file.json"]) == 3
        assert "file I/O error" in capsys.readouterr().err

    def test_unwritable_out_is_3(self, capsys):
        code = run_cli(
            ["generate", "--set", "zn", "--window", "3", "--out", "/no-such-dir/x.csv"]
        )
        assert code == 3

    def test_dimension_header_mismatch_is_1(self, tmp_path, capsys):
        fps = FloatPointSet(
            np.array([[0.0], [1.0]]), tolerance=0.25, region=Region.box([(-1, 2)])
        )
        obj = fps.to_json()
        obj["dimension"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run_cli(["import-float", str(path)]) == 1
        assert "dimension" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"dimension": 1, "rank": 1, "addresses": [[0]], "region": {"kind": "box", "intervals": [[-1, 2]]}}',
            '{"points": [[0.0], [1.0]], "tolerance": "abc", "region": {"kind": "box", "intervals": [[-1, 2]]}}',
            "[[0.0], [1.0]]",
        ],
        ids=["exact-no-projection", "tolerance-not-a-number", "top-level-list"],
    )
    def test_malformed_point_set_file_is_1(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run_cli(["import-float", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad configuration: ") and "Traceback" not in err

    @pytest.mark.parametrize("in_file", [True, False], ids=["file", "flag"])
    def test_nan_tolerance_is_1(self, tmp_path, capsys, in_file):
        # with a NaN tolerance no pair is close, so 0, 0 and 1 were imported
        region = {"kind": "box", "intervals": [[-1, 2]]}
        tolerance = math.nan if in_file else 0.1
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"points": [[0.0], [0.0], [1.0]], "tolerance": tolerance, "region": region}))
        flag = [] if in_file else ["--tolerance", "nan"]
        assert run_cli(["import-float", str(path)] + flag) == 1
        assert capsys.readouterr().err.startswith("bad configuration: tolerance must be finite")

    @pytest.mark.parametrize("kmax", ["nan", "inf"])
    def test_non_finite_kmax_is_1(self, capsys, kmax):
        assert run_cli(["diffraction", "--set", "fibonacci", "--kmax", kmax]) == 1
        assert capsys.readouterr().err == "bad configuration: k grid must be finite\n"

    @pytest.mark.parametrize("args, message", BAD_OPTION_CASES)
    def test_bad_option_stops_before_the_set_is_built(self, monkeypatch, capsys, args, message):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("ran before the options were checked")

        # every set command has a case, so none can build its window first
        covered = {case.values[0][0] for case in BAD_OPTION_CASES}
        assert set(cli_mod.cli.commands) - {"verify", "import-float"} <= covered
        monkeypatch.setattr(PointSetSource, "materialize", forbidden)
        monkeypatch.setattr(cli_mod, "atlas_ladder", forbidden)
        monkeypatch.setattr(repetitivity_mod, "atlas_ladder", forbidden)
        monkeypatch.setattr(cli_mod, "autocorrelation", forbidden)
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad configuration: ") and message in err

    @pytest.mark.parametrize("resolution", ["-1", "0", "nan"])
    @pytest.mark.parametrize("set_name", ["fibonacci", "zn"])
    def test_bad_resolution_is_1(self, capsys, resolution, set_name):
        params = ["--params", '{"n": 2}'] if set_name == "zn" else []
        args = ["repetitivity", "--set", set_name, *params, "--window", "20", "--T", "2.000001"]
        assert run_cli(args + ["--resolution", resolution]) == 1
        assert capsys.readouterr().err == "bad configuration: resolution must be positive\n"

    def test_garbage_json_file_is_1(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all {{{")
        assert run_cli(["import-float", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err
