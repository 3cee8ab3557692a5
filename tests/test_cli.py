"""Command-line surface: artifacts, exit codes, determinism."""

import csv
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest

import delone_lab.verify as verify_mod
from delone_lab.atlas import compute_atlas
from delone_lab.cli import main
from delone_lab.core import ExactPointSet, FloatPointSet, Region, make_patch_key
from delone_lab.errors import ResourceLimit
from delone_lab.generators import build_source
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

        assert run_cli(["import-float", str(art)]) == 0
        echo = capsys.readouterr().out
        assert "mode approximate" in echo
        assert "imported %d points" % obj["config"]["count"] in echo

    def test_subprocess_byte_determinism(self):
        cmd = [sys.executable, "-m", "delone_lab.cli", "generate", "--set", "fibonacci", "--window", "30"]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
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

    def test_csv_never_builds_the_point_set_json(self, capsys, monkeypatch):
        calls = []
        orig = ExactPointSet.to_json

        def counted(self):
            calls.append(len(self))
            return orig(self)

        monkeypatch.setattr(ExactPointSet, "to_json", counted)
        assert run_cli(["generate", "--set", "zn", "--n", "2", "--window", "4"]) == 0
        assert calls == []
        assert run_cli(["generate", "--set", "zn", "--n", "2", "--window", "4", "--format", "json"]) == 0
        assert calls == [81]
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


class TestExitCodes:
    def test_bad_params_json_is_1(self, capsys):
        assert run_cli(["generate", "--set", "zn", "--params", "{bad"]) == 1
        err = capsys.readouterr().err
        assert "bad configuration" in err and "line 1" in err

    def test_unknown_set_is_1(self, capsys):
        assert run_cli(["generate", "--set", "nope"]) == 1

    def test_unknown_suite_is_1(self, capsys):
        assert run_cli(["verify", "bogus"]) == 1

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

    def test_garbage_json_file_is_1(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all {{{")
        assert run_cli(["import-float", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err
