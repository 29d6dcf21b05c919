"""Command-line surface: subcommands, formats, exit codes."""
import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from hexval import cli, geometry, pipeline, reference, valgeom
from hexval.cli import run
from hexval.constructions import build_fano, grid_3x3
from hexval.geometry import Geometry, dual, from_text, to_text
from hexval.valgeom import ValuationGeometry, check_lemma_3_1
from hosts import EXAMPLE_HOST, disjoint_lines, partial_linear_spaces
from optimized import run as run_script


GOLDEN = Path(__file__).resolve().parent / "golden"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_optimized(*argv):
    """invoke() under python -O, as python -O -m hexval.cli runs it."""
    return run_script("import sys\nfrom hexval.cli import main\n"
                      f"sys.argv = ['hexval', *{list(argv)!r}]\nmain()\n")


class TestBuild:
    def test_build_to_stdout(self, capsys):
        code, out, _ = invoke(capsys, "build", "--geometry", "h21")
        assert code == 0
        g = from_text(out)
        assert g.num_points == 21 and len(g.lines) == 14

    def test_build_roundtrip_through_file(self, capsys, tmp_path):
        path = tmp_path / "h21.geom"
        code, _, _ = invoke(capsys, "build", "--geometry", "h21",
                            "--out", str(path))
        assert code == 0
        code, out, _ = invoke(capsys, "validate", "--in", str(path))
        assert code == 0
        assert "generalized hexagon: True" in out


class TestValidate:
    def test_valid_geometry(self, capsys):
        code, out, _ = invoke(capsys, "validate", "--geometry", "h2")
        assert code == 0
        assert "order: (2, 2)" in out

    def test_near_polygon_failure_exits_1(self, capsys, tmp_path, h2):
        from hexval.geometry import Geometry, to_text
        g = h2.geometry
        broken = Geometry(g.num_points, g.lines[1:])
        path = tmp_path / "broken.geom"
        path.write_text(to_text(broken))
        code, _, err = invoke(capsys, "validate", "--in", str(path))
        assert code == 1
        assert "NP2 witness" in err

    def test_invalid_pls_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.geom"
        path.write_text("points 4\n0 1 2\n0 1 3\n")
        code, _, err = invoke(capsys, "validate", "--in", str(path))
        assert code == 1
        assert "two lines" in err


class TestAut:
    def test_h2(self, capsys, h2):
        code, out, _ = invoke(capsys, "aut", "--geometry", "h2")
        assert code == 0
        assert "12096" in out

    def test_thirteen_disjoint_lines(self, capsys, tmp_path):
        # S_3 wr S_13, of order 6^13 * 13!: the order comes off the
        # search's base orbits, and the classes are refused at dimension
        # 26 on the same Bundle
        path = tmp_path / "lines13.geom"
        path.write_text(to_text(disjoint_lines(13)))
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "aut", "--in", str(path))
        assert code == 0
        assert out.splitlines()[0] == (
            f"automorphism group order: {6 ** 13 * math.factorial(13)}")
        code, out, err = invoke(capsys, "hyperplanes", "--in", str(path),
                                "--classes")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: the hyperplane space has dimension 26; its 2^26 - 1 "
            "hyperplanes are not enumerated above dimension 24"]


class TestHyperplanes:
    def test_total(self, capsys, h21):
        code, out, _ = invoke(capsys, "hyperplanes", "--geometry", "h21")
        assert code == 0
        assert "hyperplanes:" in out

    def test_classes_json(self, capsys, h21):
        code, out, _ = invoke(capsys, "hyperplanes", "--geometry", "h21",
                              "--classes", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        classes = payload["hyperplanes"]["classes"]
        assert sum(c["orbit_size"] for c in classes) \
            == payload["hyperplanes"]["total"]


class TestValuations:
    def test_table_text(self, capsys, h2dual):
        code, out, _ = invoke(capsys, "valuations", "--geometry", "h2dual",
                              "--table")
        assert code == 0
        assert "1008" in out and "Type" in out

    def test_table_json_matches_text_source(self, capsys, h2dual):
        code, out, _ = invoke(capsys, "valuations", "--geometry", "h2dual",
                              "--format", "json")
        assert code == 0
        rows = json.loads(out)["tables"]["valuations"]
        assert [r["type"] for r in rows] == ["A", "B", "C", "D"]
        assert [r["count"] for r in rows] == [63, 252, 252, 1008]

    def test_table_csv(self, capsys, h2dual):
        code, out, _ = invoke(capsys, "valuations", "--geometry", "h2dual",
                              "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("type,count,")

    def test_empty_csv_table_keeps_header(self):
        assert cli._csv([cli._VALUATION_KEYS]) == (
            "type,count,max_value,ovoid_size,hyperplane_size,distribution")


class TestValgeom:
    def test_lines_table(self, capsys, h2dual):
        code, out, _ = invoke(capsys, "valgeom", "--geometry", "h2dual",
                              "--lines-table")
        assert code == 0
        assert "CCC" in out

    def test_lines_table_json(self, capsys, h2dual):
        code, out, _ = invoke(capsys, "valgeom", "--geometry", "h2dual",
                              "--format", "json")
        rows = json.loads(out)["tables"]["lines"]
        table = {r["type"]: r["per_point"] for r in rows}
        assert table["CCD"] == {"C": 40, "D": 5}

    def test_lines_table_csv(self, capsys, h2dual):
        code, out, _ = invoke(capsys, "valgeom", "--geometry", "h2dual",
                              "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["type", "per_point"]
        table = {t: json.loads(per_point) for t, per_point in rows[1:]}
        assert table["CCD"] == {"C": 40, "D": 5}


class TestCheck:
    def test_lemma_suite(self, capsys, h2dual):
        code, out, _ = invoke(capsys, "check", "--geometry", "h2dual",
                              "--lemma", "3.1")
        assert code == 0
        assert out.count("pass") == 5

    def test_unknown_lemma(self, capsys):
        code, _, err = invoke(capsys, "check", "--geometry", "h2dual",
                              "--lemma", "9.9")
        assert code == 2

    def test_failed_lemma_prints_witness(self, capsys, monkeypatch, h2dual):
        # the restriction with its first line replaced by two valuations
        # whose zero points are not at distance 3, plus a third one
        vp = h2dual.vprime()
        host = h2dual.geometry
        zeros = [row.index(0) for row in vp.vpoints.tolist()]
        a, b = next((i, j) for i in range(len(zeros))
                    for j in range(i + 1, len(zeros))
                    if host.dist[zeros[i]][zeros[j]] != 3)
        c = next(x for x in range(len(zeros)) if x not in (a, b))
        corrupted = ValuationGeometry(
            host, vp.vpoints, [tuple(sorted((a, b, c)))] + vp.vlines[1:],
            vp.point_types, vp.line_types)
        witness = check_lemma_3_1(corrupted, host).witness
        assert witness is not None
        monkeypatch.setattr(h2dual, "vprime", lambda: corrupted)
        code, out, err = invoke(capsys, "check", "--geometry", "h2dual")
        assert code == 1
        assert "b_collinear_zero_distance: FAIL" in out
        assert "witness" not in out
        assert err.splitlines()[-1] == f"witness: {witness}"
        assert err.count("\n") == out.count("FAIL") + 1


class TestReport:
    def test_h2dual_json(self, capsys, h2dual):
        code, out, err = invoke(capsys, "report", "--geometry", "h2dual",
                                "--format", "json")
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["aut_order"] == 12096
        assert payload["checks"]["reference_match"] is True
        lemma = payload["checks"]["lemma_3_1"]
        assert all(lemma.values())

    def test_all_text(self, capsys, h2, h2dual):
        code, out, _ = invoke(capsys, "report", "--all")
        assert code == 0
        assert "geometry: h2dual" in out and "geometry: h2" in out

    @pytest.mark.parametrize("fmt,golden", [("text", "report_all.txt"),
                                            ("csv", "report_all.csv")])
    def test_report_all_matches_golden(self, capsys, h2, h2dual, fmt,
                                       golden):
        # the JSON report is pinned by TestOptimized; these two files pin
        # the other renderers of the same report value
        code, out, err = invoke(capsys, "report", "--all", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_single_reports_join_to_all(self, capsys, h2, h2dual, fmt):
        # --all prints each hexagon's report as --geometry does, joined;
        # with the golden files this pins the single-report output
        sep = "\n\n" if fmt == "text" else "\n"
        singles = [invoke(capsys, "report", "--geometry", name,
                          "--format", fmt)
                   for name in cli.REPORT_GEOMETRIES]
        assert [(code, err) for code, _, err in singles] == [(0, "")] * 2
        code, out, err = invoke(capsys, "report", "--all", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == sep.join(single.removesuffix("\n")
                               for _, single, _ in singles) + "\n"

    def test_single_json_reports_are_all_reports(self, capsys, h2, h2dual):
        code, out, err = invoke(capsys, "report", "--all", "--format", "json")
        assert (code, err) == (0, "")
        reports = json.loads(out)["reports"]
        assert len(reports) == len(cli.REPORT_GEOMETRIES)
        for name, report in zip(cli.REPORT_GEOMETRIES, reports):
            code, single, err = invoke(capsys, "report", "--geometry", name,
                                       "--format", "json")
            assert (code, err) == (0, "")
            assert single == json.dumps(report, indent=2,
                                        sort_keys=True) + "\n"

    def test_hexagon_check_runs_once(self, capsys, monkeypatch, h2, h2dual):
        # building a hexagon checks its axioms; the report reads that
        # same hexagon report off the geometry instead of checking again
        from hexval import geometry
        calls = []
        original = geometry.check_near_polygon

        def counting(g):
            calls.append(g.name)
            return original(g)

        monkeypatch.setattr(geometry, "check_near_polygon", counting)
        # also counts a check made through a name bound in cli
        monkeypatch.setattr(cli, "check_near_polygon", counting,
                            raising=False)
        code, _, err = invoke(capsys, "report", "--all")
        assert (code, err) == (0, "")
        assert calls == []
        # a new geometry is still checked, once
        g = Geometry(h2.geometry.num_points, h2.geometry.lines, "copy")
        assert geometry.check_generalized_hexagon(g).is_generalized_hexagon
        assert geometry.check_generalized_hexagon(g) is g.hexagon_report
        assert calls == ["copy"]

    def test_report_all_fast_path(self, capsys, monkeypatch):
        # built afresh, each hexagon is checked as a near polygon once,
        # the report reads its ovoids without the search, and the grids
        # are searched once, on the 672 lines of the Type-C/CCC
        # restriction, by the grid kernel without enumerate_grids
        calls = []
        for name in ("find_ovoids", "enumerate_grids", "check_near_polygon",
                     "grid_rows"):
            original = getattr(geometry, name)

            def counting(g, *rest, name=name, original=original):
                calls.append((name, len(g) if rest else g.name))
                return original(g, *rest)

            # also counts a call made through a name bound elsewhere
            for module in (geometry, pipeline, valgeom, cli):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        monkeypatch.setattr(pipeline, "_BUNDLES", {})
        code, _, err = invoke(capsys, "report", "--all", "--format", "json")
        assert (code, err) == (0, "")
        assert sorted(calls) == [("check_near_polygon", "h2"),
                                 ("check_near_polygon", "h2dual"),
                                 ("grid_rows", 672)]

    @pytest.mark.parametrize("host", ["h2", "h21", "h2-less-a-line"])
    def test_validate_checks_near_polygon_once(self, request, capsys,
                                               monkeypatch, tmp_path, host):
        # validate prints the near-polygon report that the hexagon check
        # computed and kept on the geometry
        from hexval import geometry
        g = request.getfixturevalue(host.split("-")[0]).geometry
        if host.endswith("line"):
            g = Geometry(g.num_points, g.lines[1:])
        path = tmp_path / "host.geom"
        path.write_text(to_text(g))
        calls = []
        original = geometry.check_near_polygon

        def counting(checked):
            calls.append(checked.num_points)
            return original(checked)

        monkeypatch.setattr(geometry, "check_near_polygon", counting)
        monkeypatch.setattr(cli, "check_near_polygon", counting,
                            raising=False)
        code, out, _ = invoke(capsys, "validate", "--in", str(path))
        assert calls == [g.num_points]
        assert code == (1 if host.endswith("line") else 0)
        assert "near polygon: " in out

    def test_deterministic_output(self, capsys, h2dual):
        _, first, _ = invoke(capsys, "report", "--geometry", "h2dual",
                             "--format", "json")
        _, second, _ = invoke(capsys, "report", "--geometry", "h2dual",
                              "--format", "json")
        assert first == second

    def test_reference_mismatch_exits_1(self, capsys, monkeypatch, h2dual):
        monkeypatch.setitem(reference.OVOID_COUNT, "h2dual", 1)
        code, out, err = invoke(capsys, "report", "--geometry", "h2dual",
                                "--format", "json")
        assert code == 1
        assert err == "h2dual: checks.ovoids: expected 1, got 0\n"
        assert '"reference_match": false' in out
        assert json.loads(out)["checks"]["reference_match"] is False


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "aut", "--in", "nosuch.geom")
        assert code == 2
        assert "nosuch.geom" in err

    @pytest.mark.parametrize("argv,line", [
        (["validate", "--in", "/"], "cannot read /: Is a directory"),
        (["build", "--geometry", "h21", "--out", "/"],
         "cannot write /: Is a directory"),
        (["build", "--geometry", "h21", "--out", "missing_dir/x"],
         "cannot write missing_dir/x: No such file or directory")])
    def test_unusable_path(self, capsys, monkeypatch, tmp_path, argv, line):
        monkeypatch.chdir(tmp_path)
        assert invoke(capsys, *argv) == (2, "", line + "\n")

    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_missing_source(self, capsys):
        assert invoke(capsys, "aut")[0] == 2

    @pytest.mark.parametrize("argv", [["valuations"], ["valgeom"], ["check"],
                                      ["hyperplanes", "--classes"]])
    def test_disconnected_host_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "two_lines.geom"
        path.write_text("points 6\n0 1 2\n3 4 5\n")
        code, _, err = invoke(capsys, argv[0], "--in", str(path), *argv[1:])
        assert code == 2
        assert err.splitlines() == [
            "error: valuations require a connected geometry"]

    @pytest.mark.parametrize("argv", [["validate"], ["aut"],
                                      ["hyperplanes", "--classes"],
                                      ["valuations"], ["valgeom"], ["check"]])
    def test_negative_point_count(self, capsys, tmp_path, argv):
        path = tmp_path / "negative.geom"
        path.write_text("points -3\n")
        code, out, err = invoke(capsys, argv[0], "--in", str(path),
                                *argv[1:])
        # validate reports every GeometryError as an invalid geometry
        assert code == (1 if argv[0] == "validate" else 2)
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "negative point count -3" in err

    @pytest.mark.parametrize("argv,code,out_lines", [
        (["validate"], 0, 5), (["aut"], 0, 2),
        (["hyperplanes", "--classes"], 0, 3), (["valuations"], 0, 2),
        (["valgeom"], 0, 2), (["check"], 1, 5)])
    def test_empty_geometry(self, capsys, tmp_path, argv, code, out_lines):
        # no points: empty tables; Lemma 3.1 fails its 16-grid count on the
        # empty restriction, as on any host without type C valuations
        path = tmp_path / "empty.geom"
        path.write_text("points 0\n")
        got, out, err = invoke(capsys, argv[0], "--in", str(path),
                               *argv[1:])
        assert got == code
        assert len(out.splitlines()) == out_lines
        assert err.splitlines() == (
            ["check failed: grids16",
             "witness: ('no type-C valuations',)"] if code else [])

    def test_failed_internal_check_exits_1(self, capsys, monkeypatch,
                                           tmp_path, h21):
        def broken(*args):
            raise RuntimeError("line counts not constant on point type C")

        monkeypatch.setattr(pipeline, "class_line_table", broken)
        path = tmp_path / "h21.geom"
        path.write_text(to_text(h21.geometry))
        code, out, err = invoke(capsys, "valgeom", "--in", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: line counts not constant on point type C"]

    @pytest.mark.parametrize("error,line", [
        (MemoryError, "error: out of memory"),
        (RecursionError("maximum recursion depth exceeded"),
         "error: recursion depth exceeded")])
    @pytest.mark.parametrize("argv,module,name", [
        (["validate"], cli, "check_generalized_hexagon"),
        (["aut"], pipeline, "automorphism_group"),
        (["hyperplanes", "--classes"], pipeline, "classify_hyperplanes"),
        (["valuations"], pipeline, "orbit_closure"),
        (["valgeom"], pipeline, "class_line_table"),
        (["check"], cli, "check_lemma_3_1")])
    def test_resource_exhaustion_exits_2(self, capsys, monkeypatch, tmp_path,
                                         h21, argv, module, name, error,
                                         line):
        # a resource running out is neither bad input nor a failed check,
        # and never a traceback
        calls = []

        def exhausted(*args, **kwargs):
            calls.append(name)
            raise error

        monkeypatch.setattr(module, name, exhausted)
        path = tmp_path / "h21.geom"
        path.write_text(to_text(h21.geometry))
        code, _, err = invoke(capsys, argv[0], "--in", str(path), *argv[1:])
        assert calls == [name]
        assert (code, err.splitlines()) == (2, [line])

    def test_check_precondition_survives_optimize(self):
        # the restriction of h21 has valuations with several zero points;
        # the precondition must hold under -O, which strips asserts
        code, out, err = invoke_optimized("check", "--geometry", "h21")
        assert code == 2
        assert len(err.splitlines()) == 1
        assert "zero point" in err


#: one call of each subcommand that reads a host's stages
MEMO_SEQUENCE = [["validate"], ["aut"], ["hyperplanes", "--classes"],
                 ["valuations", "--format", "json"], ["valgeom"], ["check"]]


class TestInFileMemo:
    """Consecutive --in calls on an unchanged file share one Bundle; any
    other name or text, or an unreadable file, is read afresh."""

    @staticmethod
    def outcomes(capsys, path, fresh):
        """(code, stdout, stderr) of MEMO_SEQUENCE on path, with the memo
        emptied before each call when fresh is set."""
        got = []
        for command, *rest in MEMO_SEQUENCE:
            if fresh:
                cli._bundle_from_text.cache_clear()
            got.append(invoke(capsys, command, "--in", str(path), *rest))
        return got

    def test_stages_run_once_per_host(self, capsys, monkeypatch, tmp_path,
                                      h21):
        path = tmp_path / "h21.geom"
        path.write_text(to_text(h21.geometry))
        fresh = self.outcomes(capsys, path, fresh=True)
        cli._bundle_from_text.cache_clear()
        calls = []

        def counted(name, original):
            def counting(*args):
                calls.append(name)
                return original(*args)
            return counting

        for name in ("automorphism_group", "classify_hyperplanes",
                     "valuations_on_hyperplanes"):
            monkeypatch.setattr(pipeline, name,
                                counted(name, getattr(pipeline, name)))
        assert self.outcomes(capsys, path, fresh=False) == fresh
        assert sorted(calls) == ["automorphism_group", "classify_hyperplanes",
                                 "valuations_on_hyperplanes"]

    def test_rewritten_and_removed_file_is_read_again(self, capsys,
                                                      tmp_path):
        path = tmp_path / "host.geom"
        path.write_text(to_text(build_fano()))
        assert invoke(capsys, "aut", "--in", str(path))[1].startswith(
            "automorphism group order: 168\n")
        path.write_text(to_text(grid_3x3()))
        assert invoke(capsys, "aut", "--in", str(path))[1].startswith(
            "automorphism group order: 72\n")
        path.unlink()
        assert invoke(capsys, "aut", "--in", str(path)) == (
            2, "", f"cannot read {path}: No such file or directory\n")

    def test_same_text_under_another_name(self, capsys, tmp_path):
        names = []
        for name in ("a.geom", "b.geom"):
            path = tmp_path / name
            path.write_text(to_text(build_fano()))
            code, out, _ = invoke(capsys, "valuations", "--in", str(path),
                                  "--format", "json")
            assert code == 0
            names.append(json.loads(out)["geometry"])
        assert names == [str(tmp_path / "a.geom"), str(tmp_path / "b.geom")]

    def test_stage_error_repeats(self, capsys, tmp_path):
        path = tmp_path / "two_lines.geom"
        path.write_text("points 6\n0 1 2\n3 4 5\n")
        want = (2, "", "error: valuations require a connected geometry\n")
        assert [invoke(capsys, "valuations", "--in", str(path))
                for _ in range(2)] == [want, want]

    def test_parse_error_between_loads(self, capsys, tmp_path):
        good, bad = tmp_path / "good.geom", tmp_path / "bad.geom"
        good.write_text(to_text(build_fano()))
        bad.write_text("points -3\n")
        first = invoke(capsys, "aut", "--in", str(good))
        assert invoke(capsys, "aut", "--in", str(bad)) == (
            2, "", "error: negative point count -3\n")
        assert invoke(capsys, "aut", "--in", str(good)) == first


class TestBrokenPipe:
    @pytest.mark.parametrize("argv", [
        # block buffered, a short output fails at the last flush and a
        # long one in the middle of print
        ["build", "--geometry", "h21"],
        ["report", "--all", "--format", "json"]])
    def test_closed_reader_exits_1_without_traceback(self, argv):
        # as under `hexval ... | head -1`: stdout is a pipe that nobody
        # reads; the read end is closed before the child starts
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("PYTHONUNBUFFERED", None)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hexval.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


class TestOptimized:
    def test_report_all_json_matches_golden(self):
        # every invariant check is a raise, so -O (which strips asserts)
        # must reproduce the committed report byte for byte
        golden = GOLDEN.parent.parent / "perfbench" / "golden"
        code, out, err = invoke_optimized("report", "--all", "--format",
                                          "json")
        assert code == 0, err
        assert out.encode() == (golden / "report_all.json").read_bytes()


#: the --in hosts of the pinned invocations, written as relative names
GOLDEN_HOSTS = {
    "fano.geom": lambda: to_text(build_fano()),
    "grid3.geom": lambda: to_text(grid_3x3()),
    "grid3_dual.geom": lambda: to_text(dual(grid_3x3())),
    "empty.geom": lambda: "points 0\n",
    "two_lines.geom": lambda: "points 6\n0 1 2\n3 4 5\n",
    "huge.geom": lambda: "points 99999999999999999999\n",
    "points_40000.geom": lambda: "points 40000\n0 1 2\n",
    "two_counts.geom": lambda: "points 3 4\n",
}
#: each subcommand's argument variants after its source
GOLDEN_VARIANTS = [
    ["build"], ["validate"], ["aut"],
    *[["hyperplanes", *classes, "--format", fmt]
      for classes in ([], ["--classes"]) for fmt in ("text", "json")],
    *[[command, *flag, "--format", fmt]
      for command, flag in (("valuations", ["--table"]),
                            ("valgeom", ["--lines-table"]))
      for flag in ([], flag) for fmt in ("text", "json", "csv")],
    ["check"], ["check", "--lemma", "3.1"], ["check", "--lemma", "9.9"],
]


def golden_invocations():
    """Every pinned argv: each variant on h21 and on each --in host, and
    the report's usage errors."""
    sources = [["--geometry", "h21"]] + [["--in", name]
                                         for name in GOLDEN_HOSTS]
    argvs = [[variant[0], *source, *variant[1:]]
             for source in sources for variant in GOLDEN_VARIANTS]
    return argvs + [["report", "--geometry", "h21"],
                    ["report", "--in", "fano.geom"], ["report"]]


def run_golden_invocations(tmp_path, monkeypatch, capsys):
    """{argv joined by spaces: [exit code, stdout, stderr]} of every
    golden invocation, run in tmp_path with the hosts written there;
    argparse wraps its usage errors to COLUMNS."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in GOLDEN_HOSTS.items():
        (tmp_path / name).write_text(text())
    return {" ".join(argv): list(invoke(capsys, *argv))
            for argv in golden_invocations()}


class TestGoldenInvocations:
    def test_every_invocation_matches_golden(self, tmp_path, monkeypatch,
                                             capsys):
        # stdout, stderr and exit code of each subcommand and format, on
        # h21 and on small hosts, pinned byte for byte
        want = json.loads((GOLDEN / "cli_invocations.json").read_text(
            encoding="utf-8"))
        got = run_golden_invocations(tmp_path, monkeypatch, capsys)
        assert list(got) == list(want)
        assert [argv for argv in got if got[argv] != want[argv]] == []

    def test_every_format_and_flag_is_pinned(self):
        # each --format choice and store_true flag that the parser offers
        # appears in a golden invocation; report's three formats are
        # pinned by the report_all golden files (TestReport, TestOptimized)
        pinned = GOLDEN_VARIANTS + [["report", "--all", "--format", fmt]
                                    for fmt in ("text", "csv", "json")]
        subparsers, = [action for action in cli._build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        offered = []
        for command, sub in subparsers.choices.items():
            for action in sub._actions:
                if action.dest == "format":
                    offered += [[command, "--format", fmt]
                                for fmt in action.choices]
                elif isinstance(action, argparse._StoreTrueAction):
                    offered.append([command, *action.option_strings])
        assert ["report", "--format", "csv"] in offered
        assert ["hyperplanes", "--classes"] in offered
        unpinned = [[command, *option] for command, *option in offered
                    if not any(variant[0] == command and any(
                        variant[i:i + len(option)] == option
                        for i in range(len(variant)))
                        for variant in pinned)]
        assert unpinned == []


# each subcommand with the exit codes it may give: only validate and
# check report a failed check (1), so a 1 elsewhere is an internal fault
SUBCOMMANDS = [(["validate"], (0, 1)), (["aut"], (0, 2)),
               (["hyperplanes", "--classes"], (0, 2)),
               (["valuations", "--format", "json"], (0, 2)),
               (["valgeom"], (0, 2)), (["check"], (0, 1, 2))]


class TestRandomHosts:
    @settings(max_examples=100, deadline=None)
    @example(from_text(EXAMPLE_HOST))
    @given(partial_linear_spaces())
    def test_every_subcommand_exits_cleanly(self, tmp_path_factory, g):
        # every input ends in a result or an error line, never a traceback
        path = tmp_path_factory.mktemp("host") / "host.geom"
        path.write_text(to_text(g))
        for argv, codes in SUBCOMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = run([argv[0], "--in", str(path)] + argv[1:])
            assert code in codes, (argv, err.getvalue())
