"""Command-line interface.

Subcommands: build, validate, aut, hyperplanes, valuations, valgeom,
check, report. Table-producing commands accept ``--format text|json|csv``;
text and JSON render the same internal report value. Exit codes: 0 all
checks pass, 1 a check or reproduction mismatch (cell-by-cell diff on
standard error) or a failed internal check (one ``error:`` line), 2
usage, input or I/O error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Callable, Dict, List, Optional, Sequence

from . import reference
from .geometry import (GeometryError, check_generalized_hexagon,
                       from_text, order_of, to_text)
from .pipeline import BUILTIN_BUILDERS, Bundle, get_bundle
from .valgeom import LemmaReport, check_lemma_3_1

REPORT_GEOMETRIES = ("h2dual", "h2")


# -- geometry loading ----------------------------------------------------


def _add_source_args(sub):
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--geometry", choices=sorted(BUILTIN_BUILDERS),
                     help="built-in geometry name")
    grp.add_argument("--in", dest="infile", metavar="FILE",
                     help="geometry file in the text format")


def _load_bundle(args) -> Bundle:
    if args.geometry:
        return get_bundle(args.geometry)
    with open(args.infile, "r", encoding="utf-8") as fh:
        g = from_text(fh.read(), name=args.infile)
    return Bundle(g, args.infile)


# -- report construction -------------------------------------------------


#: columns of the valuation and line tables, in CSV order
_VALUATION_KEYS = ("type", "count", "max_value", "ovoid_size",
                   "hyperplane_size", "distribution")
_LINE_KEYS = ("type", "per_point")


def _valuation_rows(bundle: Bundle) -> List[dict]:
    return [{"type": t.label,
             "count": t.class_size,
             "max_value": t.stats.max_value,
             "ovoid_size": len(t.stats.zero_set),
             "hyperplane_size": t.stats.hyperplane_size,
             "distribution": list(t.stats.distribution)}
            for t in bundle.valuation_types]


def _line_rows(bundle: Bundle) -> List[dict]:
    return [{"type": ltype, "per_point": dict(sorted(counts.items()))}
            for ltype, counts in sorted(bundle.line_table.items())]


def _hyperplane_section(bundle: Bundle) -> dict:
    classes = []
    for idx, cls in enumerate(bundle.hyperplane_classes):
        classes.append({
            "size": cls.representative.size(),
            "orbit_size": cls.orbit_size,
            "stabilizer_order": cls.stabilizer_order,
            "full_lines": cls.invariant_key[1],
            "valuations": bundle.valuations_per_class[idx],
        })
    return {"total": bundle.hyperplane_count, "classes": classes}


def _lemma_dict(rep: LemmaReport) -> dict:
    return {"a_connected": rep.connected,
            "b_collinear_zero_distance": rep.collinear_zero_distance,
            "c_grid_zero_distance": rep.grid_zero_distance,
            "grids16": rep.grids_per_point_16,
            "triangle_free": rep.triangle_free}


def build_report(bundle: Bundle, with_lemma: bool = False) -> dict:
    g = bundle.geometry
    order = order_of(g)
    hex_report = check_generalized_hexagon(g)
    report = {
        "geometry": bundle.name,
        "aut_order": bundle.aut_order,
        "tables": {
            "valuations": _valuation_rows(bundle),
            "lines": _line_rows(bundle),
        },
        "hyperplanes": _hyperplane_section(bundle),
        "checks": {
            "generalized_hexagon": hex_report.is_generalized_hexagon,
            "order": [order.s, order.t],
            "ovoids": len(bundle.ovoids),
            "multi_valuation_classes_isomorphic": all(
                bundle.class_valuations_isomorphic(i)
                for i, n in enumerate(bundle.valuations_per_class) if n > 1),
        },
    }
    if with_lemma:
        report["checks"]["lemma_3_1"] = _lemma_dict(
            check_lemma_3_1(bundle.vprime(), bundle.geometry))
    return report


def compare_report(report: dict, name: str) -> List[str]:
    """Cell-by-cell diff of a computed report against the reference data;
    empty when everything matches."""
    diffs: List[str] = []

    def expect(label, got, want):
        if got != want:
            diffs.append(f"{name}: {label}: expected {want!r}, got {got!r}")

    expect("aut_order", report["aut_order"], reference.AUT_ORDER)
    expect("checks.generalized_hexagon",
           report["checks"]["generalized_hexagon"], True)
    expect("checks.order", report["checks"]["order"],
           list(reference.HEXAGON_ORDER))
    expect("checks.ovoids", report["checks"]["ovoids"],
           reference.OVOID_COUNT[name])

    rows = {r["type"]: r for r in report["tables"]["valuations"]}
    want_rows = reference.VALUATION_TABLES[name]
    expect("valuations.types", sorted(rows),
           sorted(t for t, *_ in want_rows))
    for label, count, m, o, h, dist in want_rows:
        got = rows.get(label)
        if got is None:
            continue
        expect(f"valuations[{label}].count", got["count"], count)
        expect(f"valuations[{label}].max_value", got["max_value"], m)
        expect(f"valuations[{label}].ovoid_size", got["ovoid_size"], o)
        expect(f"valuations[{label}].hyperplane_size",
               got["hyperplane_size"], h)
        expect(f"valuations[{label}].distribution",
               got["distribution"], list(dist))
    expect("valuations.total",
           sum(r["count"] for r in report["tables"]["valuations"]),
           reference.VALUATION_TOTALS[name])

    lines = {r["type"]: r["per_point"] for r in report["tables"]["lines"]}
    want_lines = reference.LINE_TABLES[name]
    expect("lines.types", sorted(lines), sorted(want_lines))
    for ltype, counts in want_lines.items():
        if ltype in lines:
            expect(f"lines[{ltype}]", lines[ltype], counts)

    expect("hyperplanes.total", report["hyperplanes"]["total"],
           reference.HYPERPLANE_TOTAL)
    expect("hyperplanes.classes", len(report["hyperplanes"]["classes"]),
           reference.HYPERPLANE_CLASSES[name])
    with_vals = sum(1 for c in report["hyperplanes"]["classes"]
                    if c["valuations"] > 0)
    expect("hyperplanes.classes_with_valuations", with_vals,
           reference.CLASSES_WITH_VALUATIONS[name])
    expect("hyperplanes.max_valuations_per_class",
           max(c["valuations"] for c in report["hyperplanes"]["classes"]),
           2)
    expect("checks.multi_valuation_classes_isomorphic",
           report["checks"]["multi_valuation_classes_isomorphic"], True)

    lemma = report["checks"].get("lemma_3_1")
    if lemma is not None:
        for key, value in lemma.items():
            expect(f"checks.lemma_3_1.{key}", value, True)
    return diffs


# -- rendering -----------------------------------------------------------


def _format_table(headers: Sequence[str], rows: List[Sequence]) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row]
                                           for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    out = []
    for idx, row in enumerate(cells):
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def _valuation_table_text(report: dict) -> str:
    rows = [(r["type"], r["count"], r["max_value"], r["ovoid_size"],
             r["hyperplane_size"], r["distribution"])
            for r in report["tables"]["valuations"]]
    return _format_table(
        ("Type", "#", "M_f", "|O_f|", "|H_f|", "Value Distribution"), rows)


def _line_table_text(report: dict) -> str:
    ptypes = sorted({pt for r in report["tables"]["lines"]
                     for pt in r["per_point"]})
    rows = [[r["type"]] + [r["per_point"].get(pt, "-") for pt in ptypes]
            for r in report["tables"]["lines"]]
    return _format_table(["Type"] + ptypes, rows)


def _hyperplane_table_text(report: dict) -> str:
    rows = [(i + 1, c["size"], c["orbit_size"], c["stabilizer_order"],
             c["full_lines"], c["valuations"])
            for i, c in enumerate(report["hyperplanes"]["classes"])]
    return _format_table(
        ("class", "size", "orbit", "stabilizer", "full_lines", "valuations"),
        rows)


def _report_text(report: dict) -> str:
    parts = [f"geometry: {report['geometry']}",
             f"automorphism group order: {report['aut_order']}",
             "",
             "valuations:",
             _valuation_table_text(report),
             "",
             "valuation geometry lines:",
             _line_table_text(report),
             "",
             f"hyperplanes: {report['hyperplanes']['total']} in "
             f"{len(report['hyperplanes']['classes'])} classes",
             _hyperplane_table_text(report),
             "",
             "checks:"]
    for key, value in report["checks"].items():
        parts.append(f"  {key}: {value}")
    return "\n".join(parts)


def _csv_table(keys: Sequence[str], rows: List[dict]) -> str:
    """A header of keys, then one CSV row per dict; nested values are
    written as JSON."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for r in rows:
        writer.writerow([json.dumps(r[k]) if isinstance(r[k], (list, dict))
                         else r[k] for k in keys])
    return buf.getvalue().rstrip("\n")


def _emit(value: dict, fmt: str, text: Dict[str, Callable[[], str]]
          ) -> None:
    """Print value as JSON, or for another format the string that its
    renderer text[fmt] returns."""
    print(json.dumps(value, indent=2, sort_keys=True) if fmt == "json"
          else text[fmt]())


def _report_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "key", "value"])
    writer.writerow(["meta", "geometry", report["geometry"]])
    writer.writerow(["meta", "aut_order", report["aut_order"]])
    for r in report["tables"]["valuations"]:
        writer.writerow(["valuations", r["type"],
                         json.dumps([r["count"], r["max_value"],
                                     r["ovoid_size"], r["hyperplane_size"],
                                     r["distribution"]])])
    for r in report["tables"]["lines"]:
        writer.writerow(["lines", r["type"], json.dumps(r["per_point"])])
    for i, c in enumerate(report["hyperplanes"]["classes"]):
        writer.writerow(["hyperplanes", i + 1, json.dumps(c)])
    for key, value in report["checks"].items():
        writer.writerow(["checks", key, json.dumps(value)])
    return buf.getvalue().rstrip("\n")


# -- subcommands ---------------------------------------------------------


def _cmd_build(args) -> int:
    bundle = _load_bundle(args)
    text = to_text(bundle.geometry)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    try:
        bundle = _load_bundle(args)
    except GeometryError as exc:
        print(f"invalid geometry: {exc}", file=sys.stderr)
        return 1
    g = bundle.geometry
    order = order_of(g)
    # kept on the geometry, so the hexagon check does not redo it
    np_report = g.near_polygon_report
    hex_report = check_generalized_hexagon(g)
    print(f"points: {g.num_points}")
    print(f"lines: {len(g.lines)}")
    print(f"order: ({order.s}, {order.t})")
    print(f"near polygon: {np_report.is_near_polygon} "
          f"(diameter {np_report.diameter})")
    print(f"generalized hexagon: {hex_report.is_generalized_hexagon}")
    if not np_report.is_near_polygon:
        if np_report.witness is not None:
            x, li = np_report.witness
            print(f"NP2 witness: point {x}, line {g.lines[li]}",
                  file=sys.stderr)
        else:
            print("NP1 witness: geometry is disconnected", file=sys.stderr)
        return 1
    return 0


def _cmd_aut(args) -> int:
    bundle = _load_bundle(args)
    print(f"automorphism group order: {bundle.aut_order}")
    print(f"generators: {len(bundle.aut_group.generators)}")
    return 0


def _cmd_hyperplanes(args) -> int:
    bundle = _load_bundle(args)
    report = {"geometry": bundle.name,
              "hyperplanes": _hyperplane_section(bundle)
              if args.classes else
              {"total": bundle.hyperplane_count}}
    parts = [f"hyperplanes: {report['hyperplanes']['total']}"]
    if args.classes:
        parts.append(_hyperplane_table_text(report))
    _emit(report, args.format, {"text": lambda: "\n".join(parts)})
    return 0


def _cmd_valuations(args) -> int:
    bundle = _load_bundle(args)
    rows = _valuation_rows(bundle)
    report = {"geometry": bundle.name, "tables": {"valuations": rows}}
    _emit(report, args.format, {
        "text": lambda: _valuation_table_text(report),
        "csv": lambda: _csv_table(_VALUATION_KEYS, rows)})
    return 0


def _cmd_valgeom(args) -> int:
    bundle = _load_bundle(args)
    rows = _line_rows(bundle)
    report = {"geometry": bundle.name, "tables": {"lines": rows}}
    _emit(report, args.format, {
        "text": lambda: _line_table_text(report),
        "csv": lambda: _csv_table(_LINE_KEYS, rows)})
    return 0


def _cmd_check(args) -> int:
    if args.lemma != "3.1":
        print(f"unknown check {args.lemma!r}", file=sys.stderr)
        return 2
    bundle = _load_bundle(args)
    rep = check_lemma_3_1(bundle.vprime(), bundle.geometry)
    lemma = _lemma_dict(rep)
    ok = all(lemma.values())
    for key, value in lemma.items():
        print(f"{key}: {'pass' if value else 'FAIL'}")
    if not ok:
        for key, value in lemma.items():
            if not value:
                print(f"check failed: {key}", file=sys.stderr)
        if rep.witness is not None:
            print(f"witness: {rep.witness}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_report(args) -> int:
    names = list(REPORT_GEOMETRIES) if args.all else [args.geometry]
    exit_code = 0
    reports = []
    for name in names:
        bundle = get_bundle(name)
        report = build_report(bundle, with_lemma=(name == "h2dual"))
        diffs = compare_report(report, name)
        report["checks"]["reference_match"] = not diffs
        reports.append(report)
        for diff in diffs:
            print(diff, file=sys.stderr)
        if diffs:
            exit_code = 1
    payload = reports[0] if len(reports) == 1 else {"reports": reports}
    _emit(payload, args.format, {
        "text": lambda: "\n\n".join(_report_text(r) for r in reports),
        "csv": lambda: "\n".join(_report_csv(r) for r in reports)})
    return exit_code


# -- entry point ---------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first run() and reused by later calls;
    each subcommand's set_defaults(func=...) binds its handler at that
    first build."""
    parser = argparse.ArgumentParser(
        prog="hexval",
        description="Order-2 generalized hexagons, their hyperplanes, "
                    "valuations and valuation geometries.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("build", help="emit a geometry in the text format")
    _add_source_args(sub)
    sub.add_argument("--out", metavar="FILE")
    sub.set_defaults(func=_cmd_build)

    sub = subs.add_parser("validate", help="run the axiom checkers")
    _add_source_args(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = subs.add_parser("aut", help="automorphism group order")
    _add_source_args(sub)
    sub.set_defaults(func=_cmd_aut)

    sub = subs.add_parser("hyperplanes", help="enumerate hyperplanes")
    _add_source_args(sub)
    sub.add_argument("--classes", action="store_true",
                     help="classify up to automorphism")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=_cmd_hyperplanes)

    sub = subs.add_parser("valuations", help="valuation class table")
    _add_source_args(sub)
    sub.add_argument("--table", action="store_true",
                     help="print the class table (default output)")
    sub.add_argument("--format", choices=("text", "json", "csv"),
                     default="text")
    sub.set_defaults(func=_cmd_valuations)

    sub = subs.add_parser("valgeom", help="valuation geometry line table")
    _add_source_args(sub)
    sub.add_argument("--lines-table", action="store_true",
                     help="print the line-type table (default output)")
    sub.add_argument("--format", choices=("text", "json", "csv"),
                     default="text")
    sub.set_defaults(func=_cmd_valgeom)

    sub = subs.add_parser("check", help="run a named check suite")
    _add_source_args(sub)
    sub.add_argument("--lemma", default="3.1", metavar="NAME")
    sub.set_defaults(func=_cmd_check)

    sub = subs.add_parser("report",
                          help="reproduce the regression tables and checks")
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--geometry", choices=REPORT_GEOMETRIES)
    grp.add_argument("--all", action="store_true",
                     help="report on both hexagons")
    sub.add_argument("--format", choices=("text", "json", "csv"),
                     default="text")
    sub.set_defaults(func=_cmd_report)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except OSError as exc:
        if exc.filename is None:  # no file opened, such as a broken pipe
            raise
        print(f"cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except (GeometryError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a failed internal check
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
