"""Command-line interface.

Subcommands: build, validate, aut, hyperplanes, valuations, valgeom,
check, report. ``--format`` is ``text|json`` for ``hyperplanes`` and
``text|json|csv`` for ``valuations``, ``valgeom`` and ``report``; every
format renders the same internal report value. Exit codes: 0 all
checks pass; 1 a check or reproduction mismatch (cell-by-cell diff on
standard error), a failed internal check or any other exception, a
fault of the program such as a bare ``ValueError`` (one ``error:``
line, ``error: internal error (<type>): <message>`` for the latter); 2
usage or I/O error, input refused with a ``GeometryError``, or a host
too large for the process: ``MemoryError`` and ``RecursionError`` end
in ``error: out of memory`` or ``error: recursion depth exceeded``.

An ``--in`` file is read on every call, and the ``Bundle`` built from
it is kept until another name or text arrives: consecutive ``run()``
calls in one process on an unchanged file share one automorphism
search, hyperplane classification and valuation search. At most one
such bundle is held; a process per command sees no difference.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence

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
    # read on every call: a changed, removed or unreadable file is seen
    with open(args.infile, "r", encoding="utf-8") as fh:
        return _bundle_from_text(fh.read(), args.infile)


@functools.lru_cache(maxsize=1)
def _bundle_from_text(text: str, name: str) -> Bundle:
    """The Bundle of a geometry text read from the --in file name; the
    last one is kept, so consecutive commands on unchanged text share
    its stages. A parse error keeps nothing."""
    return Bundle(from_text(text, name=name), name)


# -- report construction -------------------------------------------------


#: columns of the valuation and line tables, in CSV order
_VALUATION_KEYS = ("type", "count", "max_value", "ovoid_size",
                   "hyperplane_size", "distribution")
_LINE_KEYS = ("type", "per_point")


def _valuation_rows(bundle: Bundle) -> List[dict]:
    return [dict(zip(_VALUATION_KEYS, (
        t.label, t.class_size, t.stats.max_value, len(t.stats.zero_set),
        t.stats.hyperplane_size, list(t.stats.distribution))))
        for t in bundle.valuation_types]


def _line_rows(bundle: Bundle) -> List[dict]:
    return [dict(zip(_LINE_KEYS, (ltype, dict(sorted(counts.items())))))
            for ltype, counts in sorted(bundle.line_table.items())]


def _hyperplane_section(bundle: Bundle, classes: bool) -> dict:
    """The hyperplane total and, when classes is set, one row per
    hyperplane class, its columns in table order."""
    section = {"total": bundle.hyperplane_count}
    if classes:
        section["classes"] = [
            {"size": cls.representative.size(),
             "orbit_size": cls.orbit_size,
             "stabilizer_order": cls.stabilizer_order,
             "full_lines": cls.invariant_key[1],
             "valuations": bundle.valuations_per_class[idx]}
            for idx, cls in enumerate(bundle.hyperplane_classes)]
    return section


def _lemma_dict(rep: LemmaReport) -> dict:
    return {"a_connected": rep.connected,
            "b_collinear_zero_distance": rep.collinear_zero_distance,
            "c_grid_zero_distance": rep.grid_zero_distance,
            "grids16": rep.grids_per_point_16,
            "triangle_free": rep.triangle_free}


def build_report(bundle: Bundle) -> dict:
    g = bundle.geometry
    order = order_of(g)
    hex_report = check_generalized_hexagon(g)
    report = {
        "geometry": bundle.name,
        "aut_order": bundle.aut_order,
        "tables": {name: table.rows(bundle)
                   for name, table in _TABLES.items()},
        "hyperplanes": _hyperplane_section(bundle, classes=True),
        "checks": {
            "generalized_hexagon": hex_report.is_generalized_hexagon,
            "order": [order.s, order.t],
            "ovoids": len(bundle.ovoids),
            "multi_valuation_classes_isomorphic": all(
                bundle.class_valuations_isomorphic(i)
                for i, n in enumerate(bundle.valuations_per_class) if n > 1),
        },
    }
    if bundle.name == "h2dual":
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
    for label, *cells in want_rows:
        got = rows.get(label)
        if got is None:
            continue
        for key, want in zip(_VALUATION_KEYS[1:], cells):
            expect(f"valuations[{label}].{key}", got[key],
                   list(want) if isinstance(want, tuple) else want)
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
        out.append("  ".join(map(str.ljust, row, widths)).rstrip())
        if idx == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def _valuation_table_text(rows: List[dict]) -> str:
    return _format_table(
        ("Type", "#", "M_f", "|O_f|", "|H_f|", "Value Distribution"),
        [[r[k] for k in _VALUATION_KEYS] for r in rows])


def _line_table_text(rows: List[dict]) -> str:
    ptypes = sorted({pt for r in rows for pt in r["per_point"]})
    return _format_table(
        ["Type"] + ptypes,
        [[r["type"]] + [r["per_point"].get(pt, "-") for pt in ptypes]
         for r in rows])


def _hyperplane_table_text(section: dict) -> str:
    return _format_table(
        ("class", "size", "orbit", "stabilizer", "full_lines", "valuations"),
        [[i + 1, *c.values()] for i, c in enumerate(section["classes"])])


class _Table(NamedTuple):
    """A row table of the report: its heading in the text report, its
    rows, its CSV columns and its text renderer."""

    heading: str
    rows: Callable[[Bundle], List[dict]]
    keys: Sequence[str]
    text: Callable[[List[dict]], str]


#: the report's "tables", in report order
_TABLES = {
    "valuations": _Table("valuations", _valuation_rows, _VALUATION_KEYS,
                         _valuation_table_text),
    "lines": _Table("valuation geometry lines", _line_rows, _LINE_KEYS,
                    _line_table_text),
}


def _report_text(report: dict) -> str:
    parts = [f"geometry: {report['geometry']}",
             f"automorphism group order: {report['aut_order']}"]
    for name, table in _TABLES.items():
        parts += ["", f"{table.heading}:", table.text(report["tables"][name])]
    parts += ["",
              f"hyperplanes: {report['hyperplanes']['total']} in "
              f"{len(report['hyperplanes']['classes'])} classes",
              _hyperplane_table_text(report["hyperplanes"]),
              "",
              "checks:"]
    for key, value in report["checks"].items():
        parts.append(f"  {key}: {value}")
    return "\n".join(parts)


def _csv(rows: Iterable[Sequence]) -> str:
    """One CSV line per row; list and dict cells are written as JSON."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [json.dumps(c) if isinstance(c, (list, dict)) else c for c in row]
        for row in rows)
    return buf.getvalue().rstrip("\n")


def _report_csv(report: dict) -> str:
    """Rows of (section, key, value): a table row's value is its columns
    after the key, the column itself when there is one, else a list."""
    out = [("section", "key", "value"),
           ("meta", "geometry", report["geometry"]),
           ("meta", "aut_order", report["aut_order"])]
    for name, table in _TABLES.items():
        for r in report["tables"][name]:
            key, *rest = (r[k] for k in table.keys)
            out.append((name, key, rest[0] if len(rest) == 1 else rest))
    out += [("hyperplanes", i + 1, c)
            for i, c in enumerate(report["hyperplanes"]["classes"])]
    out += [("checks", key, json.dumps(value))
            for key, value in report["checks"].items()]
    return _csv(out)


def _emit(value: dict, fmt: str, text: Callable[[], str],
          csv: Optional[Callable[[], str]] = None) -> None:
    """Print value as JSON, or the string that the renderer of fmt, text
    or csv, returns."""
    print(json.dumps(value, indent=2, sort_keys=True) if fmt == "json"
          else csv() if fmt == "csv" else text())


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
    section = _hyperplane_section(bundle, args.classes)
    parts = [f"hyperplanes: {section['total']}"]
    if args.classes:
        parts.append(_hyperplane_table_text(section))
    _emit({"geometry": bundle.name, "hyperplanes": section}, args.format,
          lambda: "\n".join(parts))
    return 0


def _cmd_table(args) -> int:
    bundle = _load_bundle(args)
    table = _TABLES[args.table_name]
    rows = table.rows(bundle)
    _emit({"geometry": bundle.name, "tables": {args.table_name: rows}},
          args.format, lambda: table.text(rows),
          lambda: _csv([table.keys,
                        *([r[k] for k in table.keys] for r in rows)]))
    return 0


def _cmd_check(args) -> int:
    if args.lemma != "3.1":
        print(f"unknown check {args.lemma!r}", file=sys.stderr)
        return 2
    bundle = _load_bundle(args)
    rep = check_lemma_3_1(bundle.vprime(), bundle.geometry)
    lemma = _lemma_dict(rep)
    failed = [key for key, value in lemma.items() if not value]
    for key, value in lemma.items():
        print(f"{key}: {'pass' if value else 'FAIL'}")
    for key in failed:
        print(f"check failed: {key}", file=sys.stderr)
    if failed and rep.witness is not None:
        print(f"witness: {rep.witness}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_report(args) -> int:
    names = list(REPORT_GEOMETRIES) if args.all else [args.geometry]
    exit_code = 0
    reports = []
    for name in names:
        report = build_report(get_bundle(name))
        diffs = compare_report(report, name)
        report["checks"]["reference_match"] = not diffs
        reports.append(report)
        for diff in diffs:
            print(diff, file=sys.stderr)
        if diffs:
            exit_code = 1
    payload = reports[0] if len(reports) == 1 else {"reports": reports}
    _emit(payload, args.format,
          lambda: "\n\n".join(_report_text(r) for r in reports),
          lambda: "\n".join(_report_csv(r) for r in reports))
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

    for command, name, help_text, flag, flag_help in (
            ("valuations", "valuations", "valuation class table", "--table",
             "print the class table (default output)"),
            ("valgeom", "lines", "valuation geometry line table",
             "--lines-table", "print the line-type table (default output)")):
        sub = subs.add_parser(command, help=help_text)
        _add_source_args(sub)
        sub.add_argument(flag, action="store_true", help=flag_help)
        sub.add_argument("--format", choices=("text", "json", "csv"),
                         default="text")
        # not dest "table", which --table writes
        sub.set_defaults(func=_cmd_table, table_name=name)

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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except RecursionError:  # a RuntimeError, but not a failed check
        print("error: recursion depth exceeded", file=sys.stderr)
        return 2
    except GeometryError as exc:  # refused input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a failed internal check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault of the program, not of the input
        print(f"error: internal error ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left, as under `| head`: the interpreter's last
        # flush would raise again, so stdout goes to devnull first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
