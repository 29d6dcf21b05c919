"""The benchmark workloads. Each pass runs in a fresh worker interpreter.

A pass generates its inputs from the seed, runs its timed operations
(traced when asked), then checks every output outside the timed region.
An operation is one CLI call or one public library call on one host,
keyed by (host index, operation name); an uncaught exception is a failure,
recorded with a replayable witness, while an exit code of 1 or 2 is a
result.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import statistics
import time
import traceback
from pathlib import Path

import hexval as hx
from hexval import cli, reference

import hosts
import oracle
from speed import SpeedProbe
from tracer import Tracer

HEXAGONS = ("h2", "h2dual")
BUILTIN = {"h2": hx.build_h2, "h2dual": hx.build_h2_dual}
SUBCOMMANDS = (
    ("validate", []),
    ("aut", []),
    ("hyperplanes", ["--classes"]),
    ("valuations", ["--format", "json"]),
    ("valgeom", []),
    ("check", []),
)
#: Bundle stages in the order ``build_report`` first needs them
REPORT_STAGES = ("aut_group", "aut_order", "valuations", "classification",
                 "valuation_geometry", "line_table", "hyperplane_classes",
                 "valuations_per_class", "hyperplanes", "ovoids")
GOLDEN = Path(__file__).resolve().parent / "golden" / "report_all.json"

FAILED = object()


class Pass:
    """Operations, failures and check errors of one pass."""

    def __init__(self, workload: str, pass_id: int, tracer):
        self.workload = workload
        self.pass_id = pass_id
        self.tracer = tracer
        self.ops: list = []
        self.op_s: list = []
        self.failures: list = []
        self.errors: list = []
        self.t0 = self.wall = self.probe_s = self.loop_s = 0.0
        self.rss_kb = 0
        self.probe = SpeedProbe()

    def begin(self) -> None:
        """Start the timed region, traced from here on when asked."""
        if self.tracer is not None:
            self.tracer.install()
        self.probe.start()
        self.t0 = time.perf_counter()

    def stop(self) -> None:
        """End the timed region; the checks that follow are not timed."""
        self.wall = time.perf_counter() - self.t0
        self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.probe.stop()
        self.probe_s = sum(self.probe.samples)
        self.loop_s = statistics.median(self.probe.samples)

    def call(self, host: dict, op: str, fn, *args):
        """One timed library call; FAILED when it raised."""
        self.ops.append((host["index"], op))
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the program's failure, recorded below
            self.op_s.append(time.perf_counter() - start)
            self.fail(host, op, exc)
            return FAILED
        self.op_s.append(time.perf_counter() - start)
        return result

    def fail(self, host: dict, op: str, exc: BaseException) -> None:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        self.failures.append({
            "workload": self.workload, "pass": self.pass_id,
            "host": host["index"], "label": host["label"],
            "sha256": hosts.digest(host["text"]), "text": host["text"],
            "op": op,
            "exception": type(exc).__name__,
            "message": str(exc).splitlines()[0] if str(exc) else "",
            "where": f"{Path(frame.filename).name}:{frame.lineno} "
                     f"{frame.name}"})

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


# -- report_all ----------------------------------------------------------


def report_all(p: Pass, seed: int, root: Path) -> None:
    """``hexval report --all --format json``; the seed is unused."""
    host = {"index": 0, "label": "report --all", "text": ""}
    argv = ["report", "--all", "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    p.begin()
    if p.tracer is not None:
        for name in cli.REPORT_GEOMETRIES:
            bundle = hx.get_bundle(name)
            for stage in REPORT_STAGES:
                getattr(bundle, stage)
        with p.tracer.span("cli.report"):
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = p.call(host, "report", cli.run, argv)
    else:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = p.call(host, "report", cli.run, argv)
    p.stop()
    p.check(rc == 0, f"report --all exited with {rc}: {err.getvalue()!r}")
    got = out.getvalue().encode()
    want = GOLDEN.read_bytes()
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        p.errors.append(f"report --all output differs from the golden file "
                        f"at byte {at} ({len(got)} vs {len(want)} bytes)")


# -- relabeled_hexagons --------------------------------------------------


def relabeled_hexagons(p: Pass, seed: int, root: Path) -> None:
    rng = random.Random(f"relabeled_hexagons/{seed}")
    builtin = {name: BUILTIN[name]() for name in HEXAGONS}
    canonical = {name: hx.to_text(g) for name, g in builtin.items()}
    inputs = [{"index": i, "label": name, "text": hosts.relabel(rng, text)}
              for i, (name, text) in enumerate(canonical.items())]
    got = {}
    p.begin()
    for host in inputs:
        name = host["label"]
        g = p.call(host, "from_text", hx.from_text, host["text"], name)
        if g is FAILED:
            continue
        group = p.call(host, "automorphism_group", hx.automorphism_group, g)
        if group is FAILED:
            continue
        iso = p.call(host, "are_isomorphic", hx.are_isomorphic,
                     g, builtin[name])
        classes = p.call(host, "classify_hyperplanes",
                         hx.classify_hyperplanes, g, group)
        vals = p.call(host, "all_valuations", hx.all_valuations, g)
        if vals is FAILED:
            continue
        types = p.call(host, "classify_valuations", hx.classify_valuations,
                       g, group, vals)
        got[name] = (g, group, iso, classes, vals, types)
    noniso = FAILED
    if len(got) == len(HEXAGONS):
        pair = {"index": len(inputs), "label": "h2~h2dual",
                "text": inputs[0]["text"] + inputs[1]["text"]}
        noniso = p.call(pair, "are_isomorphic", hx.are_isomorphic,
                        got["h2"][0], got["h2dual"][0])
    p.stop()

    golden = json.loads(GOLDEN.read_text())["reports"]
    golden_classes = {r["geometry"]: sorted(
        (c["size"], c["orbit_size"], c["stabilizer_order"], c["full_lines"])
        for c in r["hyperplanes"]["classes"]) for r in golden}
    p.check(set(got) == set(HEXAGONS), "not every relabeled host completed")
    p.check(noniso is None, "relabeled h2 and h2dual reported isomorphic")
    for host in inputs:
        name = host["label"]
        if name not in got:
            continue
        g, group, iso, classes, vals, types = got[name]
        p.check(group.order() == reference.AUT_ORDER,
                f"{name}: |Aut| = {group.order()}")
        n, lines = hosts.parse(host["text"])
        p.check(iso not in (None, FAILED) and oracle.is_line_map(
            iso, n, lines, hosts.parse(canonical[name])[1]),
            f"{name}: isomorphism to the built-in hexagon not verified")
        if classes is FAILED:
            p.errors.append(f"{name}: classify_hyperplanes failed")
        else:
            p.check(sum(c.orbit_size for c in classes)
                    == reference.HYPERPLANE_TOTAL
                    and len(classes) == reference.HYPERPLANE_CLASSES[name],
                    f"{name}: {len(classes)} hyperplane classes")
            p.check(sorted((c.representative.size(), c.orbit_size,
                            c.stabilizer_order, c.invariant_key[1])
                           for c in classes) == golden_classes[name],
                    f"{name}: hyperplane class table differs")
        p.check(len(vals) == reference.VALUATION_TOTALS[name],
                f"{name}: {len(vals)} valuations")
        if types is FAILED:
            p.errors.append(f"{name}: classify_valuations failed")
        else:
            rows = [(t.label, t.class_size, t.stats.max_value,
                     len(t.stats.zero_set), t.stats.hyperplane_size,
                     t.stats.distribution) for t in types[0]]
            p.check(rows == reference.VALUATION_TABLES[name],
                    f"{name}: valuation class rows differ: {rows}")


# -- small_hosts ---------------------------------------------------------


def _projection(sub: str, outcome):
    """The part of a command's outcome that must not depend on the point
    labels: the exception type, or the exit code and the label-free
    stdout."""
    if isinstance(outcome, BaseException):
        return ("raised", type(outcome).__name__)
    rc, out = outcome
    rows = out.splitlines()
    if rc == 0 and sub == "aut":
        return rc, rows[:1]  # the generator count depends on search order
    if rc == 0 and sub == "hyperplanes":
        # classes tied on (size, full lines) are ordered by labels
        return rc, rows[0], sorted(r.split()[1:] for r in rows[3:])
    if rc == 0 and sub == "valuations":
        return rc, json.loads(out)["tables"]["valuations"]
    return rc, out


def small_hosts(p: Pass, seed: int, root: Path) -> None:
    rng = random.Random(f"small_hosts/{seed}")
    classical = {"fano": hx.build_fano(), "grid3": hx.grid_3x3(),
                 "grid3_dual": hx.dual(hx.grid_3x3()),
                 "h21": hx.build_hexagon_2_1()}
    inputs = hosts.small_hosts(
        rng, {name: hx.to_text(g) for name, g in classical.items()})
    folder = root / ".bench_build" / "perfbench" / "hosts" / str(seed)
    folder.mkdir(parents=True, exist_ok=True)
    for i, host in enumerate(inputs):
        host["index"] = i
        host["path"] = folder / f"host_{i:03d}.txt"
        host["path"].write_text(host["text"])
    tracer = p.tracer
    outcomes = []
    p.begin()
    for host in inputs:
        for sub, extra in SUBCOMMANDS:
            argv = [sub, "--in", str(host["path"])] + extra
            p.ops.append((host["index"], sub))
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    if tracer is not None:
                        with tracer.span(f"cli.{sub}"):
                            rc = cli.run(argv)
                    else:
                        rc = cli.run(argv)
                outcome = (rc, out.getvalue())
            except Exception as exc:  # the program's failure, recorded below
                outcome = exc
            p.op_s.append(time.perf_counter() - start)
            outcomes.append((host, sub, outcome))
    p.stop()

    seen = {}
    for host, sub, outcome in outcomes:
        if isinstance(outcome, BaseException):
            p.fail(host, sub, outcome)
        name = host["classical"]
        if name is not None:
            proj = _projection(sub, outcome)
            first = seen.setdefault((name, sub), proj)
            p.check(proj == first, f"{host['label']}: {sub} output depends "
                                   f"on the point labels")
            if sub == "aut":
                want = hosts.CLASSICAL_AUT_ORDER[name]
                p.check(proj == (0, [f"automorphism group order: {want}"]),
                        f"{host['label']}: aut printed {proj}")
        if sub == "valuations" and not isinstance(outcome, BaseException) \
                and outcome[0] == 0:
            total = sum(row["count"] for row in
                        json.loads(outcome[1])["tables"]["valuations"])
            want = oracle.count_valuations(*hosts.parse(host["text"]))
            p.check(total == want,
                    f"{host['label']} ({hosts.digest(host['text'])[:12]}): "
                    f"valuations total {total}, oracle {want}")


WORKLOADS = {
    "report_all": report_all,
    "relabeled_hexagons": relabeled_hexagons,
    "small_hosts": small_hosts,
}


def run_pass(workload: str, seed: int, pass_id: int, traced: bool,
             root: Path) -> dict:
    tracer = Tracer() if traced else None
    p = Pass(workload, pass_id, tracer)
    WORKLOADS[workload](p, seed, root)
    record = {
        "workload": workload, "seed": seed, "pass": pass_id,
        "traced": traced, "wall_s": p.wall, "probe_s": p.probe_s,
        "loop_s": p.loop_s, "op_s": p.op_s, "ops": p.ops,
        "failures": p.failures,
        "errors": p.errors, "peak_rss_kb": p.rss_kb,
    }
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.summary(p.t0, p.wall)
    return record
