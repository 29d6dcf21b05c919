"""hexval benchmark harness.

Run from the repository root:

    python3 perfbench/run.py --workload report_all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see BENCHMARK.json for why each exists):

* ``report_all``: ``hexval report --all --format json``, byte-compared
  with ``perfbench/golden/report_all.json``;
* ``relabeled_hexagons``: the library calls on seeded relabelings of H(2)
  and H^D(2);
* ``small_hosts``: six CLI subcommands on many small seeded hosts.

Every pass runs in a fresh interpreter (``perfbench/worker.py``), one at a
time, because the program caches per process. Passes repeat until the next
one would end after ``--seconds``; there is always at least one, and with
``--trace 1`` at least one untraced and one traced pass, alternating.
With ``--trace 0`` the last stdout line reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics. A correctness mismatch prints
the result with ``"correct": false`` and exits 1; a pass that crashes or
overruns exits 3 without a result. Results, failure witnesses and spans
are written under ``.bench_build/perfbench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import LOOP_REF_S, loop_time

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("report_all", "relabeled_hexagons", "small_hosts")
SUBCOMMANDS = ("validate", "aut", "hyperplanes", "valuations", "valgeom",
               "check")
#: set-up probes before the first pass and again after the last
SETUP_PROBES = 4
#: a run must end within 180 s; stop starting passes well before
TIME_LIMIT_S = 170.0

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: per-layer self-time metric -> span name
LAYER_TIMES = {
    "constructions.build_s": "constructions.build",
    "geometry.parse_s": "geometry.parse",
    "geometry.validate_s": "geometry.validate",
    "geometry.ovoids_s": "geometry.ovoids",
    "geometry.grids_s": "geometry.grids",
    "gf2.nullspace_s": "gf2.nullspace",
    "perm.aut_s": "perm.aut",
    "perm.iso_s": "perm.iso",
    "perm.noniso_s": "perm.noniso",
    "hyperplanes.enumerate_s": "hyperplanes.enumerate",
    "hyperplanes.classify_s": "hyperplanes.classify",
    "pipeline.valuations_per_class_s": "pipeline.valuations_per_class",
    "valuations.all_s": "valuations.all",
    "valuations.classify_s": "valuations.classify",
    "valgeom.build_s": "valgeom.build",
    "valgeom.line_table_s": "valgeom.line_table",
    "valgeom.lemma_s": "valgeom.lemma",
    "cli.report_s": "cli.report",
}
LAYER_COUNTS = ("perm.aut_order", "perm.aut_generators", "hyperplanes.count",
                "hyperplanes.classes", "valuations.count", "valgeom.lines")
PER_LAYER = {
    "wall_s": "s",
    "setup_raw_s": "s",
    "speed.loop_ms": "ms",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    **{name: "s" for name in LAYER_TIMES},
    **{f"cli.{sub}_ms": "ms" for sub in SUBCOMMANDS},
    **{name: "count" for name in LAYER_COUNTS},
    "valuations.hyperplane_yield": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
    "failed_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not measure: a pass crashed or overran."""


# -- passes --------------------------------------------------------------


def spawn(args, deadline: float):
    """Run the worker; return ((set-up seconds, speed-loop seconds timed
    just before the spawn), pass record or None)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    loop = loop_time()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(WORKER), str(ROOT), *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, env=env)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} overran the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n"
                         + err[-2000:])
    return (setup, loop), (json.loads(out) if out.strip() else None)


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    t_start = time.perf_counter()
    deadline = t_start + TIME_LIMIT_S
    setups = [spawn(["--probe"], deadline)[0] for _ in range(SETUP_PROBES)]
    records = []
    measure_start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        t0 = time.perf_counter()
        setup, record = spawn([workload, seed, len(records), int(traced)],
                              deadline)
        last = time.perf_counter() - t0
        setups.append(setup)
        record["setup_s"] = setup[0]
        records.append(record)
        need_pair = trace and len(records) < 2
        now = time.perf_counter()
        if not need_pair and now - measure_start + last > seconds:
            break
        if now + last > deadline:
            break
    if trace and len(records) < 2:
        raise BenchError("no time left for a traced pass")
    setups += [spawn(["--probe"], deadline)[0] for _ in range(SETUP_PROBES)]
    return setups, records


# -- statistics ----------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def wall_ref(record) -> float:
    """Pass time without the speed probe's own turns, rescaled from the
    speed the probe measured during the pass to the reference speed."""
    return (record["wall_s"] - record["probe_s"]) * LOOP_REF_S \
        / record["loop_s"]


def end_to_end(setups, records):
    """Metric -> (value, sample count) over the untraced passes; set-up
    over every spawn, each rescaled by the speed timed just before it."""
    plain = [r for r in records if not r["traced"]]
    return {
        "wall_ref_s": (statistics.median(map(wall_ref, plain)), len(plain)),
        "setup_s": (statistics.median(s * LOOP_REF_S / loop
                                      for s, loop in setups), len(setups)),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] / 1024
                                          for r in plain), len(plain)),
    }


def operation_counts(records):
    """(attempted, failed): distinct operations of the run, and those of
    them that raised in any pass. Every pass of a run repeats the same
    operations on the same inputs, so both counts depend only on the
    workload and the seed, never on how many passes fit in the time."""
    attempted = {tuple(op) for r in records for op in r["ops"]}
    failed = {(f["host"], f["op"]) for r in records for f in r["failures"]}
    return len(attempted), len(failed)


def per_layer(setups, records):
    """Metric -> (value, sample count): raw times and operation latency
    from the untraced passes, everything else from the traced ones."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    traces = [r["trace"] for r in traced]
    ops = [dt for r in plain for dt in r["op_s"]]
    out = {"wall_s": (statistics.median(r["wall_s"] for r in plain),
                      len(plain)),
           "setup_raw_s": (statistics.median(s for s, _ in setups),
                           len(setups)),
           "speed.loop_ms": (statistics.median(r["loop_s"] for r in plain)
                             * 1e3, len(plain)),
           "op_p50_ms": (percentile(ops, 0.5) * 1e3, len(ops)),
           "op_p90_ms": (percentile(ops, 0.9) * 1e3, len(ops))}
    for metric, span in LAYER_TIMES.items():
        out[metric] = (statistics.median(t["self_s"].get(span, 0.0)
                                         for t in traces), len(traces))
    for sub in SUBCOMMANDS:
        calls = [ms for t in traces for ms in t["cli_self_ms"].get(sub, [])]
        out[f"cli.{sub}_ms"] = (statistics.median(calls) if calls else 0.0,
                                len(calls))
    for name in LAYER_COUNTS:
        out[name] = (statistics.median(t["counts"].get(name, 0)
                                       for t in traces), len(traces))
    distinct = sum(t["yield"][0] for t in traces)
    swept = sum(t["yield"][1] for t in traces)
    out["valuations.hyperplane_yield"] = (distinct / swept if swept else 0.0,
                                          len(traces))
    out["trace.overhead_frac"] = (
        statistics.median(map(wall_ref, traced))
        / statistics.median(map(wall_ref, plain)) - 1, len(records))
    out["trace.coverage"] = (statistics.median(t["coverage"] for t in traces),
                             len(traces))
    attempted, failed = operation_counts(records)
    out["failed_frac"] = (failed / attempted, attempted)
    return out


# -- reporting -----------------------------------------------------------


def provenance(seed: int, records) -> dict:
    src = ROOT / "src" / "hexval"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    versions = records[0]["versions"]
    return {
        "commit": git_head(), "src_sha256": digest.hexdigest(), "seed": seed,
        "python": versions["python"], "numpy": versions["numpy"],
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "passes": {"untraced": sum(not r["traced"] for r in records),
                   "traced": sum(r["traced"] for r in records)},
    }


def git_head():
    """The checked-out commit, read from .git when the root has one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for row in packed.read_text().splitlines():
            if row.endswith(" " + name):
                return row.split()[0]
    return None


def layer_table(records) -> list:
    """Self time per layer and inclusive time per Bundle stage, as text."""
    traced = [r for r in records if r["traced"]]
    if not traced:
        return []
    wall = statistics.median(r["wall_s"] for r in traced)
    layers, stages = {}, {}
    for r in traced:
        for name, own in r["trace"]["self_s"].items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own / len(traced)
        for name, start, end, _ in r["trace"]["spans"]:
            if name.startswith("pipeline."):
                stages[name] = stages.get(name, 0.0) + (end - start) / len(traced)
    rows = [f"  per-layer self time (mean of {len(traced)} traced passes, "
            f"traced wall {wall:.3f} s):"]
    for layer, own in sorted(layers.items(), key=lambda kv: -kv[1]):
        rows.append(f"    {layer:<14} {own:10.4f} s  {100 * own / wall:5.1f}%")
    if stages:
        rows.append("  Bundle stages (inclusive):")
        for name, dur in sorted(stages.items(), key=lambda kv: -kv[1]):
            rows.append(f"    {name:<36} {dur:10.4f} s")
    return rows


def write_results(workload, seed, trace, prov, metrics, records) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    witnesses = OUT / "witnesses"
    witnesses.mkdir(exist_ok=True)
    failures = {}
    for r in records:
        for f in r["failures"]:
            (witnesses / f"{f['sha256'][:16]}.txt").write_text(f["text"])
            key = (f["host"], f["op"])
            failures.setdefault(key, {k: v for k, v in f.items()
                                      if k != "text"})
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({
        "provenance": prov,
        "metrics": {k: {"value": v, "samples": n}
                    for k, (v, n) in metrics.items()},
        "failures": list(failures.values()),
        "passes": [{k: v for k, v in r.items()
                    if k not in ("failures", "trace")} for r in records],
        "spans": {r["pass"]: r["trace"]["spans"]
                  for r in records if r["traced"]},
    }, indent=1))
    return path


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (metrics, units, correct, attempted,
    failed)."""
    setups, records = run_passes(workload, seed, seconds, trace)
    errors = [e for r in records for e in r["errors"]]
    attempted, failed = operation_counts(records)
    metrics = (per_layer if trace else end_to_end)(setups, records)
    units = PER_LAYER if trace else END_TO_END
    prov = provenance(seed, records)
    path = write_results(workload, seed, trace, prov, metrics, records)

    print(f"workload {workload}: seed {seed}, "
          f"{prov['passes']['untraced']} untraced and "
          f"{prov['passes']['traced']} traced passes")
    print("  provenance: " + json.dumps(prov))
    for name, (value, count) in metrics.items():
        print(f"  {name:<34} {value:14.6f} {units[name]:<6} n={count}")
    kinds, seen = {}, set()
    for r in records:
        for f in r["failures"]:
            if (f["host"], f["op"]) in seen:
                continue
            seen.add((f["host"], f["op"]))
            key = f"{f['op']} -> {f['exception']} at {f['where']}"
            kinds[key] = kinds.get(key, 0) + 1
    plain = [r for r in records if not r["traced"]]
    ops = [dt for r in plain for dt in r["op_s"]]
    print(f"  raw: wall_s "
          f"{statistics.median(r['wall_s'] for r in plain):.4f} s, "
          f"n={len(plain)}; setup_s "
          f"{statistics.median(s for s, _ in setups):.4f} s, "
          f"n={len(setups)}; speed loop "
          f"{statistics.median(r['loop_s'] for r in plain) * 1e3:.4f} ms")
    print(f"  distinct operations: {attempted} attempted, {failed} raised "
          f"(each repeated in {len(records)} passes); untraced "
          f"latency p50 {percentile(ops, 0.5) * 1e3:.3f} ms, "
          f"p90 {percentile(ops, 0.9) * 1e3:.3f} ms, n={len(ops)}")
    for key, count in sorted(kinds.items()):
        print(f"    {count:5d} x {key}")
    for row in layer_table(records):
        print(row)
    for error in errors:
        print(f"  MISMATCH: {error}")
    print(f"  results: {path.relative_to(ROOT)}")
    return metrics, units, not errors, attempted, failed


def check_declared_metrics() -> None:
    """BENCHMARK.json, when present, must declare exactly these metrics."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != ours:
            raise SystemExit(f"BENCHMARK.json {key} does not match "
                             f"perfbench/run.py: {sorted(declared.items())} "
                             f"vs {sorted(ours.items())}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hexval" / "__init__.py").is_file():
        print(f"no hexval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    check_declared_metrics()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            metrics, units, correct, attempted, failed = run_workload(
                name, args.seed, args.seconds, bool(args.trace))
            prefix = "" if len(names) == 1 else f"{name}."
            result["correct"] &= correct
            result["attempted"] += attempted
            result["failed"] += failed
            for metric, (value, _) in metrics.items():
                result["metrics"][prefix + metric] = {"value": value,
                                                      "unit": units[metric]}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
