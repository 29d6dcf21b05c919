"""The committed BENCH_<n>.json files from 12 on share one end-to-end
layout, so the trajectory of the benchmark can be read mechanically."""
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: the first file of the shared end-to-end layout
FIRST = 12
METRICS = ("wall_ref_s", "setup_s", "peak_rss_mb")


def bench_files():
    """The BENCH_<n>.json files with n >= FIRST, in order of n."""
    found = sorted((int(m.group(1)), p) for p in ROOT.glob("BENCH_*.json")
                   if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)))
    return [p for n, p in found if n >= FIRST]


def layout_errors(bench: dict) -> list:
    """What bench lacks of the shared end-to-end layout."""
    errors = []
    if not bench.get("parent_commit"):
        errors.append("parent_commit")
    e2e = bench.get("end_to_end", {})
    if "--seed" not in str(e2e.get("command", "")).split():
        errors.append("end_to_end.command --seed")
    if not e2e.get("workloads"):
        errors.append("end_to_end.workloads")
    for name, load in e2e.get("workloads", {}).items():
        errors += [f"{name}.{key}" for key in
                   ("correct", "pairs", "failed_of_attempted")
                   if key not in load]
        for metric in METRICS:
            block = load.get(metric, {})
            if "change_better_pairs" not in block:
                errors.append(f"{name}.{metric}.change_better_pairs")
            for side in ("parent", "change"):
                stats = block.get(side, {})
                where = f"{name}.{metric}.{side}"
                missing = [k for k in ("median", "q1", "q3", "runs")
                           if k not in stats]
                errors += [f"{where}.{k}" for k in missing]
                if missing:
                    continue
                runs = stats["runs"]
                if len(runs) != load.get("pairs"):
                    errors.append(f"{where}.runs: {len(runs)} runs")
                elif not min(runs) <= stats["median"] <= max(runs):
                    errors.append(f"{where}.median outside its runs")
    return errors


def test_files_found():
    assert len(bench_files()) >= 10


@pytest.mark.parametrize("path", bench_files(), ids=lambda p: p.name)
def test_end_to_end_layout(path):
    assert layout_errors(json.loads(path.read_text(encoding="utf-8"))) == []


def test_layout_errors_named():
    # the check names what a file lacks
    bench = json.loads(bench_files()[0].read_text(encoding="utf-8"))
    load = next(iter(bench["end_to_end"]["workloads"].values()))
    load["wall_ref_s"]["change"]["runs"].pop()
    del load["setup_s"]["parent"]["q1"]
    bench["end_to_end"]["command"] = "python3 perfbench/run.py"
    errors = layout_errors(bench)
    assert "end_to_end.command --seed" in errors
    assert any(e.endswith("wall_ref_s.change.runs: 9 runs") for e in errors)
    assert any(e.endswith("setup_s.parent.q1") for e in errors)
