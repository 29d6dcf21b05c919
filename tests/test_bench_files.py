"""The committed BENCH_<n>.json files from 12 on share one end-to-end
layout, so the trajectory of the benchmark can be read mechanically.

Run as a script to print it: one row per file with each workload's
``wall_ref_s`` change/parent median ratio and pairs better, the chained
ratios and the unclaimed rises:

    python tests/test_bench_files.py
"""
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


def number(path: Path) -> int:
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))


def trajectory(path: Path) -> dict:
    """Per workload of one file: the wall_ref_s change/parent median
    ratio, change_better_pairs and the number of pairs."""
    loads = json.loads(path.read_text(encoding="utf-8"))["end_to_end"][
        "workloads"]
    return {name: (load["wall_ref_s"]["change"]["median"]
                   / load["wall_ref_s"]["parent"]["median"],
                   load["wall_ref_s"]["change_better_pairs"], load["pairs"])
            for name, load in loads.items()}


def chained(paths) -> dict:
    """Per workload, the product of its ratios over the files that hold
    it."""
    products = {}
    for path in paths:
        for name, (ratio, _, _) in trajectory(path).items():
            products[name] = products.get(name, 1.0) * ratio
    return products


def unclaimed_rises(paths) -> list:
    """(n, workload) wherever the change median rose with at most 3 of
    10 pairs better."""
    return [(number(path), name) for path in paths
            for name, (ratio, better, pairs) in trajectory(path).items()
            if ratio > 1 and 10 * better <= 3 * pairs]


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


def test_chained_ratios_of_bench_17_to_21():
    # the products quoted by the roadmap for the five PRs before BENCH_22
    paths = [p for p in bench_files() if 17 <= number(p) <= 21]
    assert len(paths) == 5
    assert {name: round(r, 2) for name, r in chained(paths).items()} == {
        "report_all": 0.70, "relabeled_hexagons": 0.94, "small_hosts": 0.94}
    assert unclaimed_rises(paths) == [(18, "small_hosts"),
                                      (19, "small_hosts"),
                                      (20, "relabeled_hexagons")]


def test_extra_workload_read():
    # BENCH_15 also ran small_hosts on seed 59
    path = ROOT / "BENCH_15.json"
    assert set(trajectory(path)) == {"report_all", "relabeled_hexagons",
                                     "small_hosts", "small_hosts_seed_59"}
    assert "small_hosts_seed_59" in chained(bench_files())


if __name__ == "__main__":
    paths = bench_files()
    for path in paths:
        print(f"{path.name:<14}" + "  ".join(
            f"{name} {ratio:.3f} ({better}/{pairs})" for name, (
                ratio, better, pairs) in sorted(trajectory(path).items())))
    print(f"{'chained':<14}" + "  ".join(
        f"{name} {r:.3f}" for name, r in sorted(chained(paths).items())))
    print("unclaimed rises: " + ", ".join(
        f"BENCH_{n} {name}" for n, name in unclaimed_rises(paths)))
