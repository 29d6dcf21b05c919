"""Rules that every module of the package keeps."""
import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import hexval
from hexval.pipeline import Bundle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hexval"


def test_no_assert_statements():
    # invariants are explicit checks, which still run under python -O;
    # assert and __debug__ are the only constructs that -O changes
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert found == []


def test_traced_functions_exist():
    # perfbench's tracer looks each of its targets up with a bare getattr,
    # so a moved or renamed function would crash every traced run
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(
        encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    assert targets
    missing = [f"{module}.{name}" for module, names in targets.items()
               for name in names
               if not callable(getattr(importlib.import_module(module),
                                       name, None))]
    assert missing == []


def test_traced_relabeled_pass_completes():
    # perfbench's span wrappers read results (such as each valuation's
    # hyperplane) that an untraced pass never touches, so one traced pass
    # runs in a fresh isolated interpreter, as perfbench/run.py spawns it
    proc = subprocess.run(
        [sys.executable, "-I", str(ROOT / "perfbench" / "worker.py"),
         str(ROOT), "relabeled_hexagons", "1", "0", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    ready, line = proc.stdout.splitlines()
    assert ready == "ready"
    record = json.loads(line)
    assert record["traced"] and record["ops"]
    assert record["failures"] == [] and record["errors"] == []


def test_report_stages_exist():
    # a traced report pass reads each stage with getattr(bundle, stage),
    # so a removed or renamed Bundle stage would crash every traced run
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(
        encoding="utf-8"))
    stages = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["REPORT_STAGES"])
    assert stages
    assert [s for s in stages if not hasattr(Bundle, s)] == []


def test_drivers_import_no_private_names():
    # the pipeline and the CLI drive each algorithm through the public
    # names of the module that owns it
    found = []
    for name in ("pipeline.py", "cli.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("hexval")):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found.append(f"{name}:{node.lineno} {alias.name}")
                    if not node.module or node.module == "hexval":
                        modules.add(alias.asname or alias.name)
        found += [f"{name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")]
    assert found == []


def test_all_names_resolve():
    # a stale name in __all__ breaks only ``from hexval import *``
    assert [name for name in hexval.__all__
            if not hasattr(hexval, name)] == []
