"""Rules that every module of the package keeps."""
import ast
import importlib
from pathlib import Path

from hexval.pipeline import Bundle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hexval"


def test_no_assert_statements():
    # invariants are explicit checks, which still run under python -O
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
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
