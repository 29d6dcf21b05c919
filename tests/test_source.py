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


#: numpy's set routines: on numpy 2.4.6 each imports numpy.ma on first
#: use (np.isin on its sorting path; in1d is gone there but not in older
#: numpy)
MASKED_IMPORTERS = {"unique", "isin", "in1d", "setdiff1d", "intersect1d",
                    "union1d", "setxor1d"}


def test_no_np_unique():
    # importing numpy.ma costs 13 ms on numpy 2.4.6, and np.unique's
    # axis form pays a void-dtype sort that dominates on small inputs
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) \
                    and node.attr in MASKED_IMPORTERS \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in ("np", "numpy"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) \
                    and (node.module or "").startswith("numpy") \
                    and any(alias.name in MASKED_IMPORTERS
                            for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_seed_screen_packs_bits():
    # the valuation search reads its start rows off the screen's point
    # columns; a second unpacking of the seeds, or a packing of the value
    # rows, would be a second representation of the same sets
    tree = ast.parse((SRC / "valuations.py").read_text(encoding="utf-8"))
    owners = {node: func.name for func in tree.body
              if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
    found = [f"valuations.py:{node.lineno}" for node in ast.walk(tree)
             if (getattr(node, "attr", None) or getattr(node, "name", None))
             in ("packbits", "unpackbits") and owners.get(node) != "_screen"]
    assert found == []


def test_one_line_finder_and_star_recheck():
    # the lines through chosen valuations are found in _lines_through and
    # star is re-checked on found lines in _check_stars, once per line by
    # the two callers that own the lines; the full build is the tests'
    # reference and keeps its own scan
    allowed = {"_neighbor_stars": {"build_valuation_geometry",
                                   "_lines_through"},
               "_star_rows": {"_neighbor_stars", "_check_stars"},
               "_check_stars": {"class_line_table",
                                "orbit_valuation_geometry"}}
    tree = ast.parse((SRC / "valgeom.py").read_text(encoding="utf-8"))
    found = [f"valgeom.py:{node.lineno} {func.name}"
             for func in tree.body if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in allowed
             and func.name not in allowed[node.func.id]]
    assert found == []


def test_one_grid_search():
    # the grids of a line array come from geometry.grid_rows alone, which
    # enumerate_grids wraps and the Lemma 3.1 check calls on its line
    # array; the check builds no restriction Geometry
    callers = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call):
                        name = getattr(node.func, "id", None) \
                            or getattr(node.func, "attr", None)
                        callers.setdefault(name, set()).add(func.name)
    assert callers["grid_rows"] == {"enumerate_grids", "check_lemma_3_1"}
    assert "check_lemma_3_1" not in (callers.get("Geometry", set())
                                     | callers.get("as_geometry", set()))


def test_valuation_records_only_from_valuations():
    # a set of valuations is one int8 matrix: a Valuation record is built
    # only when an item of a Valuations is read, never as a second row
    # representation elsewhere
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {node for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "Valuations"
                  for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "Valuation" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                owner = "Valuations" if node in inside else path.name
                owners.setdefault(owner, []).append(node.lineno)
    assert list(owners) == ["Valuations"]


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


def traced_pass(workload):
    """One traced perfbench pass of workload (seed 1), in a fresh isolated
    interpreter as perfbench/run.py spawns it; it must complete without
    failures or check errors."""
    proc = subprocess.run(
        [sys.executable, "-I", str(ROOT / "perfbench" / "worker.py"),
         str(ROOT), workload, "1", "0", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    ready, line = proc.stdout.splitlines()
    assert ready == "ready"
    record = json.loads(line)
    assert record["traced"] and record["ops"]
    assert record["failures"] == [] and record["errors"] == []


def test_traced_relabeled_pass_completes():
    # perfbench's span wrappers read results (such as each valuation's
    # hyperplane) that an untraced pass never touches
    traced_pass("relabeled_hexagons")


def test_traced_report_pass_completes():
    # the traced report wraps the grid search and the report's stages
    traced_pass("report_all")


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


def test_bundles_are_built_behind_a_cache():
    # a built-in geometry's Bundle is kept by pipeline.get_bundle and an
    # --in file's by the CLI's memo; a Bundle built anywhere else would
    # redo every stage that its caller reads
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "Bundle" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                owner = node
                while owner in parents and not isinstance(
                        owner, ast.FunctionDef):
                    owner = parents[owner]
                found.append(f"{path.name}:{getattr(owner, 'name', '')}")
    assert sorted(found) == ["cli.py:_bundle_from_text",
                             "pipeline.py:get_bundle"]


def test_all_names_resolve():
    # a stale name in __all__ breaks only ``from hexval import *``
    assert [name for name in hexval.__all__
            if not hasattr(hexval, name)] == []



def test_test_modules_share_helpers_through_hosts_and_oracles():
    # shared hosts live in hosts.py and shared oracles in oracles.py: no
    # test module imports another, and no top-level helper function or
    # class is defined in two of them
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "tests").glob("test_*.py"))}
    imports, owners = [], {}
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [f"{name}:{node.lineno} {alias.name}"
                            for alias in node.names if alias.name in modules]
            elif isinstance(node, ast.ImportFrom) and node.module in modules:
                imports.append(f"{name}:{node.lineno} {node.module}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.lower().startswith("test"):
                owners.setdefault(node.name, []).append(name)
    assert imports == []
    assert {helper: where for helper, where in owners.items()
            if len(where) > 1} == {}


def test_reference_names_are_read():
    # reference.py is the contract: a constant that nothing reads is a
    # value no check compares, and a literal restating it can drift
    tree = ast.parse((SRC / "reference.py").read_text(encoding="utf-8"))
    names = {target.id for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign)
                            else [node.target])}
    assert names
    read = set()
    for folder in (SRC, ROOT / "tests", ROOT / "demos"):
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
    assert sorted(names - read) == []
