"""Rules that every module of the package keeps."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hexval"


def test_no_assert_statements():
    # invariants are explicit checks, which still run under python -O
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
