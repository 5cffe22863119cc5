import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "listhom"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so invariants in the package are
    # explicit checks that raise
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
