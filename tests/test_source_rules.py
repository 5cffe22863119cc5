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


def _self_calls(tree):
    """(function, line) for every call of a function to itself, by bare
    name or as self.<name> / cls.<name>."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if isinstance(f, ast.Name) and f.id == node.name:
                yield node.name, call.lineno
            elif (isinstance(f, ast.Attribute) and f.attr == node.name
                  and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                yield node.name, call.lineno


def test_self_call_detector():
    tree = ast.parse(
        "def f(x):\n    return f(x - 1)\n"
        "class A:\n"
        "    def g(self):\n        return self.g()\n"
        "    @classmethod\n    def h(cls):\n        return cls.h()\n"
        "    def __init__(self):\n        super().__init__()\n"
        "    def k(self):\n        return other.k()\n"
    )
    assert sorted(_self_calls(tree)) == [("f", 2), ("g", 5), ("h", 8)]


def test_nothing_in_src_recurses():
    # every search is iterative, so no input depth can hit the recursion limit
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line} {name}"
        for path in files
        for name, line in _self_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
