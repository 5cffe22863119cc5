import ast
import importlib
import importlib.util
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "listhom"


def _asserts(tree):
    """The line of every assert statement and every raise of AssertionError."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_assert_detector():
    tree = ast.parse(
        "assert x\n"
        "raise AssertionError(f'unknown {x!r}')\n"
        "raise AssertionError\n"
        "raise ValueError('x')\n"
        "raise\n"
    )
    assert sorted(_asserts(tree)) == [1, 2, 3]


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so invariants in the package are
    # explicit checks that raise; an AssertionError raised by hand marks a
    # branch meant to be unreachable, which a table lookup or a type the
    # caller checks does without
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line}"
        for path in files
        for line in _asserts(ast.parse(path.read_text(), filename=str(path)))
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


def _load_tracing():
    """bench/tracing.py as a module (bench/ is not a package)."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_traced_names_exist():
    # bench/run.py --trace 1 wraps every name in bench/tracing.py FUNCTIONS
    # and fails on the first one that is gone, so a deletion in src/ must
    # not remove a traced name
    tracing = _load_tracing()
    assert tracing.FUNCTIONS
    missing = []
    for _, where, attr, _ in tracing.FUNCTIONS:
        module, _, cls = where.partition(":")
        owner = importlib.import_module(module)
        if cls:
            # the tracer reads methods from the class's own __dict__
            found = attr in vars(getattr(owner, cls, object))
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{where}.{attr}")
    assert missing == []


def test_traced_classify_shows_staircase_and_obstruction_work(tmp_path, capsys):
    # the tracer wraps the public finders, so classify must reach the
    # recogniser's work through them for a traced run to see it: P6 takes a
    # staircase form, C6 an obstruction after the staircase finder fails
    import listhom.cli
    from listhom import patterns
    from listhom.formats import serialise_h

    paths = []
    for name, h in (("p6", patterns.path(6)), ("c6", patterns.cycle(6))):
        paths.append(tmp_path / f"{name}.h")
        paths[-1].write_text(serialise_h(h))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        codes = [listhom.cli.main(["classify", str(path)]) for path in paths]
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert codes == [0, 0]
    assert "class: bis_equivalent" in out and "class: sat_equivalent" in out
    calls = tracer.calls()
    assert calls["recognizer.staircase"] > 0
    assert calls["recognizer.excluded"] > 0


def test_traced_commands_show_every_layers_work(tmp_path, capsys):
    # cli reaches each layer through the module that defines the call, and
    # the tracer wraps it there: every command's spans must still show
    import listhom.cli
    from listhom import patterns
    from listhom.formats import serialise_h

    def write(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    p3s = write("p3s.h", serialise_h(patterns.P3_STAR))
    x3 = write("x3.h", serialise_h(patterns.X3))
    path = write("p3.inst", "g 3\ne 1 2\ne 2 3\n")
    c4 = write("c4.g", "g 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n")
    formula, inst = str(tmp_path / "r.f"), str(tmp_path / "r.inst")
    argvs = [["count", p3s, path], ["ising", c4, "--lambda", "1/2"],
             ["reduce-sat", p3s, path, "--out", formula], ["count-sat", formula],
             ["gadget", x3], ["reduce-ising", c4, x3, "--t", "1", "--out", inst],
             ["count", x3, inst]]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        codes = [listhom.cli.main(argv) for argv in argvs]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(argvs)
    calls = tracer.calls()
    names = ("formats.parse", "oracles.count_list_hcol", "oracles.ising_partition",
             "oracles.count_1p1n", "reductions.encode", "gadgets.symmetrize",
             "gadgets.edge_replace")
    assert [name for name in names if calls[name] <= 0] == []

def test_private_helpers_are_used():
    # a module-level _helper that nothing in the package names any more is
    # a leftover of a refactor; tests alone do not keep it alive
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert trees
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unused == []


def _uncalled_exports(package, trees):
    """Every name in package.__all__, other than a submodule, that no tree
    names outside the top-level definition of that name."""
    named = set()
    for tree in trees:
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != owner:
                    named.add(name)
    return [name for name in package.__all__
            if not isinstance(getattr(package, name), types.ModuleType) and name not in named]


def test_uncalled_export_detector():
    package = types.ModuleType("pkg")
    package.sub = types.ModuleType("pkg.sub")
    package.planted = package.used = package.Record = print
    package.__all__ = ["Record", "planted", "sub", "used"]
    trees = [ast.parse(
        "def planted(n):\n    \"\"\"planted in a docstring\"\"\"\n    return planted(n - 1)\n"
        "def used():\n    return Record()\n"
        "class Record:\n    pass\n"
        "def caller():\n    return mod.used()\n"
    )]
    assert _uncalled_exports(package, trees) == ["planted"]


def test_every_export_has_a_caller_in_the_package():
    # a name that listhom exports but no module of the package calls is API
    # that tests alone keep alive: it belongs in tests/helpers.py, or gone
    import listhom

    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert trees
    assert _uncalled_exports(listhom, trees) == []


# ColourGraph's neighbour rows and what it caches beside them
STORE = ("rows", "_sets", "_sides", "_status")


def _store_reads(tree, module: str):
    """(attribute, line) for every read of the dense matrix attribute adj,
    and, outside graphs.py, of the target store."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr == "adj" or (node.attr in STORE and module != "graphs.py")):
            yield node.attr, node.lineno


def test_store_read_detector():
    tree = ast.parse("h.adj[0]\nh.rows[0]\nh._sets\nh.neighbours(1)\nrows = 1\n")
    found = sorted(_store_reads(tree, "recognizer.py"), key=lambda read: read[1])
    assert found == [("adj", 1), ("rows", 2), ("_sets", 3)]
    assert list(_store_reads(tree, "graphs.py")) == [("adj", 1)]


def test_only_graphs_reads_the_target_store():
    # the adjacency format lives in graphs.py alone; every other module asks
    # ColourGraph's methods, so the store can change in one place
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line} .{attr}"
        for path in files
        for attr, line in _store_reads(ast.parse(path.read_text(), filename=str(path)), path.name)
    ]
    assert found == []


# StaircaseForm's orders, which only the recogniser arranges
FORM_ORDERS = ("row_order", "col_order")


def _form_order_reads(tree):
    """(attribute, line) for every attribute access to a form's orders."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FORM_ORDERS:
            yield node.attr, node.lineno


def test_form_order_read_detector():
    tree = ast.parse("sf.row_order + sf.col_order\nrow_order = 1\nf(row_order=2)\n")
    assert sorted(_form_order_reads(tree)) == [("col_order", 1), ("row_order", 1)]


def test_only_the_recognizer_reads_a_forms_orders():
    # the staircase certificate format (which colours a form arranges, and
    # how) is stated once in recognizer.py; the encoder asks the form for
    # its arrangement
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line} .{attr}"
        for path in files if path.name != "recognizer.py"
        for attr, line in _form_order_reads(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


# the cycle witness kinds, one per class
CYCLE_KIND_NAMES = ("CycleNe4", "CycleGe4")


def _cycle_kind_constants(tree):
    """(name, line) for every string constant outside a docstring that
    holds a cycle kind's name."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings):
            for name in CYCLE_KIND_NAMES:
                if name in node.value:
                    yield name, node.lineno


def test_cycle_kind_constant_detector():
    tree = ast.parse(
        '"""CycleNe4 in a docstring."""\n'
        'kind = "CycleGe4"\n'
        'def f():\n    """CycleGe4 in a docstring."""\n    return f"CycleNe4({q})"\n'
        '# CycleNe4 in a comment\n'
        'other = "Cycle"\n'
    )
    assert sorted(_cycle_kind_constants(tree)) == [("CycleGe4", 2), ("CycleNe4", 5)]


def test_cycle_kinds_are_named_only_in_patterns():
    # which class a cycle kind belongs to is patterns.cycle_kind's answer;
    # every other module asks it with the loop status it already has
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line} {name}"
        for path in files if path.name != "patterns.py"
        for name, line in _cycle_kind_constants(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


# the recogniser's two workers, and the public finders that alone name them
WORKERS = ("_sweep_form", "_first_obstruction")
FINDERS = ("find_staircase_biadjacency", "find_staircase_adjacency",
           "find_excluded_bp", "find_excluded_pi")


def _worker_names(tree):
    """(name, line) for every name, attribute or import of a recogniser
    worker outside the bodies of the four public finders."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in FINDERS:
            continue
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in WORKERS:
                yield name, node.lineno


def test_worker_name_detector():
    tree = ast.parse(
        "def find_excluded_bp(h):\n    return _first_obstruction(h, False)\n"
        "def _classify_connected(hc):\n    return _sweep_form(hc)\n"
        "from .recognizer import _first_obstruction\n"
        "route = recognizer._sweep_form\n"
        "def _sweep_form(h):\n    \"\"\"_first_obstruction in a docstring\"\"\"\n"
    )
    assert sorted(_worker_names(tree)) == [
        ("_first_obstruction", 5), ("_sweep_form", 4), ("_sweep_form", 6)]


def test_only_the_public_finders_call_the_recogniser_workers():
    # classify asks each component the two questions through the four
    # public finders, so there is one route per question and a tracer that
    # wraps the finders sees classify's recognition work
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line} {name}"
        for path in files
        for name, line in _worker_names(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
