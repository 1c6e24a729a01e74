"""Rules the source tree keeps, checked by parsing every module under src/."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# imported only inside the functions that need them, so importing the CLI
# loads none of them
_LAZY_MODULES = {"numpy", "mpmath", "scipy"}


def test_no_assert_statements_in_src():
    # a check must raise: `python -O` strips assert statements
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_module_level_imports_in_src():
    # annotations are parsed like any expression, so a name read only in one
    # counts as read
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        found.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert found == []


def test_every_module_level_private_name_in_src_is_read():
    # a private function, class or constant that nothing reads is dead code;
    # a read is a load of the name, an attribute of that name, or an import of it
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [
                f"{path.relative_to(SRC)}:{node.lineno} {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    assert found == []


def _run_at_import(node):
    """The nodes below ``node`` that run when the module is imported: all but
    function and lambda bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _run_at_import(child)


def test_no_module_in_src_imports_mpmath():
    # every decision in src/ is made in integers; mpmath is the tests' oracle
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno} {n}" for n in names if n.partition(".")[0] == "mpmath"]
    assert found == []


def test_numpy_mpmath_and_scipy_are_imported_only_inside_functions():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in _run_at_import(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno} {n}" for n in names if n.partition(".")[0] in _LAZY_MODULES]
    assert found == []


def _float_compares(tree):
    """Each comparison with a float literal anywhere in its operands."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            isinstance(c, ast.Constant) and isinstance(c.value, float) for c in ast.walk(node)
        ):
            yield node


def test_no_comparison_in_src_has_a_float_literal_operand():
    # a slack such as `x <= y + 1e-9` marks a verdict taken in floats; every
    # decision in src/ is made in integers, and floats are only reported
    found = [
        f"{path.relative_to(SRC)}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(SRC.rglob("*.py"))
        for node in _float_compares(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def _caught_names(handler):
    """The names an ``except`` clause lists, bare (``E``) or dotted (``m.E``)."""
    nodes = ast.walk(handler.type) if handler.type is not None else ()
    return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_handler_in_src_catches_recursion_error():
    # a search that ends when the interpreter's stack runs out would end at
    # a depth set by a runtime knob and by its caller: only nodes, clocks
    # and completion may end work in src/
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ExceptHandler) and "RecursionError" in _caught_names(node)
    ]
    assert found == []


def _unseeded_draws(tree):
    """Each use of a random source other than ``random.Random(seed)``: an
    attribute of the random module other than ``Random``, ``Random()``
    without a seed, ``from random import`` and numpy's ``random``."""
    imported = [
        (alias.name, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    random_names = {name for module, name in imported if module == "random"}
    numpy_names = {name for module, name in imported if module == "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("random", "numpy.random"):
            yield node
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in random_names and node.attr != "Random":
                yield node
            elif node.value.id in numpy_names and node.attr == "random":
                yield node
        elif isinstance(node, ast.Call) and not (node.args or node.keywords):
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if func.value.id in random_names and func.attr == "Random":
                    yield node


def test_src_draws_randomness_only_from_seeded_generators():
    # the random module's shared generator and an unseeded Random differ
    # from run to run; every draw in src/ comes from a random.Random built
    # from a seed, so a seed reproduces a run on every machine
    for snippet in (
        "import random\nrandom.shuffle(xs)",
        "import random as r\nr.random()",
        "import random\nrng = random.Random()",
        "from random import choice",
        "import numpy as np\nnp.random.default_rng(0)",
    ):
        assert len(list(_unseeded_draws(ast.parse(snippet)))) == 1, snippet
    assert not list(_unseeded_draws(ast.parse("import random\nrng = random.Random(seed)")))
    found = [
        f"{path.relative_to(SRC)}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(SRC.rglob("*.py"))
        for node in _unseeded_draws(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
