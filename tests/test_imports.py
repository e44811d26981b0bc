"""Every name a module of the package imports is used in that module, and
every module-level function has a caller outside the tests.

Static checks on the syntax trees.  The first stands in for a linter's
unused-import rule: a bound import name must be read somewhere in its
module, unless its line carries `# noqa: F401`.  `__init__.py` is exempt,
since its imports are the package's public names.  The second keeps
test-only code (brute-force oracles and the like) in `tests/`.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "currentlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The imported names of a module's source that nothing in it reads,
    as "line: name" strings."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1]) if name not in read]


def test_the_check_sees_unused_and_kept_imports():
    source = (
        "import itertools\n"
        "import numpy as np\n"
        "from .a import b, c  # noqa: F401\n"
        "from .d import (\n"
        "    e,\n"
        "    f,  # noqa: F401\n"
        ")\n"
        "x = np.zeros(1) + e\n"
    )
    assert unused_imports(source) == ["1: itertools"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


ROOT = PACKAGE.parents[1]
# documented API that only the tests call today
TEST_ONLY_API = {"square_complex", "interval_chain", "euclidean_box_mesh", "load_off"}


def referenced_names(tree, skip=None) -> set[str]:
    """Every name a syntax tree reads, imports, or spells as a string (the
    tracer names what it wraps by string), outside the node `skip`."""
    names = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        todo.extend(ast.iter_child_nodes(node))
    return names


def unreferenced_functions(package: Path, users: list[Path]) -> list[str]:
    """The module-level functions of `package` that no other code reads: not
    its own modules (a function's body does not count for itself, and an
    import into `__init__.py` is an export), nor the files in `users`."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    outside = set().union(*(referenced_names(ast.parse(p.read_text())) for p in users))
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name in outside:
                continue
            if not any(node.name in referenced_names(t, skip=node) for t in trees.values()):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_the_check_sees_a_function_only_its_own_body_reads(tmp_path):
    (tmp_path / "a.py").write_text("def f(n):\n    return f(n - 1) if n else g()\n\ndef g():\n    return 0\n")
    (tmp_path / "b.py").write_text("def h():\n    pass\n")
    (tmp_path / "__init__.py").write_text("from .b import h\n")
    assert unreferenced_functions(tmp_path, []) == ["a.f"]
    user = tmp_path / "user.txt"
    user.write_text("WRAPPED = ['f']\n")
    assert unreferenced_functions(tmp_path, [user]) == []


def test_every_function_has_a_caller_outside_the_tests():
    users = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    found = unreferenced_functions(PACKAGE, users)
    test_only = [name for name in found if name.split(".")[1] not in TEST_ONLY_API]
    assert not test_only, f"only the tests call {', '.join(test_only)}"
    assert TEST_ONLY_API == {name.split(".")[1] for name in found}, "an allowlisted function has a caller now"
