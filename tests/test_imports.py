"""Every name a module of the package imports is used in that module,
every module-level function has a caller outside the tests, and every
defaulted parameter is passed by some call.

Static checks on the syntax trees.  The first stands in for a linter's
unused-import rule: a bound import name must be read somewhere in its
module, unless its line carries `# noqa: F401`.  `__init__.py` is exempt,
since its imports are the package's public names.  The second keeps
test-only code (brute-force oracles and the like) in `tests/`.  The third
turns a knob that no caller in the package, scripts, benchmark or tests
sets into a constant.
"""
from __future__ import annotations

import ast
import math
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
TEST_ONLY_API = {
    "square_complex",
    "interval_chain",
    "euclidean_box_mesh",
    "load_off",
    "hausdorff_distance",
    "check_product_boundary",
}


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
    its own modules (a function's body does not count for itself, and a
    re-export from `__init__.py` is no caller), nor the files in `users`."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(package.glob("*.py")) if p.name != "__init__.py"}
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
    assert unreferenced_functions(tmp_path, []) == ["a.f", "b.h"]
    user = tmp_path / "user.txt"
    user.write_text("WRAPPED = ['f']\nfrom pkg import h\n")
    assert unreferenced_functions(tmp_path, [user]) == []


def test_every_function_has_a_caller_outside_the_tests():
    users = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    found = unreferenced_functions(PACKAGE, users)
    test_only = [name for name in found if name.split(".")[1] not in TEST_ONLY_API]
    assert not test_only, f"only the tests call {', '.join(test_only)}"
    assert TEST_ONLY_API == {name.split(".")[1] for name in found}, "an allowlisted function has a caller now"


def defaulted_parameters(package: Path) -> list[tuple[str, str, str, int, int]]:
    """Every parameter with a default of a function or method in `package`,
    as (label, name a call spells, parameter, position, implicit first
    arguments): a method is called by its own name, with self or cls bound
    (a staticmethod binds nothing), and `__init__` by its class's name."""
    found = []

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                bound = 1 if owner is not None and not static else 0
                callee = owner.name if owner is not None and child.name == "__init__" else child.name
                label = f"{prefix}{child.name}"
                first = len(positional) - len(args.defaults)
                for i, a in enumerate(positional[first:], first):
                    found.append((label, callee, a.arg, i, bound))
                for a, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((label, callee, a.arg, -1, bound))
                visit(child, None, f"{label}.")
            else:
                visit(child, owner, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), None, f"{path.stem}.")
    return found


def call_shapes(paths: list[Path]) -> dict[str, list[tuple[float, set, bool]]]:
    """Per called name (a plain name or the last attribute), the shape of
    each call: the positions it fills (a `*` argument counts as one, and
    a last one reaches every later position), the keywords it spells, and
    whether it unpacks `**` arguments (which reach every keyword)."""
    shapes: dict[str, list] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            trailing = bool(node.args) and isinstance(node.args[-1], ast.Starred)
            reach = math.inf if trailing else len(node.args)
            unpacks = any(k.arg is None for k in node.keywords)
            shapes.setdefault(name, []).append((reach, {k.arg for k in node.keywords}, unpacks))
    return shapes


def unset_defaults(package: Path, users: list[Path]) -> list[str]:
    """The defaulted parameters of `package` that no call in `users` passes,
    by keyword, by position or through unpacking, as "label(parameter)"."""
    shapes = call_shapes(users)
    return [
        f"{label}({param})"
        for label, callee, param, position, bound in defaulted_parameters(package)
        if not any(
            unpacks or param in keywords or 0 <= position - bound < reach
            for reach, keywords, unpacks in shapes.get(callee, [])
        )
    ]


def test_the_check_sees_a_default_no_call_sets(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, n, y=1, *, z=2):\n    return x\n\n"
        "class K:\n    def __init__(self, a=0, b=0):\n        pass\n\n"
        "    def m(self, c=0, d=0):\n        return f(1, 2, z=3)\n"
    )
    user = tmp_path / "user.py"
    user.write_text("K(1).m(*args)\nK(b=2)\nf(*args, 1)\n")
    assert unset_defaults(tmp_path, [tmp_path / "a.py", user]) == ["a.f(y)"]
    user.write_text("K(1).m(*args)\nK(b=2)\nf(*args, 1, **kw)\n")
    assert unset_defaults(tmp_path, [tmp_path / "a.py", user]) == []


def test_every_default_is_set_by_some_call():
    users = [p for d in ("src", "scripts", "perfbench", "tests") for p in sorted((ROOT / d).rglob("*.py"))]
    unset = unset_defaults(PACKAGE, users)
    assert not unset, f"no call sets {', '.join(unset)}: make each a constant"
