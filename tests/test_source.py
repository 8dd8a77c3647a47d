"""Checks on the library's source text."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kccstab"


def _annotation_names(tree: ast.Module) -> set[str]:
    """Names inside string annotations such as "Expr | None"."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    names = set()
    for root in filter(None, roots):
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """The names a module imports but never uses (`__future__` aside)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from typing import Mapping, Sequence\n"
        "def f(m: 'Mapping[str, int]') -> None:\n"
        "    return os.path.join('a')\n"
    )
    assert unused_imports(source) == ["Sequence", "math"]


def test_library_modules_use_every_name_they_import():
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def recursion_handlers(source: str) -> list[str]:
    """The innermost enclosing function of each `except` naming RecursionError."""
    found = []

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and child.type is not None and any(
                isinstance(n, ast.Name) and n.id == "RecursionError" for n in ast.walk(child.type)
            ):
                found.append(scope)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else scope)

    visit(ast.parse(source), "<module>")
    return found


def test_recursion_handlers_are_found():
    source = (
        "def f():\n"
        "    try:\n"
        "        pass\n"
        "    except (SyntaxError, RecursionError):\n"
        "        pass\n"
        "class C:\n"
        "    def g(self):\n"
        "        try:\n"
        "            pass\n"
        "        except ValueError:\n"
        "            pass\n"
        "        except RecursionError:\n"
        "            pass\n"
    )
    assert recursion_handlers(source) == ["f", "g"]


def test_tree_walks_share_one_nesting_guard():
    # a tree walk nested too deeply becomes an ExprError through
    # `expr._too_deep`; `parse` reports the position, `exec_generated` also
    # catches the compiler's SyntaxError, and `cli.main` is the last resort
    found = sorted(
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in recursion_handlers(path.read_text(encoding="utf-8"))
    )
    assert found == [("cli", "main"), ("expr", "_too_deep"), ("expr", "exec_generated"), ("expr", "parse")]


def test_test_extra_lists_every_optional_test_import():
    # CI installs ".[test]" only, so an oracle missing here is skipped there
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    root = SRC.parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        extra = tomllib.load(f)["project"]["optional-dependencies"]["test"]
    listed = {re.match(r"[\w-]+", requirement).group() for requirement in extra}
    targets = set()
    for path in (root / "tests").glob("*.py"):
        found = re.findall(r'importorskip\("([\w.]+)"', path.read_text(encoding="utf-8"))
        targets |= {target.split(".")[0] for target in found}
    assert {"sympy", "scipy", "tomli"} <= targets <= listed


def test_chain_model_matches_the_benchmark():
    # the tests' chain model is the benchmark's; read perfbench's function
    # from its source, so that the tests never import the benchmark harness
    from shared_data import chain_model_text

    tree = ast.parse((SRC.parents[1] / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "chain_model_text"]
    namespace = {}
    exec(compile(ast.Module(body=[node], type_ignores=[]), "workloads.py", "exec"), namespace)
    for n in range(1, 8):
        assert chain_model_text(n) == namespace["chain_model_text"](n), n
