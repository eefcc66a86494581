"""Hygiene of the package source: no dead private helpers, no unused imports.

A module-level private name of `src/madcycle` (a function, class or constant
whose name starts with one underscore) must be read somewhere in the package
besides its own definition, and every name a module imports must be read in
that module or listed in its `__all__`. Tests do not count as readers: a
helper only a test calls is dead code of the package. Stdlib `ast` only.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "madcycle"


def _reads(tree: ast.AST) -> set[str]:
    """Every name tree reads: bare names, attribute names and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _private_defs(tree: ast.Module) -> list[str]:
    """Module-level private functions, classes and constants of tree."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [n for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """'module.name' for each private definition no module reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set().union(*(_reads(t) for t in trees.values()))
    return [f"{mod}.{name}" for mod, tree in sorted(trees.items())
            for name in _private_defs(tree) if name not in read]


def unused_imports(sources: dict[str, str]) -> list[str]:
    """'module.name' for each imported name its module never reads."""
    out = []
    for mod, text in sorted(sources.items()):
        tree = ast.parse(text)
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        out.append(f"{mod}.{name}")
    return out


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def test_every_private_helper_is_read():
    assert dead_private_names(_package_sources()) == []


def test_every_import_is_read():
    assert unused_imports(_package_sources()) == []


def test_the_checks_see_dead_helpers_and_unused_imports():
    sources = {
        "a": "import os\nfrom .b import _used, seen\n_LIMIT = 3\n"
             "def _dead():\n    return seen\n"
             "def _alive():\n    return _used(_LIMIT)\n"
             "def run():\n    return _alive()\n",
        "b": "from typing import Any\n__all__ = ['Any']\n"
             "def _used(x):\n    return x\nseen = 1\n",
    }
    assert dead_private_names(sources) == ["a._dead"]
    assert unused_imports(sources) == ["a.os"]
