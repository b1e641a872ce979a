"""Every imported name in the source, tests and tools is read somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "tools")
               for p in (ROOT / d).rglob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that no expression reads.

    ``import a.b`` binds ``a``; names listed in ``__all__`` count as
    read; ``from __future__`` imports are exempt.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_scan_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math, os.path\nfrom x import y as z, w\n"
                     "__all__ = ['w']\nprint(os.sep)\n")
    assert unused_imports(tree) == ["line 2: math", "line 3: z"]


SRC = sorted((ROOT / "src").rglob("*.py"))


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level private names that no module in ``trees`` reads.

    A private name is bound at module level by ``def``, ``class`` or an
    assignment and starts with one underscore, not two.  A read is a
    loaded name, an attribute or a ``from`` import of it anywhere in
    ``trees``; ``unused_imports`` checks that such an import is read.
    """
    defined = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return [f"{path}: {name}" for path, name in defined if name not in read]


def test_src_reads_every_private_name_it_defines():
    # a private helper that only tests call is dead code in the package
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text()) for p in SRC}
    assert unread_private_names(trees) == []


def test_scan_finds_an_unread_private_name():
    trees = {"a.py": ast.parse("_used = 1\n_dead = 2\n__x__ = 3\n"
                               "def _helper(): pass\nclass _Kept: pass\n"),
             "b.py": ast.parse("from a import _used\nprint(_Kept)\n")}
    assert unread_private_names(trees) == ["a.py: _dead", "a.py: _helper"]
