"""Every top-level import in a padlab module is used by that module, and
every local a function assigns is read.

`__init__.py` is skipped by the import check: its imports are the
package's re-exports.  Only the standard library's `ast` is used, so the
checks need no linter.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "padlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import -> its line."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotation_names(node) -> set[str]:
    """Names inside a quoted annotation such as `-> "SchwartzBruhat"`."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            out |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return out


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for ann in [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)] \
                    + [node.returns]:
                if ann is not None:
                    used |= _annotation_names(ann)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted((line, name) for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def _unused_locals(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name a function binds by plain assignment and
    never reads, nested functions included; `_` is exempt."""
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned, read = {}, set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                            assigned.setdefault(name.id, name.lineno)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
        out |= {(line, name) for name, line in assigned.items() if name not in read and name != "_"}
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_locals(path):
    unread = _unused_locals(ast.parse(path.read_text(encoding="utf-8")))
    assert not unread, f"{path.name}: locals assigned and never read " + ", ".join(
        f"{name} (line {line})" for line, name in unread)


def test_unread_local_check_catches_one():
    tree = ast.parse("def f(x):\n    a, b = x\n    c = a\n    def g():\n        return c\n    return g\n")
    assert _unused_locals(tree) == [(2, "b")]
