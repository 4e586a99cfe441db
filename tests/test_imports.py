"""Every name a package module imports is used, or re-exported through __all__.

The package ``__init__`` has no ``__all__`` of its own: it re-exports the
public names of its modules, so a name it imports counts as used when some
module lists it in ``__all__``.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "bilag"
MODULES = sorted(PACKAGE.glob("*.py"))


def dunder_all(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str, exports=frozenset()) -> list:
    """(line, name) for each name bound by an import that the module never
    reads and that is neither in its __all__ nor in `exports`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= dunder_all(tree) | set(exports)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    exports = set()
    if path.name == "__init__.py":
        for module in MODULES:
            exports |= dunder_all(ast.parse(module.read_text(encoding="utf-8")))
    assert unused_imports(path.read_text(encoding="utf-8"), exports) == []


def test_guard_flags_an_unused_import():
    source = "import os.path\nfrom sys import argv, path as p, exit\n__all__ = ['p']\nexit()\n"
    assert unused_imports(source) == [(1, "os"), (2, "argv")]
    assert unused_imports(source, {"os"}) == [(2, "argv")]
