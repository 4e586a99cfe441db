"""Every name a package module imports is used, or re-exported through __all__.

The package ``__init__`` has no ``__all__`` of its own: it re-exports the
public names of its modules, so a name it imports counts as used when some
module lists it in ``__all__``.

Only ``symexpr`` reaches the check stream: no other module names
``_check_rng`` or a function that hands the stream out, so the rule for
reusing a validated value within one stream lives in ``symexpr.kept``.
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


def names_used(tree) -> set:
    """Every name the tree reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.split(".")[-1] for alias in node.names}
    return names


def stream_accessors(tree) -> set:
    """The top-level functions that return the check stream itself."""
    return {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Return) and isinstance(n.value, ast.Name)
                and n.value.id == "_check_rng" for n in ast.walk(node))
    }


def stream_names() -> set:
    symexpr = ast.parse((PACKAGE / "symexpr.py").read_text(encoding="utf-8"))
    return {"_check_rng", "current_stream"} | stream_accessors(symexpr)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "symexpr.py"],
                         ids=lambda p: p.name)
def test_only_symexpr_reaches_the_check_stream(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert names_used(tree) & stream_names() == set()


def test_guard_flags_a_stream_access():
    source = ("from .symexpr import current_stream as cs\n"
              "import bilag.symexpr\n"
              "rng = bilag.symexpr._check_rng\n")
    assert names_used(ast.parse(source)) & stream_names() == {"current_stream", "_check_rng"}
    tree = ast.parse("def here():\n    return _check_rng\n\ndef seed():\n    return 1\n")
    assert stream_accessors(tree) == {"here"}
