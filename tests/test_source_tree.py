"""Guards on the package source: every import sits at module level, and
SuperLU is called from ``sparse_lu`` only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "schrodeform"


def _names(node):
    """The identifiers a node spells: a name, an attribute or an import alias."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name.rsplit(".", 1)[-1] for alias in node.names]
    return []


def test_imports_are_module_level_and_only_sparse_lu_calls_splu():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 10
    nested, splu = [], []
    for path in paths:
        where = path.relative_to(SRC)
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{where}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
        if path.name != "sparse_lu.py":
            splu += [f"{where}:{node.lineno}" for node in ast.walk(tree)
                     if "splu" in _names(node)]
    assert not nested and not splu, (f"imports inside functions: {nested}; "
                                     f"splu outside sparse_lu.py: {splu}")
