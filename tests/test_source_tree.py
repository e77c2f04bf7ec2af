"""Guards on the package source: every import sits at module level,
SuperLU is called from ``sparse_lu`` only, processes are started from
``parallel`` only, the Moser code keys nothing by a rounded time, and no
module touches numpy's legacy global RNG (outputs are deterministic because
every random draw comes from a seeded ``np.random.default_rng``)."""

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


def _dotted(node):
    """The dotted name an attribute chain spells ("np.random.seed"), or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def test_only_default_rng_is_drawn_from_numpy_random():
    legacy = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                bad = (_dotted(node.value) in ("np.random", "numpy.random")
                       and node.attr != "default_rng")
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                bad = ((node.module == "numpy.random" and names != {"default_rng"})
                       or (node.module == "numpy" and "random" in names))
            elif isinstance(node, ast.Import):
                bad = any(alias.name == "numpy.random" for alias in node.names)
            else:
                bad = False
            if bad:
                legacy.append(f"{where}:{node.lineno}")
    assert not legacy, f"numpy.random used other than by default_rng: {legacy}"


def _forks(node):
    """True if a node imports a process pool or calls ``os.fork``."""
    pools = ("multiprocessing", "concurrent")
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in pools for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").split(".")[0] in pools
                or (node.module == "os"
                    and any(a.name.startswith("fork") for a in node.names)))
    if isinstance(node, ast.Attribute):
        return (_dotted(node) or "").startswith("os.fork")
    return False


def test_only_parallel_starts_processes():
    forking = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "parallel.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        forking += [f"{path.relative_to(SRC)}:{node.lineno}"
                    for node in ast.walk(tree) if _forks(node)]
    assert not forking, f"processes started outside parallel.py: {forking}"


def test_moser_code_never_rounds():
    # the flow reads its stages by index; a round(t, 12) key would merge
    # nearby stage floats behind the schedule's back
    rounding = []
    for path in sorted((SRC / "moser").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rounding += [f"{path.relative_to(SRC)}:{node.lineno}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and "round" in _names(node.func)]
    assert not rounding, f"round( called under moser/: {rounding}"
