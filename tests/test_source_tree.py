"""Guards on the package source: every import sits at module level,
SuperLU is called from ``sparse_lu`` only, processes are forked by
``parallel`` only and through no process pool, the Moser code keys nothing
by a rounded time, no module touches numpy's legacy global RNG (outputs
are deterministic because every random draw comes from a seeded
``np.random.default_rng``), and the evolution path imports no spline or
image module."""

import ast
import os
import subprocess
import sys
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
    """True if a node calls ``os.fork`` or imports it."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name.startswith("fork")
                                           for a in node.names)
    if isinstance(node, ast.Attribute):
        return (_dotted(node) or "").startswith("os.fork")
    return False


def _imports_a_pool(node):
    """True if a node imports ``multiprocessing`` or ``concurrent``."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        return False
    return any(m.split(".")[0] in ("multiprocessing", "concurrent")
               for m in modules)


def test_only_parallel_starts_processes():
    forking = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "parallel.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        forking += [f"{path.relative_to(SRC)}:{node.lineno}"
                    for node in ast.walk(tree) if _forks(node)]
    assert not forking, f"processes started outside parallel.py: {forking}"


def test_no_module_imports_a_process_pool():
    # parallel.py forks its workers itself; a pool would be a second engine
    pools = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        pools += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if _imports_a_pool(node)]
    assert not pools, f"multiprocessing or concurrent imported: {pools}"


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


def _loaded_by(*modules):
    """The names in ``sys.modules`` after a fresh interpreter imports `modules`."""
    code = "".join(f"import {m}\n" for m in modules)
    code += "import sys\nprint(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent)] + sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_the_evolution_path_loads_no_spline_or_image_module():
    # evolving needs assembly, Cayley steps and eigenpairs; splines and
    # Gaussian filters are Moser and transport work
    loaded = _loaded_by("schrodeform.operators", "schrodeform.propagator",
                        "schrodeform.geometry", "schrodeform.scenarios")
    assert not loaded & {"scipy.interpolate", "scipy.ndimage"}


def test_the_cli_loads_no_image_module():
    # the Moser smoothing is a matrix product per axis, not scipy.ndimage
    assert "scipy.ndimage" not in _loaded_by("schrodeform.cli")
