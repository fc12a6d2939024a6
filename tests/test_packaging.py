"""The declared runtime dependencies cover what the package imports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

def declared_dependencies():
    """Project names in ``[project].dependencies`` of ``pyproject.toml``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    assert match, "pyproject.toml declares no [project].dependencies"
    return {re.split(r"[<>=!~\[ ;]", item)[0]
            for item in re.findall(r'"([^"]+)"', match.group(1))}


def _names(node):
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.split(".")[0]}
    return set()


def _handles_import_error(try_node):
    caught = set()
    for handler in try_node.handlers:
        types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        caught.update(getattr(kind, "id", None) for kind in types)
    return bool(caught & {"ImportError", "ModuleNotFoundError"})


def imports(path):
    """``(imported, gated)``: the top-level packages a module imports, at
    module level or inside functions (where ``scipy`` is imported on first
    use), and those imported in a ``try`` that handles ``ImportError``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set().union(*map(_names, ast.walk(tree)))
    gated = set().union(*(
        _names(inner) for node in ast.walk(tree)
        if isinstance(node, ast.Try) and _handles_import_error(node)
        for statement in node.body for inner in ast.walk(statement)))
    return imported, gated


def test_every_import_is_declared():
    imported, gated = set(), set()
    for path in PACKAGE.rglob("*.py"):
        module_imported, module_gated = imports(path)
        imported |= module_imported
        gated |= module_gated
    third_party = {name for name in imported
                   if name not in sys.stdlib_module_names
                   and name not in ("repro", "__future__")}
    assert third_party >= {"numpy", "networkx", "scipy"}
    # The optional dependencies sit behind an ImportError handler: pyarrow
    # for the Arrow/Parquet export, tomli for TOML specs before Python 3.11.
    assert gated >= {"pyarrow", "tomli"}
    assert third_party - gated <= declared_dependencies()


def test_the_package_starts_without_scipy():
    # scipy serves only the runtime model's fit, which imports it there.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.__main__; "
         "print(sorted(name for name in sys.modules "
         "if name.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == "[]"


def test_the_package_imports_no_tests_only_module():
    # The modules beside the tests (the event-loop and row-path
    # references, the figure suite, the trace comparator) prove
    # equivalence; the package must run without them.
    helpers = {path.stem for path in (ROOT / "tests").glob("*.py")
               if not path.stem.startswith("test_")
               and path.stem != "conftest"}
    assert helpers >= {"eventloop", "rowpath", "figure_suite"}
    for path in PACKAGE.rglob("*.py"):
        assert not imports(path)[0] & helpers, path


def test_the_event_loop_is_not_exported():
    import repro.cloud
    import repro.core.rng

    reference = {"Event", "EventQueue", "FairShareQueue", "FifoQueue",
                 "QueuedEntry", "BufferedDraws"}
    for module in (repro.cloud, repro.core.rng):
        assert not reference & set(vars(module)), module.__name__
