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


def _fresh(*argv):
    """Run ``python *argv`` on the source tree; return the completed run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, check=True)


def _imported(importtime_log):
    """The top-level packages an ``-X importtime`` log lists."""
    return {line.rsplit("|", 1)[1].strip().split(".")[0]
            for line in importtime_log.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_the_cache_command_starts_without_numpy_or_networkx(tmp_path):
    # The benchmark times this start; the cache root needs neither.
    run = _fresh("-X", "importtime", "-m", "repro", "cache",
                 "--cache-dir", str(tmp_path / "cache"))
    assert '"entries": 0' in run.stdout
    imported = _imported(run.stderr)
    assert "repro" in imported
    assert not imported & {"numpy", "networkx"}


def test_the_study_modules_load_no_networkx():
    # What run-scenarios imports before its pool forks: the workers inherit
    # it, so neither side loads networkx.
    loaded = _fresh(
        "-c", "import sys, repro.runner, repro.scenarios; "
              "print(sorted(name for name in sys.modules "
              "if name.split('.')[0] == 'networkx'))")
    assert loaded.stdout.strip() == "[]"


def test_lazy_exports_resolve_on_first_use():
    # The packages load their heavy exports on first use, and every name
    # in __all__ still resolves and is listed by dir().
    script = """
import json, sys
def heavy():
    return sorted({name.split('.')[0] for name in sys.modules}
                  & {'numpy', 'networkx'})
import repro, repro.core, repro.service
light = heavy()
import repro.circuits
circuits = heavy()
packages = (repro, repro.core, repro.circuits, repro.service)
missing = [f'{module.__name__}.{name}' for module in packages
           for name in module.__all__
           if not hasattr(module, name) or name not in dir(module)]
print(json.dumps([light, circuits, missing, heavy()]))
"""
    import json

    light, circuits, missing, resolved = json.loads(
        _fresh("-c", script).stdout)
    assert light == []
    # The gate matrices need numpy; networkx waits for the first DAG.
    assert circuits == ["numpy"]
    assert missing == []
    assert resolved == ["networkx", "numpy"]


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
