"""The declared runtime dependencies cover what the package imports."""

import ast
import re
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


def module_level_imports(path):
    """Top-level packages imported at module level (not inside functions,
    where optional dependencies such as ``pyarrow`` are gated)."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_module_level_import_is_declared():
    third_party = {name for path in PACKAGE.rglob("*.py")
                   for name in module_level_imports(path)
                   if name not in sys.stdlib_module_names
                   and name not in ("repro", "__future__")}
    assert third_party >= {"numpy", "networkx", "scipy"}
    assert third_party <= declared_dependencies()
