"""Package re-exports resolved on first use (PEP 562).

A package that re-exports names from heavy submodules (numpy, networkx)
would load them on every ``import`` of the package, even for a command
that never uses them.  :func:`lazy_exports` gives such a package a module
``__getattr__`` that imports a name's submodule the first time the name is
read, and a ``__dir__`` that lists the names before they are loaded.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each submodule to the names it provides.  A resolved
    name is stored in the package's namespace, so it is imported once.
    """
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__
