"""Lazy package re-exports (PEP 562).

Every ``repro`` package keeps its public names in ``__all__`` but imports
the submodule that defines a name only when the name is first accessed.
A process therefore loads only what it uses: ``repro store export`` never
imports the predictor stack, and ``import repro`` costs next to nothing.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` hooks that re-export names lazily.

    ``exports`` maps a module name -- relative to ``package`` when it
    starts with a dot -- to the names ``package`` re-exports from it.  A
    resolved name is stored in the package namespace, so each name is
    looked up through the hook once.
    """
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
