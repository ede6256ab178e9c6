"""Package re-exports that resolve on first use (PEP 562).

A package ``__init__`` names each public attribute by the submodule that
defines it and hands the table to :func:`lazy_exports`. Importing the
package then imports none of its submodules; ``package.Name`` (or ``from
package import Name``) imports the one submodule that defines ``Name`` the
first time it is asked for, and caches the value on the package.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for *package*, whose *exports*
    map a submodule name (relative to *package*) to the names it exports."""
    where = {name: f"{package}.{module}" for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(where[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | where.keys())

    return list(where), __getattr__, __dir__
