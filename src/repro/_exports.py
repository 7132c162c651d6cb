"""Lazy package exports (PEP 562 module ``__getattr__`` and ``__dir__``).

Every package ``__init__`` of :mod:`repro` declares its public names with
:func:`lazy_exports` instead of importing them, so importing a package
loads nothing but this module.  The first lookup of an exported name
(``repro.simulator.Simulator``, ``from repro.simulator import Simulator``)
imports the module that defines it and stores the object in the package's
namespace, where every later lookup finds it without a call.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``.

    ``exports`` maps each defining module, relative to ``package``
    (``".engine"``, ``"..network.allocator"``), to the names the package
    exports from it.  A name the package neither holds nor exports raises
    :class:`AttributeError`, as for any module.
    """
    origins: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = origins.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | origins.keys())

    return __getattr__, __dir__, list(origins)
