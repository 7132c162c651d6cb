"""Guarded numpy import.

numpy is a hard dependency of the package (declared in ``pyproject.toml``):
the array water-filling solver (:mod:`repro.network.sharing`) and the
emulator's incidence arrays (:mod:`repro.network.allocator`), the analysis
layer and the workload generators are all built on it.  Importing through this module turns the
bare ``ModuleNotFoundError`` into an actionable message instead of a
confusing mid-simulation traceback.

Usage::

    from .._numpy import np
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - exercised only without numpy
    raise ImportError(
        "repro requires numpy (it is declared in pyproject.toml): the "
        "max-min sharing solver, the emulator and the analysis layer are "
        "built on it. Install it with `pip install numpy` "
        "or install the package with `pip install .`."
    ) from exc

__all__ = ["np"]
