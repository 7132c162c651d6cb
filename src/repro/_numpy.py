"""Guarded numpy import.

numpy is a hard dependency of the package (declared in ``pyproject.toml``):
the analysis layer, the calibration fits, task placement and the workload
generators are built on it.  Importing through this module turns the bare
``ModuleNotFoundError`` into an actionable message instead of a confusing
mid-simulation traceback.

Usage::

    from .._numpy import np
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - exercised only without numpy
    raise ImportError(
        "repro requires numpy (it is declared in pyproject.toml): the "
        "analysis layer, the calibration fits and the workload generators "
        "are built on it. Install it with `pip install numpy` "
        "or install the package with `pip install .`."
    ) from exc

__all__ = ["np"]
