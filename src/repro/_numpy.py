"""numpy under the name ``np``, for the benchmark worker.

The package imports numpy directly (it is a declared dependency).
``perfbench/worker.py`` imports it through this module to report numpy's
version with each run, so the module stays until that import reads
``import numpy``.
"""

import numpy as np

__all__ = ["np"]
