"""Which modules a fresh interpreter loads: the helpers of the import pins.

``tests/test_startup.py`` pins what start-up loads of :mod:`repro`, and
``tests/core/test_calibration.py`` pins that scipy and networkx load only
when their users run.  Each check runs its code in a new interpreter on
this checkout's sources, so nothing the test session imported counts.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence

import repro

SRC_ROOT = str(Path(repro.__file__).parents[1])


def loaded_after_running(source: str, *packages: str) -> List[str]:
    """Sorted modules of the top-level ``packages`` (``"repro"``,
    ``"concurrent"``, ...) loaded after a fresh interpreter runs ``source``.

    ``source`` may print; the module list is the last line of the output.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    source = (
        "import sys\n"
        f"{source}"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def loaded_after_import(modules: Sequence[str], *packages: str) -> List[str]:
    """Modules of ``packages`` loaded after a fresh interpreter imports ``modules``."""
    return loaded_after_running(f"import {', '.join(modules)}\n", *packages)
