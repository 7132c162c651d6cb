"""A traced model-provider run writes the same bytes under every hash seed.

Injected background flows carry string ids (``background#N``), whose set
order follows ``PYTHONHASHSEED``; the pricing engine must still hand the
calendar its re-priced transfers in one fixed order, or the ``calendar.*``
records within a timestamp come out in a seed-dependent order.  Each run
records in its own interpreter, the only way to vary the hash seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro


RING_ALLGATHER = ("--workload", "ring-allgather", "--hosts", "4",
                  "--bg-rate", "120", "--bg-size", "1M", "--bg-max-flows", "8")


def record_loaded_run(out: Path, hash_seed: int, args=RING_ALLGATHER) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    src_root = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "record", *args,
         "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


def test_loaded_model_trace_does_not_depend_on_the_hash_seed(tmp_path):
    first = record_loaded_run(tmp_path / "seed0.jsonl", 0)
    second = record_loaded_run(tmp_path / "seed1.jsonl", 1)
    assert b"background#" in first
    assert first == second


def test_loaded_hpl_trace_on_myrinet_does_not_depend_on_the_hash_seed(tmp_path):
    """HPL under background flows, a degraded-link and a slowed-node window."""
    args = ("--workload", "linpack", "--network", "myrinet", "--hosts", "8",
            "--problem-size", "1200", "--block-size", "120",
            "--bg-rate", "300", "--bg-size", "1M", "--bg-max-flows", "12",
            "--degrade-factor", "0.5", "--degrade-until", "0.05",
            "--slowdown-factor", "0.5", "--slowdown-until", "0.05")
    first = record_loaded_run(tmp_path / "seed0.jsonl", 0, args)
    second = record_loaded_run(tmp_path / "seed2.jsonl", 2, args)
    assert b"background#" in first
    assert b"inject.compute_scale_on" in first
    assert first == second
