"""Recompute the stored oracle digests in ``oracle.json``.

Runs the reference configuration of every workload for the default seeds,
one fresh ``worker.py --mode oracle`` process per (workload, seed), and
rewrites ``perfbench/oracle.json``.  A timed run whose seed is stored there
checks its outputs against the stored digest instead of running the oracle
first.  Recompute only after a deliberate change of what the program
predicts; a refactor must leave every stored digest valid.

    python3 perfbench/store_oracle.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import workload_names

HERE = Path(__file__).resolve().parent
#: the seeds whose oracle digests are stored
SEEDS = range(64)
#: oracle processes at once
JOBS = 2


def oracle_digest(job) -> str:
    workload, seed = job
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--mode", "oracle",
         "--workload", workload, "--seed", str(seed)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["digest"]


def main() -> int:
    names = workload_names()
    jobs = [(workload, seed) for workload in names for seed in SEEDS]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        digests = list(pool.map(oracle_digest, jobs))
    stored = {workload: {} for workload in names}
    for (workload, seed), digest in zip(jobs, digests):
        stored[workload][str(seed)] = digest
    path = HERE / "oracle.json"
    path.write_text(json.dumps({"digests": stored}, indent=1, sort_keys=True) + "\n")
    print(f"stored {len(jobs)} oracle digests in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
