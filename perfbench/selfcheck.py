"""The benchmark's own checks.

* ``counts``: two traced runs of one seed, under different
  ``PYTHONHASHSEED`` values, give identical per-layer counts, and every
  traced unit's outputs equal the untraced units' (both are checked against
  the same oracle digest, so zero failed operations means equal outputs);
* ``unseen``: a seed absent from ``oracle.json`` runs the oracle first and
  then runs with zero failed operations;
* ``bare``: in a directory holding only ``BENCHMARK.json`` and ``perfbench``
  the benchmark exits non-zero without printing a result.

    python3 perfbench/selfcheck.py

Scratch files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import workload_names
from spans import counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
#: a seed never used while the benchmark was built, absent from oracle.json
UNSEEN_SEED = 9001
SECONDS = 1.0


def bench(cwd: Path, workload: str, seed: int, seconds: float, trace: int,
          hash_seed: str = "0") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def result(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit code {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def layer_counts(run: dict) -> dict:
    return counts({name: metric["value"] for name, metric in run["metrics"].items()})


def check_counts() -> list:
    problems = []
    for workload in workload_names():
        runs = [result(bench(ROOT, workload, SEED, SECONDS, 1, hash_seed))
                for hash_seed in ("0", "1")]
        if any(run["failed"] or not run["correct"] for run in runs):
            problems.append(f"{workload}: traced run had failed operations")
        first, second = (layer_counts(run) for run in runs)
        if first != second:
            changed = sorted(k for k in first if first[k] != second.get(k))
            problems.append(f"{workload}: per-layer counts differ: {changed}")
        saved = json.loads((ROOT / ".perfbench" /
                            f"result-{workload}-seed{SEED}-trace1.json").read_text())
        if not saved["provenance"]["per_layer_counts_repeat"]:
            problems.append(f"{workload}: counts differ between traced units of one run")
    return problems


def check_unseen() -> list:
    stored = json.loads((HERE / "oracle.json").read_text())["digests"]
    problems = []
    for workload in workload_names():
        if str(UNSEEN_SEED) in stored.get(workload, {}):
            problems.append(f"{workload}: seed {UNSEEN_SEED} is stored, pick another")
            continue
        run = result(bench(ROOT, workload, UNSEEN_SEED, SECONDS, 0))
        if run["failed"] or not run["correct"] or run["attempted"] < 1:
            problems.append(f"{workload}: unseen seed failed {run['failed']} operations")
    return problems


def check_bare() -> list:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = bench(bare, workload_names()[0], SEED, SECONDS, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode == 0 or last[0].startswith("{"):
        return ["bare directory: the benchmark did not fail"]
    return []


CHECKS = {"counts": check_counts, "unseen": check_unseen, "bare": check_bare}


def main() -> int:
    failed = False
    for name, check in CHECKS.items():
        problems = check()
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
