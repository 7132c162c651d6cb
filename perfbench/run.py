"""The repository's benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload linpack_512 --seed 1 --seconds 15 --trace 0

Workloads (all closed batches, one process on one thread):

* ``linpack_512`` -- predictive HPL, 512 single-core GigE nodes, random
  placement picked by the seed;
* ``emulator_fattree_loaded`` -- emulated pairwise all-to-all on a 4:1
  oversubscribed fat tree under seeded Poisson background traffic;
* ``campaign_sweep`` -- a serial 270-scenario campaign over three models.

With ``--trace 0`` the run prints the end-to-end metrics: ``wall_s`` (median
host time of one simulation, or of one sweep), ``setup_s`` (median time from
a fresh interpreter to the first timed simulation, over five start-ups),
``peak_rss_mb`` of the timed process, and ``scenario_p95_ms`` (per-scenario
host time; a single-simulation workload has one scenario per simulation, too
few for a tail, so it reports the median there).  The per-scenario median is
left out: over five seeds it spread more than ``wall_s`` (IQR/median 9.7%
against 8.1% on ``campaign_sweep``), too close to the largest allowed bound.
With ``--trace 1`` it prints the per-layer metrics of a separate traced run
(see ``spans.py``).

Every time the run reports is taken at the reference speed of ``pace.py``:
each unit's, scenario's and start-up's host time, without the speed probe's
ticks, is scaled by the ticks taken while it ran (for a scenario, within a
quarter second of it).  The host times as measured, and the tick times, are
printed on the ``raw`` line and kept in the result file.

Every operation (simulation or scenario) is checked bit for bit against the
reference oracle (``workloads.py``); oracle digests of seeds 0-63 are stored
in ``oracle.json``, and any other seed runs the oracle before timing.  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
provenance and samples go to the lines before it and to
``.perfbench/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
#: fresh-interpreter start-ups per run: the timed worker's, and set-up probes
#: split between before and after it, so the median spans the run
SETUP_SAMPLES = 5
#: a run must end within this many seconds
RUN_BUDGET_S = 170.0
#: a scenario tail percentile needs at least this many samples beyond it
TAIL_SAMPLES = 10


def declared() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list:
    return [workload["name"] for workload in declared()["workloads"]]


class BenchError(RuntimeError):
    """A run that cannot produce a result (no sources, a crashed worker)."""


def provenance() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                     capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
    }


class Worker:
    """A ``worker.py`` process; its stdout lines arrive through a queue.

    Used as a context manager: leaving the block kills the process if it is
    still running and waits for it, whatever went wrong.
    """

    def __init__(self, args: list, deadline: float) -> None:
        self.deadline = deadline
        self.lines: "queue.Queue" = queue.Queue()
        self.started = perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=ROOT,
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                     text=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((perf_counter(), line))
        self.lines.put((perf_counter(), None))

    def line(self):
        """Next stdout line as ``(arrival time, JSON payload)``."""
        try:
            when, line = self.lines.get(timeout=max(0.0, self.deadline - perf_counter()))
        except queue.Empty:
            raise BenchError("worker timed out") from None
        if line is None:
            raise BenchError(f"worker exited early with code {self.proc.wait()}")
        try:
            return when, json.loads(line)
        except ValueError:
            raise BenchError(f"worker printed {line!r}") from None

    def finish(self) -> None:
        try:
            code = self.proc.wait(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not exit") from None
        if code != 0:
            raise BenchError(f"worker exited with code {code}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()


def setup_sample(worker: Worker) -> dict:
    """One start-up: host seconds to the ready line, without the probe's ticks."""
    when, ready = worker.line()
    return {"setup_s": when - worker.started - ready["probe_spent_s"],
            "import_s": ready["import_s"], "build_s": ready["build_s"],
            "tick_s": ready["tick_s"]}


def setup_probe(common: list, deadline: float) -> dict:
    """One more start-up: a worker that only sets up, then exits."""
    with Worker(["--mode", "setup"] + common, deadline) as probe:
        sample = setup_sample(probe)
        probe.finish()
    return sample


def expected_digest(workload: str, seed: int, deadline: float) -> str:
    stored = json.loads((HERE / "oracle.json").read_text())["digests"].get(workload, {})
    if str(seed) in stored:
        return stored[str(seed)]
    with Worker(["--mode", "oracle", "--workload", workload, "--seed", str(seed)],
                deadline) as oracle:
        oracle.line()
        _, payload = oracle.line()
        oracle.finish()
    return payload["digest"]


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def all_at_reference_speed(seconds: list, ticks: list) -> list:
    """Each of ``seconds`` at the reference speed, given the ticks taken meanwhile."""
    return [pace.at_reference_speed(s, tick) for s, tick in zip(seconds, ticks)]


def setup_median(setups: list, key: str) -> float:
    return statistics.median(all_at_reference_speed([s[key] for s in setups],
                                                    [s["tick_s"] for s in setups]))


def scenario_metrics(op_seconds: list, op_ticks: list) -> dict:
    samples = [pace.at_reference_speed(s, tick) * 1000.0
               for ops, ticks in zip(op_seconds, op_ticks) for s, tick in zip(ops, ticks)]
    # p95 needs TAIL_SAMPLES beyond it; single-simulation runs have a handful
    supported = len(samples) * 0.05 >= TAIL_SAMPLES
    return {"scenario_p95_ms": (percentile(samples, 95) if supported
                                else statistics.median(samples)),
            "scenario_samples": len(samples), "scenario_p95_supported": supported}


def scale_times(layer: dict, tick: float) -> dict:
    """One traced unit's per-layer metrics, its times at the reference speed."""
    return {name: (pace.at_reference_speed(value, tick)
                   if name.endswith(("_s", "_us_per_step")) else value)
            for name, value in layer.items()}


def run(args) -> dict:
    begin = perf_counter()
    deadline = begin + RUN_BUDGET_S
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")
    info = provenance()
    info["tick_before_s"] = pace.Probe().idle_speed()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = SETUP_SAMPLES - 1
    setups = [setup_probe(common, deadline) for _ in range(probes // 2)]
    expect = expected_digest(args.workload, args.seed, deadline)
    with Worker(["--mode", "run", "--seconds", str(args.seconds), "--trace",
                 str(args.trace), "--expect", expect] + common, deadline) as worker:
        setups.append(setup_sample(worker))
        _, result = worker.line()
        worker.finish()
    setups += [setup_probe(common, deadline) for _ in range(probes - probes // 2)]
    info["tick_after_s"] = pace.Probe().idle_speed()
    info["loadavg_after"] = list(os.getloadavg())
    info["numpy"] = result["numpy"]
    info["non_default"] = result["non_default"]
    info["structurally_zero"] = result["structurally_zero"]

    samples = {"setup": setups, "walls": result["walls"], "ticks": result["ticks"],
               "op_seconds": result["op_seconds"], "op_ticks": result["op_ticks"]}
    walls = all_at_reference_speed(result["walls"], result["ticks"])
    info["raw"] = {"wall_s": statistics.median(result["walls"]),
                   "setup_s": statistics.median(s["setup_s"] for s in setups),
                   "tick_s": statistics.median(result["ticks"]),
                   "reference_tick_s": pace.REFERENCE_TICK_S}
    if args.trace:
        layers = [scale_times(m, tick) for m, tick in zip(result["layers"],
                                                          result["traced_ticks"])]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["setup.import_s"] = setup_median(setups, "import_s")
        metrics["setup.build_s"] = setup_median(setups, "build_s")
        traced = all_at_reference_speed(result["traced_walls"], result["traced_ticks"])
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(walls) - 1.0)
        samples["traced_walls"] = result["traced_walls"]
        samples["traced_ticks"] = result["traced_ticks"]
    else:
        scenario = scenario_metrics(result["op_seconds"], result["op_ticks"])
        info["scenario_samples"] = scenario.pop("scenario_samples")
        info["scenario_p95_supported"] = scenario.pop("scenario_p95_supported")
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_median(setups, "setup_s"),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            **scenario,
        }
    wanted = declared()["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in wanted} != set(metrics):
        raise BenchError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    if not result["counts_repeat"]:
        print("warning: per-layer counts differ between traced units", file=sys.stderr)
    info["per_layer_counts_repeat"] = result["counts_repeat"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": info, "samples": samples,
        "correct": result["failed"] == 0, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload_names(), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so every worker it started is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        outcome = run(args)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    partial = path.with_suffix(".partial")
    partial.write_text(json.dumps(outcome, indent=2) + "\n")
    os.replace(partial, path)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(outcome["provenance"]))
    print("raw " + json.dumps(outcome["provenance"]["raw"]))
    for name, metric in outcome["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"attempted {outcome['attempted']} failed {outcome['failed']}")
    print(json.dumps({key: outcome[key] for key in ("correct", "attempted", "failed",
                                                    "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
