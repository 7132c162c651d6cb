"""Campaign benchmark — serial-cold vs parallel-warm scenario sweeps.

A ~32-scenario campaign (synthetic graphs and a broadcast application over
schemes × networks × hosts × seeds) is executed twice:

* **serial-cold**: one worker, fresh persistent cache — the reference run,
  and the bit-exactness baseline;
* **parallel-warm**: 4 worker processes, the persistent cache reloaded from
  the first run's file — the steady state of repeated campaigns.

The two runs must produce identical results; the benchmark reports model
evaluations, cache traffic and wall clock, asserts the ≥2× evaluation
reduction the persistent cache promises (in practice the warm run performs
*zero* evaluations), and appends the numbers to ``BENCH_campaign.json`` at
the repository root so the perf trajectory accumulates across PRs.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.campaign import CampaignRunner, CampaignSpec, PersistentPenaltyCache

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"

SPEC = {
    "name": "bench-campaign",
    "workloads": [
        {"kind": "synthetic", "name": "random-tree", "params": {"size": "4M"}},
        {"kind": "synthetic", "name": "random",
         "params": {"size": "4M", "num_communications": 18}},
        {"kind": "synthetic", "name": "hotspot", "params": {"size": "4M"}},
        {"kind": "collective", "name": "broadcast", "params": {"size": "1M"}},
    ],
    "networks": ["ethernet", "myrinet"],
    "models": ["auto"],
    "host_counts": [10, 12],
    "placements": ["RRP"],
    "seeds": [0, 1],
}


def run_campaign(cache_path: Path, max_workers: int):
    spec = CampaignSpec.from_dict(SPEC)
    cache = PersistentPenaltyCache.load(cache_path)
    runner = CampaignRunner(spec, cache=cache, max_workers=max_workers)
    started = time.perf_counter()
    store = runner.run()
    elapsed = time.perf_counter() - started
    cache.save()
    return store, elapsed


def test_campaign_serial_cold_vs_parallel_warm(tmp_path, emit):
    cache_path = tmp_path / "penalty-cache.json"

    cold_store, cold_time = run_campaign(cache_path, max_workers=1)
    warm_store, warm_time = run_campaign(cache_path, max_workers=4)

    # orchestration, not approximation: identical scenario results
    assert [r.to_dict() for r in warm_store.results] == \
        [r.to_dict() for r in cold_store.results]

    cold_stats, warm_stats = cold_store.stats, warm_store.stats
    eval_ratio = cold_stats["comm_evaluations"] / max(1, warm_stats["comm_evaluations"])
    speedup = cold_time / warm_time if warm_time > 0 else float("inf")

    lines = [
        f"campaign: {len(cold_store)} scenarios "
        f"({len(SPEC['workloads'])} workloads x {len(SPEC['networks'])} networks "
        f"x {len(SPEC['host_counts'])} host counts x {len(SPEC['seeds'])} seeds)",
        "",
        f"{'run':<16s}{'comm evals':>12s}{'cache hits':>12s}{'wall clock':>14s}",
        (f"{'serial-cold':<16s}{cold_stats['comm_evaluations']:>12d}"
         f"{cold_stats['cache_hits']:>12d}{cold_time:>12.3f} s"),
        (f"{'parallel-warm':<16s}{warm_stats['comm_evaluations']:>12d}"
         f"{warm_stats['cache_hits']:>12d}{warm_time:>12.3f} s"),
        "",
        f"model-evaluation reduction: {eval_ratio:.1f}x   "
        f"wall-clock speedup: {speedup:.2f}x",
    ]
    record = {
        "benchmark": "bench_campaign",
        "scenarios": len(cold_store),
        "serial_cold": {"wall_clock_s": round(cold_time, 4), **cold_stats},
        "parallel_warm": {"wall_clock_s": round(warm_time, 4), **warm_stats},
        "eval_ratio": (round(eval_ratio, 2)
                       if eval_ratio != float("inf") else "inf"),
        "wall_clock_speedup": round(speedup, 2),
    }
    emit("campaign", "\n".join(lines), record=record, bench_json=BENCH_JSON)

    # acceptance: a warm persistent cache must at least halve the model
    # evaluations of a repeated campaign (it zeroes them when every scenario
    # is structural, as here).  Wall clock is recorded but not asserted — on
    # a sub-second sweep a loaded CI runner can invert timings without any
    # code regression, while the evaluation count is deterministic.
    assert cold_stats["comm_evaluations"] >= 2 * max(1, warm_stats["comm_evaluations"]), record
