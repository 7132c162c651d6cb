"""Interference benchmark — foreground slowdown vs. background intensity.

A ring-allgather collective on 16 hosts is executed through the
event-calendar engine four times: on a clean fabric, under two background
traffic intensities (seeded Poisson flows riding the same calendar and
contending in the contention model) and under a degraded-fabric mix
(background flows plus a half-capacity link window).  The zero-intensity
run must be **bit-exact** with the clean run — injection disabled is not
merely "close", it is the same simulation — and the loaded runs record the
foreground slowdown the interference subsystem prices.  The numbers are
appended to ``BENCH_scale_engine.json`` so the trajectory accumulates
across PRs.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.campaign import InterferenceSpec
from repro.cluster import custom_cluster
from repro.simulator import Application, EngineConfig, Simulator
from repro.units import MB
from repro.workloads import ring_allgather

NUM_HOSTS = 16
MESSAGE_SIZE = 2 * MB
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_scale_engine.json"

#: the swept interference configurations (name, spec dict)
LEVELS = [
    ("off", {"name": "off",
             "background": {"rate": 0.0, "size": "4M"}}),
    ("light", {"name": "light",
               "background": {"rate": 150, "size": "2M", "max_flows": 48,
                              "seed": 11}}),
    ("heavy", {"name": "heavy",
               "background": {"rate": 600, "size": "4M", "max_flows": 192,
                              "seed": 11}}),
    ("degraded", {"name": "degraded",
                  "background": {"rate": 150, "size": "2M", "max_flows": 48,
                                 "seed": 11},
                  "link_degradation": {"factor": 0.5, "start": 0.0,
                                       "until": 0.5}}),
]


def foreground_application() -> Application:
    app = Application(num_tasks=NUM_HOSTS, name="ring-allgather-16")
    return ring_allgather(app, MESSAGE_SIZE)


def run_level(spec: InterferenceSpec):
    cluster = custom_cluster(num_nodes=NUM_HOSTS, cores_per_node=1,
                             technology="ethernet")
    injectors = spec.build_injectors(seed=0)
    simulator = Simulator.predictive(
        cluster, config=EngineConfig(injectors=injectors)
    )
    started = time.perf_counter()
    report = simulator.run(foreground_application(), placement="RRN")
    elapsed = time.perf_counter() - started
    return report, elapsed, simulator.last_engine_stats


def test_interference_slowdown_ladder(emit):
    clean_report, clean_time, clean_stats = run_level(InterferenceSpec())

    rows = []
    records = []
    for name, data in LEVELS:
        spec = InterferenceSpec.from_dict(data)
        report, elapsed, stats = run_level(spec)
        slowdown = report.total_time / clean_report.total_time
        rows.append((name, report.total_time, slowdown,
                     stats.background_flows, stats.calendar.rate_updates,
                     elapsed))
        records.append({
            "interference": name,
            "foreground_time_s": report.total_time,
            "slowdown": round(slowdown, 4),
            "background_flows": stats.background_flows,
            "injected_events": stats.injected_events,
            "rate_updates": stats.calendar.rate_updates,
            "wall_clock_s": round(elapsed, 4),
        })
        if name == "off":
            # acceptance: disabled injectors are bit-exact, not approximate
            assert report.records == clean_report.records
            assert report.total_time == clean_report.total_time

    lines = [
        f"foreground: ring-allgather, {NUM_HOSTS} hosts, "
        f"{MESSAGE_SIZE // MB} MB messages, gigabit-ethernet model",
        f"clean fabric: {clean_report.total_time:.4f} s foreground makespan",
        "",
        (f"{'interference':<14s}{'fg time':>10s}{'slowdown':>10s}"
         f"{'bg flows':>10s}{'rate upd':>10s}{'wall clock':>12s}"),
    ]
    for name, fg_time, slowdown, flows, updates, elapsed in rows:
        lines.append(
            f"{name:<14s}{fg_time:>9.4f}s{slowdown:>9.2f}x"
            f"{flows:>10d}{updates:>10d}{elapsed:>10.3f} s"
        )
    record = {
        "benchmark": "bench_interference",
        "num_hosts": NUM_HOSTS,
        "foreground": "ring-allgather",
        "clean_time_s": clean_report.total_time,
        "clean_wall_clock_s": round(clean_time, 4),
        "clean_rate_updates": clean_stats.calendar.rate_updates,
        "levels": records,
    }
    emit("interference", "\n".join(lines), record=record, bench_json=BENCH_JSON)

    by_name = {r["interference"]: r for r in records}
    # acceptance: interference slows the foreground, and more interference
    # slows it more (the flows are seeded, so this ladder is deterministic)
    assert by_name["off"]["slowdown"] == 1.0
    assert by_name["light"]["slowdown"] > 1.0
    assert by_name["heavy"]["slowdown"] > by_name["light"]["slowdown"]
    assert by_name["degraded"]["slowdown"] > by_name["light"]["slowdown"]
