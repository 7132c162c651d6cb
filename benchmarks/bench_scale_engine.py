"""Scale benchmark — incremental contention engine vs full recomputation,
delta-driven event calendar vs per-step full re-query, and tracing overhead.

A 64-node synthetic iterative workload (per-group fan-ins plus an
inter-group leader ring, the communication skeleton of LINPACK-style
iterations) is run through the fluid transfer simulator twice: once with the
historical rebuild-everything :class:`ModelRateProvider` and once with the
incremental engine (component-scoped re-pricing + memoized snapshots).  The
two must produce identical completion times; the benchmark reports the
model-evaluation counts and wall-clock times, asserts the ≥3× evaluation
reduction the refactor promises, and appends the numbers to
``BENCH_scale_engine.json`` at the repository root so the perf trajectory
accumulates across PRs.

The **engine-events** section measures the execution loop itself: with the
delta rate contract the calendar re-prices/re-times only the transfers of
the conflict components each arrival/departure dirties, while the
full-requery loop touches every active transfer every step.  Per-event
engine work (rate entries applied per flush) must drop ≥5× on the
64-host / 384-transfer scenario, with identical completion records.

The **tracing-overhead** section runs the same 64-host / 384-transfer
scenario untraced, with a :class:`~repro.trace.NullTraceSink` (must be
free: it normalises to the untraced path) and with a live
:class:`~repro.trace.JsonlTraceSink`, asserting bit-identical results and
recording the relative wall-clock overhead of the JSONL sink — the
reproduction's analogue of the paper's ~0.7 % MPE instrumentation cost
(§VI.D), tracked in ``BENCH_scale_engine.json`` so it stays visible in the
perf trajectory.

The **metrics-overhead** section attaches a
:class:`~repro.obs.MetricsRegistry` to the 256-rank LINPACK rung through
``EngineConfig(metrics=...)`` — phase timers around the engine's ready
processing, timeline drains and calendar flushes plus lazily-read stats
sources — asserting the rung's pinned makespan with and without it and
recording the metering cost next to the tracing cost.  The tracing
micro-scenario runs ~17 ms, too short for the metering cost to stand out
of the spread of its repeats; the LINPACK rung runs ~0.3 s (2-vCPU VM).

Both overhead sections run their modes interleaved, one run of each mode
per round, and record the min and median of every mode plus the spread
(interquartile range) of the uninstrumented runs.  Overheads compare
medians and are never clamped; one whose median difference lies inside
that spread is recorded as below noise (a ``*_below_noise`` flag in the
record, "below noise" in the text).

The **scale-ladder** sections climb the same synthetic skeleton to 256,
1024 and 4096 hosts (plus a LINPACK prediction at 256/1024/4096 ranks,
recording engine steps and wall clock per step, an emulated all-to-all
under background load at 64/128/256 hosts, recording solves and flows per
solve as well, and a small campaign variant), recording one trajectory
record per rung — the repository's first ≥1k-host benchmark records.  The
256-host rung (128 for the emulated family) runs everywhere; the heavier
rungs are opt-in via ``REPRO_LADDER_MAX_HOSTS`` (CI runs the small rungs on
every push with a wall-clock budget from ``REPRO_LADDER_BUDGET_S``, the
LINPACK rungs up to 4096 ranks and the emulated rungs up to 256 hosts).
Every LINPACK and emulated rung asserts its predicted makespan, bit for
bit, against the value pinned here: a refactor of the engine or of the
pricing must not move it.  The
**water-filling** section times the emulator's unit-weight solver against
the reference freeze loop at ~40 flows (the loaded fat-tree emulator
workload's solve size) and at 4096 flows, asserted bit-exact, with the
speedups recorded; then it replays the whole-set solves of the 64-host
emulated rung, each once from round 0 and once resumed from the round log
as the provider runs it, asserting bit-identical rates and recording the
time per solve and the mean round the resumed solves start from.

The other wall-clock comparisons here are best-of-N (the work counters are
deterministic, the timings are not; N repeats stop a loaded runner from
inverting a comparison).
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core import GigabitEthernetModel
from repro.network.fluid import FluidTransferSimulator, Transfer
from repro.simulator.providers import ModelRateProvider

NUM_HOSTS = 64
GROUP_SIZE = 8
ITERATIONS = 6
REPEATS = 3
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_scale_engine.json"

#: rungs above this host count are skipped (CI budget); raise via env to
#: climb the full ladder, e.g. REPRO_LADDER_MAX_HOSTS=4096
LADDER_MAX_HOSTS = int(os.environ.get("REPRO_LADDER_MAX_HOSTS", "256"))
#: optional wall-clock budget per ladder rung, in seconds (0 = record only)
LADDER_BUDGET_S = float(os.environ.get("REPRO_LADDER_BUDGET_S", "0") or 0.0)


def synthetic_workload(num_hosts: int = NUM_HOSTS, group_size: int = GROUP_SIZE,
                       iterations: int = ITERATIONS):
    """Deterministic iterative transfer set on ``num_hosts`` nodes.

    Every iteration: the members of each group send to their leader
    (fan-in contention at the leader NIC) and each leader forwards to the
    next group's leader.  Start times and sizes are staggered so arrivals
    and departures interleave — every event dirties only the touched
    group's conflict component.
    """
    assert num_hosts % group_size == 0
    num_groups = num_hosts // group_size
    transfers = []
    tid = 0
    period = 1.0
    for iteration in range(iterations):
        base = iteration * period
        for group in range(num_groups):
            leader = group * group_size
            for member in range(1, group_size):
                host = leader + member
                transfers.append(Transfer(
                    transfer_id=tid, src=host, dst=leader,
                    size=200_000.0 + 10_000.0 * member,
                    start_time=base + 0.003 * member + 0.0007 * group,
                ))
                tid += 1
            next_leader = ((group + 1) % num_groups) * group_size
            transfers.append(Transfer(
                transfer_id=tid, src=leader, dst=next_leader,
                size=400_000.0, start_time=base + 0.001 * group,
            ))
            tid += 1
    return transfers


def run_mode(incremental: bool, repeats: int = REPEATS):
    """Best-of-``repeats`` run of the scale workload under one provider mode.

    The work counters are deterministic (asserted below), so they come from
    the last repeat; only the wall clock is minimised over the repeats.
    """
    workload = synthetic_workload()
    best = float("inf")
    results = stats = None
    for _ in range(repeats):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet",
                                     incremental=incremental)
        simulator = FluidTransferSimulator(provider)
        started = time.perf_counter()
        results = simulator.run(workload)
        best = min(best, time.perf_counter() - started)
        snapshot = provider.stats.snapshot()
        assert stats is None or stats == snapshot  # counters are deterministic
        stats = snapshot
    return results, best, stats


def test_incremental_engine_scales(emit):
    full_results, full_time, full_stats = run_mode(incremental=False)
    inc_results, inc_time, inc_stats = run_mode(incremental=True)

    # optimisation, not approximation: identical completion records
    assert inc_results == full_results

    eval_ratio = full_stats["comm_evaluations"] / max(1, inc_stats["comm_evaluations"])
    speedup = full_time / inc_time if inc_time > 0 else float("inf")

    lines = [
        f"synthetic workload: {NUM_HOSTS} hosts, {ITERATIONS} iterations, "
        f"{len(synthetic_workload())} transfers",
        "",
        f"{'mode':<14s}{'comm evals':>12s}{'cache hits':>12s}{'wall clock':>14s}",
        (f"{'full':<14s}{full_stats['comm_evaluations']:>12d}"
         f"{full_stats['cache_hits']:>12d}{full_time:>12.3f} s"),
        (f"{'incremental':<14s}{inc_stats['comm_evaluations']:>12d}"
         f"{inc_stats['cache_hits']:>12d}{inc_time:>12.3f} s"),
        "",
        f"model-evaluation reduction: {eval_ratio:.1f}x   wall-clock speedup: {speedup:.2f}x",
    ]
    record = {
        "benchmark": "bench_scale_engine",
        "num_hosts": NUM_HOSTS,
        "iterations": ITERATIONS,
        "transfers": len(synthetic_workload()),
        "repeats": REPEATS,
        "full": {"wall_clock_s": round(full_time, 4), **full_stats},
        "incremental": {"wall_clock_s": round(inc_time, 4), **inc_stats},
        "eval_ratio": round(eval_ratio, 2),
        "wall_clock_speedup": round(speedup, 2),
    }
    emit("scale_engine", "\n".join(lines), record=record, bench_json=BENCH_JSON)

    # acceptance: >=3x fewer model evaluations.  The wall-clock win is
    # recorded (CHANGES.md / BENCH_scale_engine.json) but deliberately not
    # asserted: on a ~0.1 s workload a loaded CI runner can invert the
    # timings without any code regression, while the evaluation count is
    # deterministic.
    assert eval_ratio >= 3.0, record


def run_calendar_mode(delta: bool, repeats: int = REPEATS):
    workload = synthetic_workload()
    best = float("inf")
    results = stats = None
    for _ in range(repeats):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        simulator = FluidTransferSimulator(provider, delta=delta)
        started = time.perf_counter()
        results = simulator.run(workload)
        best = min(best, time.perf_counter() - started)
        snapshot = simulator.last_calendar_stats
        assert stats is None or stats == snapshot  # counters are deterministic
        stats = snapshot
    return results, best, stats


def test_engine_event_calendar_scales(emit):
    """Engine-events section: per-event work follows dirtied components."""
    full_results, full_time, full_stats = run_calendar_mode(delta=False)
    delta_results, delta_time, delta_stats = run_calendar_mode(delta=True)

    # optimisation, not approximation: identical completion records
    assert delta_results == full_results

    per_event_full = full_stats.rate_updates / max(1, full_stats.flushes)
    per_event_delta = delta_stats.rate_updates / max(1, delta_stats.flushes)
    work_ratio = per_event_full / max(1e-9, per_event_delta)
    retime_ratio = full_stats.retimed / max(1, delta_stats.retimed)
    speedup = full_time / delta_time if delta_time > 0 else float("inf")

    lines = [
        f"engine events: {NUM_HOSTS} hosts, {len(synthetic_workload())} transfers",
        "",
        (f"{'mode':<14s}{'flushes':>9s}{'rate updates':>14s}{'re-timed':>10s}"
         f"{'per-event':>11s}{'wall clock':>13s}"),
        (f"{'full-requery':<14s}{full_stats.flushes:>9d}"
         f"{full_stats.rate_updates:>14d}{full_stats.retimed:>10d}"
         f"{per_event_full:>11.1f}{full_time:>11.3f} s"),
        (f"{'delta':<14s}{delta_stats.flushes:>9d}"
         f"{delta_stats.rate_updates:>14d}{delta_stats.retimed:>10d}"
         f"{per_event_delta:>11.1f}{delta_time:>11.3f} s"),
        "",
        (f"per-event work reduction: {work_ratio:.1f}x   "
         f"re-timing reduction: {retime_ratio:.1f}x   "
         f"wall-clock speedup: {speedup:.2f}x"),
    ]
    record = {
        "benchmark": "bench_scale_engine/engine_events",
        "num_hosts": NUM_HOSTS,
        "transfers": len(synthetic_workload()),
        "repeats": REPEATS,
        "full_requery": {"wall_clock_s": round(full_time, 4), **asdict(full_stats)},
        "delta": {"wall_clock_s": round(delta_time, 4), **asdict(delta_stats)},
        "per_event_work_ratio": round(work_ratio, 2),
        "retime_ratio": round(retime_ratio, 2),
        "wall_clock_speedup": round(speedup, 2),
    }
    emit("engine_events", "\n".join(lines), record=record, bench_json=BENCH_JSON)

    # acceptance: per-event engine work scales with dirtied components, not
    # the active-set size.  Wall-clock is recorded but (as above) not
    # asserted — the evaluation counters are deterministic, CI timing isn't.
    assert work_ratio >= 5.0, record


#: rounds of the interleaved overhead sections (every mode runs once a round)
OVERHEAD_REPEATS = 9


def interleave(runners, repeats: int = OVERHEAD_REPEATS):
    """Time every runner ``repeats`` times, round-robin across the runners.

    Each round runs every mode once, so a slow stretch of a shared host
    lands on all modes alike instead of on whichever mode's block of
    repeats it hits.  A runner returns ``(elapsed_s, outcome)``; the result
    maps its name to its list of times and to its list of outcomes.
    """
    times = {name: [] for name in runners}
    outcomes = {name: [] for name in runners}
    for _ in range(repeats):
        for name, run in runners.items():
            elapsed, outcome = run()
            times[name].append(elapsed)
            outcomes[name].append(outcome)
    return times, outcomes


def overhead_row(times, base, noise_s):
    """Min, median, relative overhead and below-noise flag of one mode.

    The overhead compares medians; it is *below noise* when the median
    difference lies within ``noise_s``, the spread of the baseline's own
    repeats (see :func:`spread`).  It is never clamped: noise reads negative.
    """
    median = statistics.median(times)
    base_median = statistics.median(base)
    return {
        "min_s": min(times),
        "median_s": median,
        "delta_s": median - base_median,
        "overhead": median / base_median - 1.0,
        "below_noise": abs(median - base_median) <= noise_s,
    }


def spread(times) -> float:
    """Interquartile range of one mode's repeats (robust to one slow run)."""
    q1, _, q3 = statistics.quantiles(times, n=4)
    return q3 - q1


def noise_note(row) -> str:
    return " (below noise)" if row["below_noise"] else ""


def traced_once(mode: str, trace_path):
    """One run of the scale workload under one sink mode.

    Returns the in-run wall clock (the instrumentation perturbation — what
    the paper's 0.7 % measures) and, as the outcome, the results, the
    close/write-out time and the record count: the JSONL sink buffers
    MPE-style during the run and serialises at close, exactly like MPE
    dumps its log at finalize.
    """
    from repro.trace import JsonlTraceSink, NullTraceSink

    if mode == "jsonl":
        sink = JsonlTraceSink(trace_path)
    elif mode == "null":
        sink = NullTraceSink()
    else:
        sink = None
    workload = synthetic_workload()
    provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
    simulator = FluidTransferSimulator(provider, trace=sink)
    started = time.perf_counter()
    results = simulator.run(workload)
    elapsed = time.perf_counter() - started
    close_time = 0.0
    if sink is not None:
        close_started = time.perf_counter()
        sink.close()
        close_time = time.perf_counter() - close_started
    return elapsed, (results, close_time, getattr(sink, "emitted", 0))


def test_tracing_overhead(emit, tmp_path):
    """Tracing-overhead section: null sink free, JSONL sink ~1 us/record.

    On this worst-case micro-scenario (7.5 records per transfer over a
    fully-memoized ~18 ms base run) that per-record cost shows up as
    roughly 10-25 % wall-clock; the tracked quantities are the recorded
    percentage and `jsonl_us_per_record`.  The three modes run
    interleaved; a quantity within the spread of the untraced repeats is
    recorded as below noise.
    """
    trace_path = tmp_path / "scale-engine.jsonl"
    times, outcomes = interleave({
        mode: (lambda mode=mode: traced_once(mode, trace_path))
        for mode in ("none", "null", "jsonl")
    })
    base_results = outcomes["none"][-1][0]
    emitted = outcomes["jsonl"][-1][2]

    # observability, not physics: identical completion records in all modes
    assert all(outcome[0] == base_results
               for mode in ("null", "jsonl") for outcome in outcomes[mode])
    assert emitted > len(synthetic_workload())  # the trace saw the run

    base = times["none"]
    noise_s = spread(base)
    untraced = overhead_row(base, base, noise_s)
    null = overhead_row(times["null"], base, noise_s)
    jsonl = overhead_row(times["jsonl"], base, noise_s)
    null_overhead = null["overhead"]
    jsonl_overhead = jsonl["overhead"]
    per_record_us = jsonl["delta_s"] / max(1, emitted) * 1e6
    close_time = statistics.median(outcome[1] for outcome in outcomes["jsonl"])
    trace_bytes = trace_path.stat().st_size

    lines = [
        f"tracing overhead: {NUM_HOSTS} hosts, {len(synthetic_workload())} "
        f"transfers, {emitted} trace records ({trace_bytes} bytes); "
        f"{OVERHEAD_REPEATS} interleaved rounds",
        "",
        f"{'sink':<8s}{'min':>10s}{'median':>10s}{'overhead':>10s}{'write-out':>12s}",
        f"{'none':<8s}{untraced['min_s']:>8.4f} s{untraced['median_s']:>8.4f} s"
        f"{'-':>10s}{'-':>12s}",
        f"{'null':<8s}{null['min_s']:>8.4f} s{null['median_s']:>8.4f} s"
        f"{null_overhead:>9.1%}{'-':>12s}{noise_note(null)}",
        f"{'jsonl':<8s}{jsonl['min_s']:>8.4f} s{jsonl['median_s']:>8.4f} s"
        f"{jsonl_overhead:>9.1%}{close_time:>10.4f} s{noise_note(jsonl)}",
        "",
        f"untraced spread (interquartile range of {OVERHEAD_REPEATS}): "
        f"{noise_s:.4f} s; "
        "overheads compare medians and are not clamped",
        f"in-run emission cost: {per_record_us:.2f} us/record"
        f"{noise_note(jsonl)} "
        f"({emitted / max(1, len(synthetic_workload())):.1f} records/transfer "
        "on this worst-case micro-scenario)",
        "in-run overhead is the instrumentation perturbation (the paper's "
        "~0.7% MPE figure, §VI.D);",
        "write-out is the buffered JSONL serialisation at close, off the "
        "simulated clock like MPE's finalize dump.",
    ]
    record = {
        "benchmark": "bench_scale_engine/tracing_overhead",
        "num_hosts": NUM_HOSTS,
        "transfers": len(synthetic_workload()),
        "trace_records": emitted,
        "trace_bytes": trace_bytes,
        "repeats": OVERHEAD_REPEATS,
        "interleaved": True,
        "untraced_s": round(untraced["median_s"], 4),
        "untraced_min_s": round(untraced["min_s"], 4),
        "untraced_spread_s": round(noise_s, 4),
        "null_sink_s": round(null["median_s"], 4),
        "null_sink_min_s": round(null["min_s"], 4),
        "jsonl_sink_s": round(jsonl["median_s"], 4),
        "jsonl_sink_min_s": round(jsonl["min_s"], 4),
        "jsonl_close_s": round(close_time, 4),
        "null_overhead_pct": round(100 * null_overhead, 2),
        "null_below_noise": null["below_noise"],
        "jsonl_overhead_pct": round(100 * jsonl_overhead, 2),
        "jsonl_below_noise": jsonl["below_noise"],
        "jsonl_us_per_record": round(per_record_us, 3),
    }
    emit("tracing_overhead", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)

    # acceptance: the JSONL sink's in-run perturbation stays around the
    # ~10% mark on this scenario.  The scenario is a deliberately brutal
    # denominator — ~7.5 records per transfer over a provider PRs 1-4
    # memoized down to ~20 ms of total work, so every microsecond of
    # record construction (the tracked `jsonl_us_per_record`, ~1 us) is
    # ~15 records/ms of visible overhead; real application runs (computes,
    # matching, un-memoized pricing) amortize the same cost well below the
    # paper's 0.7 % analogy.  The assert is a generous regression bound
    # (35%) following this file's convention of recording wall-clock but
    # asserting only what a loaded CI runner cannot invert.
    assert jsonl_overhead <= 0.35, record


# ------------------------------------------------------------- scale ladder
LADDER_RUNGS = [256, 1024, 4096]
LADDER_ITERATIONS = 2


def _ladder_skip(num_hosts: int) -> None:
    if num_hosts > LADDER_MAX_HOSTS:
        pytest.skip(
            f"ladder rung {num_hosts} > REPRO_LADDER_MAX_HOSTS="
            f"{LADDER_MAX_HOSTS} (set the env var to climb the full ladder)"
        )


def _ladder_budget(elapsed: float, record: dict) -> None:
    if LADDER_BUDGET_S > 0:
        assert elapsed <= LADDER_BUDGET_S, record


@pytest.mark.parametrize("num_hosts", LADDER_RUNGS,
                         ids=lambda n: f"ladder_{n}")
def test_scale_ladder_synthetic(emit, num_hosts):
    """Synthetic fan-in/ring skeleton at 256/1024/4096 hosts."""
    _ladder_skip(num_hosts)
    workload = synthetic_workload(num_hosts=num_hosts, group_size=GROUP_SIZE,
                                  iterations=LADDER_ITERATIONS)
    best = float("inf")
    results = stats = None
    for _ in range(REPEATS):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        simulator = FluidTransferSimulator(provider)
        started = time.perf_counter()
        results = simulator.run(workload)
        best = min(best, time.perf_counter() - started)
        stats = provider.stats.snapshot()
    assert len(results) == len(workload)  # every transfer completed

    per_transfer_us = best / len(workload) * 1e6
    lines = [
        f"scale ladder (synthetic): {num_hosts} hosts, "
        f"{LADDER_ITERATIONS} iterations, {len(workload)} transfers",
        "",
        f"wall clock (best of {REPEATS}): {best:.3f} s "
        f"({per_transfer_us:.1f} us/transfer)",
        f"comm evaluations: {stats['comm_evaluations']}   "
        f"cache hits: {stats['cache_hits']}",
    ]
    record = {
        "benchmark": "bench_scale_engine/scale_ladder",
        "workload": "synthetic",
        "num_hosts": num_hosts,
        "iterations": LADDER_ITERATIONS,
        "transfers": len(workload),
        "repeats": REPEATS,
        "wall_clock_s": round(best, 4),
        "us_per_transfer": round(per_transfer_us, 2),
        **stats,
    }
    emit(f"scale_ladder_{num_hosts}", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)
    _ladder_budget(best, record)


#: the top LINPACK rung may cost at most this many times the 256-rank rung
#: per step (~1.0-1.2 with the ready queue, ~10 with a per-step rank scan)
LINPACK_STEP_RATIO_MAX = 3.0
#: predicted makespan of every LINPACK rung, as float.hex()
LINPACK_MAKESPANS = {
    256: "0x1.91fc07423e962p+6",
    1024: "0x1.79606b66ded56p+12",
    4096: "0x1.733c18e63a513p+18",
}


@pytest.fixture(scope="module")
def linpack_us_per_step():
    """µs/step of the LINPACK rungs run in this session, by rank count."""
    return {}


def linpack_rung(num_ranks: int, metrics=None):
    """The LINPACK rung's simulator, provider and application (see
    :func:`test_scale_ladder_linpack`), metered when ``metrics`` is a
    :class:`~repro.obs.MetricsRegistry`."""
    from repro.cluster import custom_cluster
    from repro.simulator import EngineConfig, Simulator
    from repro.workloads.linpack import generate_linpack

    problem_size = 32 * num_ranks
    app = generate_linpack(problem_size=problem_size, block_size=problem_size // 16,
                           num_tasks=num_ranks)
    cluster = custom_cluster(num_nodes=num_ranks, cores_per_node=1,
                             technology="ethernet")
    provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
    simulator = Simulator(cluster, provider, config=EngineConfig(metrics=metrics))
    return simulator, provider, app


@pytest.mark.parametrize("num_ranks", LADDER_RUNGS,
                         ids=lambda n: f"ladder_linpack_{n}")
def test_scale_ladder_linpack(emit, linpack_us_per_step, num_ranks):
    """LINPACK prediction rung: a real application skeleton at ≥1k ranks.

    Records the engine's steps and the wall clock per step: with the ready
    queue a step costs about the same at every rung, so a per-step scan
    over all ranks returning shows up as µs/step growing with the rung.
    The 4096-rank rung asserts that growth against the 256-rank rung of
    the same session, a ratio that does not depend on the machine's speed
    (not asserted when the 256-rank rung did not run).
    """
    _ladder_skip(num_ranks)
    problem_size = 32 * num_ranks
    simulator, provider, app = linpack_rung(num_ranks)
    started = time.perf_counter()
    report = simulator.run(app, placement="RRN")
    elapsed = time.perf_counter() - started
    assert report.total_time > 0
    steps = simulator.last_engine_stats.steps
    us_per_step = elapsed / max(1, steps) * 1e6
    linpack_us_per_step[num_ranks] = us_per_step
    base_rung = LADDER_RUNGS[0]
    base_us = linpack_us_per_step.get(base_rung)
    step_ratio = us_per_step / base_us if base_us and num_ranks != base_rung else None

    lines = [
        f"scale ladder (LINPACK): {num_ranks} ranks on {num_ranks} hosts, "
        f"N={problem_size}, NB={problem_size // 16}",
        "",
        f"wall clock: {elapsed:.3f} s   predicted makespan: "
        f"{report.total_time:.3f} s ({float(report.total_time).hex()})",
        f"engine steps: {steps}   wall clock per step: {us_per_step:.1f} us",
        f"comm evaluations: {provider.stats.comm_evaluations}   "
        f"cache hits: {provider.stats.cache_hits}",
    ]
    if step_ratio is not None:
        lines.append(f"per-step cost vs the {base_rung}-rank rung: {step_ratio:.2f}x")
    record = {
        "benchmark": "bench_scale_engine/scale_ladder",
        "workload": "linpack",
        "num_hosts": num_ranks,
        "problem_size": problem_size,
        "wall_clock_s": round(elapsed, 4),
        "predicted_makespan_s": round(report.total_time, 4),
        "predicted_makespan_hex": float(report.total_time).hex(),
        "steps": steps,
        "us_per_step": round(us_per_step, 2),
        "us_per_step_ratio": None if step_ratio is None else round(step_ratio, 3),
        **provider.stats.snapshot(),
    }
    emit(f"scale_ladder_linpack_{num_ranks}", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)
    assert record["predicted_makespan_hex"] == LINPACK_MAKESPANS[num_ranks], record
    _ladder_budget(elapsed, record)
    if num_ranks == LADDER_RUNGS[-1] and step_ratio is not None:
        assert step_ratio <= LINPACK_STEP_RATIO_MAX, record


#: emulated rungs; one emulated step costs about ten LINPACK steps, so
#: without REPRO_LADDER_MAX_HOSTS this family stops at 128 hosts
EMULATED_RUNGS = [64, 128, 256]
EMULATED_MAX_HOSTS = int(os.environ.get("REPRO_LADDER_MAX_HOSTS", "128"))
#: predicted makespan of every emulated rung, as float.hex()
EMULATED_MAKESPANS = {
    64: "0x1.78672a1e21959p+3",
    128: "0x1.7d485b9c7e2cap+4",
    256: "0x1.872aabe60c743p+5",
}


def emulated_rung(num_hosts: int):
    """The emulated rung's simulator and application (see
    :func:`test_scale_ladder_emulated`)."""
    from repro.cluster import custom_cluster
    from repro.network.topology import FatTreeTopology
    from repro.simulator import (Application, BackgroundTrafficInjector,
                                 EmulatorRateProvider, EngineConfig, Simulator)
    from repro.units import MiB
    from repro.workloads import pairwise_exchange_alltoall

    scale = num_hosts / 64
    app = pairwise_exchange_alltoall(
        Application(num_tasks=num_hosts, name=f"alltoall-{num_hosts}"), 4 * MiB)
    cluster = custom_cluster(num_nodes=num_hosts, cores_per_node=1,
                             technology="ethernet")
    technology = cluster.technology
    topology = FatTreeTopology(num_hosts=num_hosts, technology=technology,
                               hosts_per_edge=8, uplinks_per_edge=2)
    background = BackgroundTrafficInjector(
        rate=2000.0 * scale, size=4 * MiB, seed=0, max_flows=round(300 * scale),
        size_jitter=0.5)
    provider = EmulatorRateProvider(technology, topology)
    simulator = Simulator(cluster, provider, technology=technology,
                          config=EngineConfig(injectors=(background,)))
    return simulator, app


@pytest.mark.parametrize("num_hosts", EMULATED_RUNGS,
                         ids=lambda n: f"ladder_emulated_{n}")
def test_scale_ladder_emulated(emit, monkeypatch, num_hosts):
    """Emulated rung: the loaded all-to-all of ``emulator_fattree_loaded``
    scaled with the host count n.

    A 4:1 fat tree (8 hosts per edge, 2 uplinks), Poisson background load
    of 2000·n/64 flows/s with at most 300·n/64 in flight, and a provider
    without warm starts, so every flush water-fills the whole active set.
    Steps grow 4x per doubling (the all-to-all is O(n²)); µs/step grows
    with the flows per solve.
    """
    if num_hosts > EMULATED_MAX_HOSTS:
        pytest.skip(f"emulated rung {num_hosts} > REPRO_LADDER_MAX_HOSTS="
                    f"{EMULATED_MAX_HOSTS} (set the env var to climb further)")
    from repro.network import allocator

    scale = num_hosts / 64
    simulator, app = emulated_rung(num_hosts)
    # count the flows of every solve through the name the allocator calls
    solved = []
    solve = allocator.water_fill_arrays

    def counted(caps, *args, **kwargs):
        solved.append(len(caps))
        return solve(caps, *args, **kwargs)

    monkeypatch.setattr(allocator, "water_fill_arrays", counted)
    started = time.perf_counter()
    report = simulator.run(app, placement="random", seed=0)
    elapsed = time.perf_counter() - started
    assert report.total_time > 0
    steps = simulator.last_engine_stats.steps
    us_per_step = elapsed / max(1, steps) * 1e6
    flows_per_solve = sum(solved) / max(1, len(solved))

    lines = [
        f"scale ladder (emulated): all-to-all of 4 MiB on {num_hosts} hosts, "
        f"4:1 fat tree, background {2000.0 * scale:.0f} flows/s "
        f"(<= {round(300 * scale)} in flight)",
        "",
        f"wall clock: {elapsed:.3f} s   predicted makespan: "
        f"{report.total_time:.3f} s ({float(report.total_time).hex()})",
        f"engine steps: {steps}   wall clock per step: {us_per_step:.1f} us",
        f"solves: {len(solved)}   flows per solve: {flows_per_solve:.1f} "
        f"(max {max(solved, default=0)})",
    ]
    record = {
        "benchmark": "bench_scale_engine/scale_ladder",
        "workload": "emulated",
        "num_hosts": num_hosts,
        "wall_clock_s": round(elapsed, 4),
        "predicted_makespan_s": round(report.total_time, 4),
        "predicted_makespan_hex": float(report.total_time).hex(),
        "steps": steps,
        "us_per_step": round(us_per_step, 2),
        "solves": len(solved),
        "flows_per_solve": round(flows_per_solve, 2),
        "max_flows_per_solve": max(solved, default=0),
    }
    emit(f"scale_ladder_emulated_{num_hosts}", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)
    assert record["predicted_makespan_hex"] == EMULATED_MAKESPANS[num_hosts], record
    _ladder_budget(elapsed, record)


def test_scale_ladder_campaign(emit):
    """Campaign rung: a small parameter sweep at the 256-host rung."""
    _ladder_skip(256)
    from repro.campaign import CampaignRunner, CampaignSpec

    spec = CampaignSpec.from_dict({
        "name": "ladder-campaign",
        "workloads": [
            {"kind": "synthetic", "name": "random-tree", "params": {"size": "4M"}},
            {"kind": "collective", "name": "broadcast", "params": {"size": "1M"}},
        ],
        "networks": ["ethernet"],
        "models": ["auto"],
        "host_counts": [256],
        "placements": ["RRP"],
        "seeds": [0],
    })
    runner = CampaignRunner(spec, max_workers=1)
    started = time.perf_counter()
    store = runner.run()
    elapsed = time.perf_counter() - started
    assert len(store) >= 2

    lines = [
        f"scale ladder (campaign): {len(store)} scenarios at 256 hosts",
        "",
        f"wall clock: {elapsed:.3f} s",
    ]
    record = {
        "benchmark": "bench_scale_engine/scale_ladder",
        "workload": "campaign",
        "num_hosts": 256,
        "scenarios": len(store),
        "wall_clock_s": round(elapsed, 4),
    }
    emit("scale_ladder_campaign", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)
    _ladder_budget(elapsed, record)


# ------------------------------------------------------------ water-filling
def _water_filling_instance(num_hosts: int, num_flows: int):
    """Random tx/rx flows at the single-stream cap, their solver input and
    the reference's capacity map (built before any timing starts)."""
    import random

    from repro.network.sharing import FlowSpec

    rng = random.Random(0)
    flows = []
    for index in range(num_flows):
        src = rng.randrange(num_hosts)
        dst = rng.randrange(num_hosts)
        while dst == src:
            dst = rng.randrange(num_hosts)
        flows.append(FlowSpec(f"f{index}", (("tx", src), ("rx", dst)),
                              cap=9.6e7))
    capacities = {}
    for host in range(num_hosts):
        capacities[("tx", host)] = 1.19e8
        capacities[("rx", host)] = 1.19e8
    resource_flows = {}
    for flow in flows:
        for resource in flow.resources:
            resource_flows.setdefault(resource, set()).add(flow.flow_id)
    solver_input = (
        {flow.flow_id: flow.cap for flow in flows},
        {flow.flow_id: flow.resources for flow in flows},
        resource_flows,
        {resource: capacities[resource] for resource in resource_flows},
    )
    return flows, capacities, solver_input


def recorded_rung_solves(monkeypatch, num_hosts: int):
    """The whole-set solves of an emulated rung: per solve, its caps, slot
    tuples and binding capacities, and the flows and slots the provider
    reported changed since the whole-set solve before it."""
    from repro.network import allocator

    solves = []
    solve = allocator.water_fill_arrays

    def record(caps, flow_resources, resource_flows, capacities, log=None):
        if log is not None:
            solves.append((dict(caps), dict(flow_resources), dict(capacities),
                           tuple(log.changed_flows), tuple(log.changed_resources)))
        return solve(caps, flow_resources, resource_flows, capacities, log)

    with monkeypatch.context() as patched:
        patched.setattr(allocator, "water_fill_arrays", record)
        simulator, app = emulated_rung(num_hosts)
        simulator.run(app, placement="random", seed=0)
    return solves


def replay_solves(solves, batch: int = 500):
    """Run each recorded solve from round 0 and, right after, resumed from
    a round log fed the recorded changes, asserting bit-identical rates.

    Returns the mean seconds per solve of both and the mean round the
    resumed solves started from and ended with.  The flows on each slot
    are rebuilt ``batch`` solves at a time, outside the timed calls.
    """
    from repro.network.sharing import FillLog, water_fill_arrays

    log = FillLog()
    cold_s = resumed_s = 0.0
    resume_rounds = rounds = 0
    clock = time.perf_counter
    for begin in range(0, len(solves), batch):
        prepared = []
        for caps, flow_resources, capacities, flows, slots in solves[begin:begin + batch]:
            resource_flows = {}
            for flow, resources in flow_resources.items():
                for resource in resources:
                    resource_flows.setdefault(resource, set()).add(flow)
            prepared.append((caps, flow_resources, resource_flows, capacities, flows, slots))
        for caps, flow_resources, resource_flows, capacities, flows, slots in prepared:
            started = clock()
            cold = water_fill_arrays(caps, flow_resources, resource_flows, capacities)
            cold_s += clock() - started
            log.changed_flows.update(dict.fromkeys(flows))
            log.changed_resources.update(dict.fromkeys(slots))
            started = clock()
            resumed = water_fill_arrays(caps, flow_resources, resource_flows, capacities, log)
            resumed_s += clock() - started
            assert ({flow: rate.hex() for flow, rate in resumed.items()}
                    == {flow: rate.hex() for flow, rate in cold.items()})
            resume_rounds += log.resume_round
            rounds += len(log.frozen)
    count = max(1, len(solves))
    return cold_s / count, resumed_s / count, resume_rounds / count, rounds / count


def test_water_filling_microbench(emit, monkeypatch):
    """Emulator solver vs the reference loop at ~40 and 4096 flows, and the
    64-host emulated rung's solves from round 0 vs resumed."""
    from repro.network.sharing import water_fill_arrays, weighted_max_min_allocation

    rows = []
    for num_hosts, num_flows, calls in ((16, 40, 200), (1024, 4096, 1)):
        flows, capacities, solver_input = _water_filling_instance(num_hosts, num_flows)
        runners = {
            "reference": lambda: weighted_max_min_allocation(flows, capacities),
            "solver": lambda: water_fill_arrays(*solver_input),
        }
        timings = {}
        rates = {}
        for name, runner in runners.items():
            best = float("inf")
            for _ in range(REPEATS):
                started = time.perf_counter()
                for _ in range(calls):
                    rates[name] = runner()
                best = min(best, (time.perf_counter() - started) / calls)
            timings[name] = best
        # bit-exactness is the contract, not a tolerance
        assert rates["solver"] == rates["reference"]
        speedup = (timings["reference"] / timings["solver"]
                   if timings["solver"] > 0 else float("inf"))
        rows.append({
            "flows": num_flows,
            "num_hosts": num_hosts,
            "calls": calls,
            "reference_s": round(timings["reference"], 6),
            "solver_s": round(timings["solver"], 6),
            "speedup": round(speedup, 2),
        })

    lines = [
        "water-filling: unit-weight solver vs reference loop, per call "
        "(best of repeats)",
        "",
        f"{'flows':>6s}{'resources':>11s}{'reference':>14s}{'solver':>14s}"
        f"{'speedup':>9s}",
    ]
    for row in rows:
        lines.append(
            f"{row['flows']:>6d}{2 * row['num_hosts']:>11d}"
            f"{row['reference_s'] * 1e3:>11.3f} ms{row['solver_s'] * 1e3:>11.3f} ms"
            f"{row['speedup']:>8.1f}x"
        )
    lines += ["", "rates bit-identical at both sizes"]

    solves = recorded_rung_solves(monkeypatch, 64)
    cold_s, resumed_s, resume_round, rounds = replay_solves(solves)
    replay = {
        "num_hosts": 64,
        "solves": len(solves),
        "flows_per_solve": round(sum(len(s[0]) for s in solves) / max(1, len(solves)), 2),
        "cold_us": round(cold_s * 1e6, 2),
        "resumed_us": round(resumed_s * 1e6, 2),
        "speedup": round(cold_s / resumed_s, 2) if resumed_s > 0 else None,
        "mean_resume_round": round(resume_round, 3),
        "mean_rounds": round(rounds, 3),
    }
    lines += [
        "",
        f"replay of the 64-host emulated rung: {replay['solves']} whole-set solves, "
        f"{replay['flows_per_solve']:.1f} flows each",
        f"  from round 0: {replay['cold_us']:8.1f} us/solve",
        f"  resumed:      {replay['resumed_us']:8.1f} us/solve ({replay['speedup']:.2f}x), "
        f"from round {resume_round:.2f} of {rounds:.2f} on average (0-based)",
        "rates bit-identical on every solve",
    ]
    record = {
        "benchmark": "bench_scale_engine/water_filling",
        "repeats": REPEATS,
        "sizes": rows,
        "replay": replay,
    }
    emit("water_filling", "\n".join(lines), record=record, bench_json=BENCH_JSON)
    # generous regression bound: the solver must stay clearly ahead of the
    # reference at 4096 flows (observed ~9x on a 2-vCPU VM; a loaded runner
    # cannot close that gap)
    assert rows[-1]["speedup"] >= 3.0, record


# --------------------------------------------------------- metrics overhead
#: the metrics-overhead section meters the LINPACK rung of this many ranks
OVERHEAD_RANKS = LADDER_RUNGS[0]


def metered_once(metered: bool):
    """One run of the LINPACK rung with or without a registry.

    A fresh :class:`~repro.obs.MetricsRegistry` per run (timer moments are
    per-run); the outcome is the predicted makespan as ``float.hex()`` and
    the registry snapshot — its counter values are deterministic, only the
    timer durations jitter.
    """
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry() if metered else None
    simulator, _, app = linpack_rung(OVERHEAD_RANKS, metrics=metrics)
    started = time.perf_counter()
    report = simulator.run(app, placement="RRN")
    elapsed = time.perf_counter() - started
    return elapsed, (float(report.total_time).hex(),
                     metrics.snapshot() if metrics is not None else None)


def test_metrics_overhead(emit):
    """Metrics-overhead section: the unified registry on the engine loop.

    With a registry attached the engine times its ready processing and
    timeline drains and the calendar every flush (two ``perf_counter``
    calls each), and the stats surfaces are registered as lazy sources
    (zero per-event cost).  The prediction must stay bit-identical: every
    run, metered or not, predicts the LINPACK rung's pinned makespan.  The
    recorded quantity is the relative wall-clock overhead of metering that
    rung, whose run is long enough for the overhead to stand out of the
    spread of its repeats on a quiet host, measured like the tracing
    overhead: interleaved modes, medians, below-noise flags.
    """
    times, outcomes = interleave({
        "none": lambda: metered_once(False),
        "attached": lambda: metered_once(True),
    })
    snapshot = outcomes["attached"][-1][1]

    # observability, not physics: the pinned prediction, with and without
    pinned = LINPACK_MAKESPANS[OVERHEAD_RANKS]
    assert all(outcome[0] == pinned for mode in outcomes.values() for outcome in mode)
    # the registry actually observed the run it did not perturb
    assert snapshot["calendar.flushes"] > 0
    assert snapshot["calendar.flush_s.count"] > 0

    base = times["none"]
    noise_s = spread(base)
    unmetered = overhead_row(base, base, noise_s)
    metered = overhead_row(times["attached"], base, noise_s)
    overhead = metered["overhead"]
    steps = int(snapshot["engine.steps"])
    per_step_us = metered["delta_s"] / max(1, steps) * 1e6

    lines = [
        f"metrics overhead: LINPACK rung, {OVERHEAD_RANKS} ranks, {steps} engine "
        f"steps; {OVERHEAD_REPEATS} interleaved rounds",
        "",
        f"{'registry':<14s}{'min':>10s}{'median':>10s}{'overhead':>10s}",
        f"{'none':<14s}{unmetered['min_s']:>8.4f} s{unmetered['median_s']:>8.4f} s"
        f"{'-':>10s}",
        f"{'attached':<14s}{metered['min_s']:>8.4f} s{metered['median_s']:>8.4f} s"
        f"{overhead:>9.1%}{noise_note(metered)}",
        "",
        f"unmetered spread (interquartile range of {OVERHEAD_REPEATS}): "
        f"{noise_s:.4f} s; "
        "overheads compare medians and are not clamped",
        f"metering cost: {per_step_us:.2f} us/step{noise_note(metered)} "
        f"(flush time recorded: {snapshot['calendar.flush_s.total']:.4f} s)",
    ]
    record = {
        "benchmark": "bench_scale_engine/metrics_overhead",
        "workload": "linpack",
        "num_hosts": OVERHEAD_RANKS,
        "steps": steps,
        "predicted_makespan_hex": pinned,
        "repeats": OVERHEAD_REPEATS,
        "interleaved": True,
        "unmetered_s": round(unmetered["median_s"], 4),
        "unmetered_min_s": round(unmetered["min_s"], 4),
        "unmetered_spread_s": round(noise_s, 4),
        "metered_s": round(metered["median_s"], 4),
        "metered_min_s": round(metered["min_s"], 4),
        "metrics_overhead_pct": round(100 * overhead, 2),
        "metrics_below_noise": metered["below_noise"],
        "us_per_step": round(per_step_us, 3),
        "flush_s_total": round(snapshot["calendar.flush_s.total"], 5),
    }
    emit("metrics_overhead", "\n".join(lines), record=record,
         bench_json=BENCH_JSON)

    # acceptance: following this file's convention, bit-exactness and the
    # deterministic counters are asserted; the wall-clock overhead is
    # recorded with a generous regression bound a loaded runner cannot
    # invert.
    assert overhead <= 0.35, record
