"""Command line interface: ``python -m repro <command>``.

Gives shell access to the three everyday operations of the library:

* ``predict`` — predict the penalties of a scheme (file or inline text) with a
  contention model;
* ``measure`` — measure a scheme on the calibrated cluster emulator (the
  paper's penalty tool);
* ``calibrate`` — run the §V.A calibration protocol against an emulated card
  and print the estimated (β, γo, γi);
* ``campaign`` — expand a declarative JSON campaign spec (sweeps over
  workloads × networks × models × host counts × placements, see
  :mod:`repro.campaign.spec`) and execute every scenario inline or, with
  ``--workers N``, on N worker processes, pricing through one — optionally
  disk-persistent — penalty cache; scenarios that fail are listed, the
  others written out, and the command exits 1;
* ``trace`` — the structured-trace pipeline (:mod:`repro.trace`):
  ``trace record`` runs one workload and writes its per-event JSONL trace,
  ``trace summarize`` prints the timeline report of a trace file (``--json``
  for the machine-readable twin of the same report), ``trace tail``
  follows a live (still growing) trace with the streaming reader,
  ``trace diff`` locates the first diverging record of two traces that
  should be identical, and ``trace replay`` re-imposes a recorded
  interference schedule on the recorded workload through
  :class:`repro.trace.TraceReplayInjector` and checks the replay
  reproduces the recorded run.

Examples::

    python -m repro predict --model myrinet --scheme "0->1 0->2 0->3"
    python -m repro measure --network ethernet --scheme-file conflict.scm
    python -m repro calibrate --network ethernet
    python -m repro campaign --spec sweep.json --workers 2 --cache penalties.json
    python -m repro simulate --workload broadcast --hosts 8 --bg-rate 200 \\
        --bg-size 4M --degrade-factor 0.5 --degrade-until 0.2
    python -m repro trace record --workload ring-allgather --hosts 4 \\
        --bg-rate 100 --bg-max-flows 8 --out run.jsonl
    python -m repro trace summarize run.jsonl
    python -m repro trace replay run.jsonl

``simulate`` runs one application workload through the predictive (or
emulated) simulator, optionally on a *loaded* fabric: background traffic,
link degradation and node slowdown injectors
(:mod:`repro.simulator.interference`) are configured from flags and the
loaded run is reported next to its clean twin with the foreground slowdown;
``--trace`` additionally writes the loaded (or clean) run's structured
trace.  The ``campaign`` spec's ``interference`` axis does the same sweep
declaratively; ``campaign --trace-dir`` writes one trace file per
application scenario and prints a trace-summary table.  ``simulate``,
``trace record`` and ``trace replay`` fold their flags (or the trace's
``run.meta`` header) into a :class:`~repro.campaign.spec.ScenarioSpec` and
run it through :func:`repro.campaign.runner.run_scenario`, the function
every campaign scenario runs through.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .exceptions import ReproError
from .units import MB, parse_size

if TYPE_CHECKING:
    from .campaign.results import CampaignResultStore
    from .campaign.runner import CampaignRunner
    from .campaign.spec import InterferenceSpec, ScenarioSpec
    from .core.graph import CommunicationGraph

__all__ = ["main", "build_parser"]

# Every command imports what it runs, so that building the parser (and
# ``--help``) loads neither the simulator nor numpy.


def _load_scheme(args: argparse.Namespace) -> CommunicationGraph:
    from .scheme.language import parse_scheme

    if args.scheme_file:
        text = Path(args.scheme_file).read_text(encoding="utf-8")
    elif args.scheme:
        # inline form: whitespace separated "src->dst" tokens
        text = "\n".join(token for token in args.scheme.replace(",", " ").split())
    else:
        raise ReproError("provide --scheme or --scheme-file")
    size = parse_size(args.size) if args.size else 20 * MB
    return parse_scheme(text, default_size=size)


def cmd_predict(args: argparse.Namespace) -> int:
    from .analysis.tables import render_table
    from .core.penalty import LinearCostModel
    from .core.registry import resolve_model
    from .network.technologies import get_technology

    graph = _load_scheme(args)
    model = resolve_model(args.model, args.network)
    prediction = model.predict(
        graph, LinearCostModel.for_technology(get_technology(args.network)))
    rows = [
        [name, prediction.penalties[name], prediction.times.get(name, float("nan"))]
        for name in graph.names
    ]
    print(render_table(["com.", "penalty", "predicted T [s]"], rows,
                       title=f"{model.name} predictions on {args.network}",
                       float_format="{:.4f}"))
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    from .benchmark.penalty_tool import PenaltyTool

    graph = _load_scheme(args)
    tool = PenaltyTool(args.network, iterations=args.iterations, num_hosts=args.hosts)
    measurement = tool.measure(graph)
    print(measurement.table())
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from .analysis.tables import render_table
    from .campaign.runner import CampaignRunner
    from .campaign.spec import CampaignSpec

    spec = CampaignSpec.from_json(args.spec)
    cache = None
    if args.cache:
        from .campaign.persistence import PersistentPenaltyCache

        cache = PersistentPenaltyCache.load(args.cache)
        if cache.load_error:
            print(f"warning: starting with an empty cache ({cache.load_error})",
                  file=sys.stderr)
        elif cache.loaded_entries:
            print(f"penalty cache: {cache.loaded_entries} entries from {args.cache}")
    trace_dir = args.trace_dir
    metrics_every = args.metrics_every
    if args.progress:
        # progress is read off the per-scenario traces: make sure they exist
        if trace_dir is None and spec.trace_dir is None:
            import tempfile

            trace_dir = tempfile.mkdtemp(prefix="repro-campaign-")
            print(f"progress: tracing scenarios into {trace_dir}")
        if metrics_every == 0:
            metrics_every = 64  # light per-scenario metrics rollup
    runner = CampaignRunner(spec, cache=cache, max_workers=args.workers,
                            trace_dir=trace_dir, metrics_every=metrics_every)
    if args.progress:
        store = _run_with_progress(runner, interval=args.progress_interval)
    else:
        store = runner.run()
    print(store.summary_table())
    if any(r.axes.get("interference") not in (None, "none") for r in store):
        from .analysis.interference import interference_slowdown_table
        from .analysis.placement import placement_robustness, placement_robustness_table

        print()
        print(interference_slowdown_table(store))
        robustness_rows = placement_robustness(store)
        if robustness_rows:
            print()
            print(placement_robustness_table(store, rows=robustness_rows))
    if runner.trace_dir is not None:
        print()
        print(_campaign_trace_table(runner, store))
    if store.failures:
        print()
        print(render_table(
            ["scenario", "error"],
            [[failure["axes"]["scenario_id"], failure["error"]]
             for failure in store.failures],
            title=(f"{len(store.failures)} of "
                   f"{len(store) + len(store.failures)} scenarios failed"),
        ))
    stats = store.stats
    print(
        f"\n{len(store)} scenarios | model evaluations: "
        f"{stats['comm_evaluations']} (components: {stats['component_evaluations']}) | "
        f"cache hits: {stats['cache_hits']}  misses: {stats['cache_misses']}"
    )
    if args.cache:
        cache_stats = cache.stats()
        print(
            "persistent cache: "
            f"entries: {cache_stats['entries']} "
            f"(loaded: {cache_stats['loaded_entries']}) | "
            f"lookups: {cache_stats['lookups']}  hits: {cache_stats['hits']} "
            f"(rate: {cache_stats['hit_rate']:.3f}) | "
            f"evictions: {cache_stats['evictions']}  "
            f"never hit: {cache_stats['entries_never_hit']}"
        )
        saved = cache.save(args.cache)
        print(f"penalty cache: {saved} entries saved to {args.cache}")
    if args.out:
        store.to_json(args.out)
        print(f"results written to {args.out}")
    if args.csv:
        store.to_csv(args.csv)
        print(f"CSV rows written to {args.csv}")
    return 1 if store.failures else 0


def _run_with_progress(runner: CampaignRunner, interval: float):
    """Run a campaign while tailing its per-scenario traces.

    The campaign runs on a worker thread; the calling thread polls the
    streaming readers and prints one ``progress:`` line per interval (plus
    a final one when the campaign ends).  Purely observational — the
    watcher only reads the trace files the scenarios are writing.
    """
    import threading

    from .campaign.progress import CampaignProgress

    progress = CampaignProgress(runner.trace_paths())
    outcome = {}

    def work() -> None:
        try:
            outcome["store"] = runner.run()
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            outcome["error"] = exc

    worker = threading.Thread(target=work, name="campaign", daemon=True)
    worker.start()
    interval = max(0.05, float(interval))
    while worker.is_alive():
        worker.join(timeout=interval)
        progress.poll()
        print(progress.format_line(), flush=True)
    progress.poll()
    print(progress.format_line(), flush=True)
    if "error" in outcome:
        raise outcome["error"]
    return outcome["store"]


def _campaign_trace_table(runner: CampaignRunner, store: CampaignResultStore) -> str:
    """Per-scenario trace summary of a traced campaign run; the trace of a
    failed scenario stops where it failed and is marked so."""
    from .analysis.tables import render_table
    from .analysis.timeline import timeline_summary
    from .trace.sinks import read_trace_log

    failed = {failure["axes"]["scenario_id"] for failure in store.failures}
    rows = []
    for path in runner.trace_paths():
        if not path.exists():
            continue
        summary = timeline_summary(read_trace_log(path))
        rows.append([
            path.stem + (" (failed)" if path.stem in failed else ""),
            summary["records"], summary["steps"],
            summary["activations"], summary["completions"],
            summary["retimings"], summary["background_flows"],
            summary["peak_active_transfers"], summary["duration"],
        ])
    return render_table(
        ["scenario", "records", "steps", "act", "done", "retime",
         "bg flows", "peak", "span [s]"],
        rows,
        title=(f"trace summary: {len(rows)} scenario traces in "
               f"{runner.trace_dir}"),
        float_format="{:.4f}",
    )


def _interference_from_args(args: argparse.Namespace) -> InterferenceSpec:
    """Fold the ``simulate`` injector flags into an InterferenceSpec."""
    from .campaign.spec import InterferenceSpec

    background = {}
    if args.bg_rate > 0:
        background = {
            "rate": args.bg_rate,
            "size": parse_size(args.bg_size) if args.bg_size else 4 * MB,
            "seed": args.bg_seed,
        }
        if args.bg_max_flows is not None:
            background["max_flows"] = args.bg_max_flows
        if args.bg_until is not None:
            background["until"] = args.bg_until
    degradation = {}
    if args.degrade_factor != 1.0:
        degradation = {"factor": args.degrade_factor, "start": args.degrade_start}
        if args.degrade_until is not None:
            degradation["until"] = args.degrade_until
        if args.degrade_hosts:
            degradation["hosts"] = [int(h) for h in args.degrade_hosts.split(",")]
    slowdown = {}
    if args.slowdown_factor != 1.0:
        slowdown = {"factor": args.slowdown_factor, "start": args.slowdown_start}
        if args.slowdown_until is not None:
            slowdown["until"] = args.slowdown_until
        if args.slowdown_hosts:
            slowdown["hosts"] = [int(h) for h in args.slowdown_hosts.split(",")]
    spec = {"name": "loaded"}
    if background:
        spec["background"] = background
    if degradation:
        spec["link_degradation"] = degradation
    if slowdown:
        spec["node_slowdown"] = slowdown
    if len(spec) == 1:
        return InterferenceSpec()  # clean
    return InterferenceSpec.from_dict(spec)


def _scenario_from_args(args: argparse.Namespace,
                        scenario_id: str) -> ScenarioSpec:
    """Fold the shared workload flags into one :class:`ScenarioSpec`."""
    from .campaign.spec import COLLECTIVE_PATTERNS, ScenarioSpec, WorkloadSpec

    kind = "linpack" if args.workload == "linpack" else "collective"
    if kind == "collective" and args.workload not in COLLECTIVE_PATTERNS:
        raise ReproError(
            f"unknown workload {args.workload!r}; known: "
            f"{', '.join(COLLECTIVE_PATTERNS + ('linpack',))}"
        )
    params = {"num_tasks": args.tasks or args.hosts}
    if kind == "linpack":
        params["problem_size"] = args.problem_size
        params["block_size"] = args.block_size
    else:
        params["size"] = parse_size(args.size) if args.size else 1 * MB
    workload = WorkloadSpec(kind=kind, name=args.workload,
                            params=tuple(sorted(params.items())))
    return ScenarioSpec(
        scenario_id=scenario_id,
        workload=workload, network=args.network, model="auto",
        num_hosts=args.hosts, placement=args.placement, seed=args.seed,
        interference=_interference_from_args(args),
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    from .analysis.tables import render_table
    from .campaign.runner import run_scenario

    scenario = _scenario_from_args(args, f"simulate-{args.workload}")
    injectors = scenario.build_injectors()
    sink = None
    if args.trace:
        from .trace.sinks import JsonlTraceSink

        sink = JsonlTraceSink(args.trace)
    try:
        # with --trace, the traced run is the loaded one (the clean twin
        # stays untraced); on a clean-only invocation the clean run is traced
        clean_report, _ = run_scenario(scenario, args.cores_per_node, mode=args.mode,
                                       injectors=(),
                                       trace=None if injectors else sink)
        rows = [["clean", clean_report.total_time,
                 clean_report.average_penalty, 0, 0]]
        if injectors:
            loaded_report, simulator = run_scenario(
                scenario, args.cores_per_node, mode=args.mode,
                injectors=injectors, trace=sink)
            stats = simulator.last_engine_stats
            rows.append(["loaded", loaded_report.total_time,
                         loaded_report.average_penalty,
                         stats.background_flows, stats.injected_events])
    finally:
        if sink is not None:
            sink.close()
    print(render_table(
        ["fabric", "total T [s]", "mean penalty", "bg flows", "events"],
        rows,
        title=(f"{clean_report.application_name}: {clean_report.num_tasks} tasks on "
               f"{args.hosts}x {args.network} ({args.mode}, {args.placement})"),
        float_format="{:.4f}",
    ))
    if injectors:
        for injector in injectors:
            print(f"injector: {injector.describe()}")
        if clean_report.total_time > 0:
            slowdown = loaded_report.total_time / clean_report.total_time
            print(f"foreground slowdown: {slowdown:.3f}x")
    if sink is not None:
        print(f"trace: {sink.emitted} records written to {args.trace}")
    return 0


def cmd_trace_record(args: argparse.Namespace) -> int:
    """``repro trace record``: run one workload, write its JSONL trace."""
    from .analysis.tables import render_table
    from .campaign.runner import run_scenario
    from .trace.sinks import JsonlTraceSink

    scenario = _scenario_from_args(args, f"trace-{args.workload}")
    with JsonlTraceSink(args.out) as sink:
        report, simulator = run_scenario(scenario, args.cores_per_node,
                                         mode=args.mode, trace=sink)
        emitted = sink.emitted
    print(render_table(
        ["workload", "tasks", "fabric", "total T [s]", "records"],
        [[report.application_name, report.num_tasks,
          "loaded" if simulator.config.injectors else "clean",
          report.total_time, emitted]],
        title=f"trace recorded to {args.out}",
        float_format="{:.4f}",
    ))
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    """``repro trace summarize``: timeline report of a trace file.

    Text and ``--json`` render the *same* in-memory
    :func:`~repro.analysis.timeline_record` bundle, so the two views cannot
    drift apart.
    """
    import json

    from .analysis.timeline import timeline_record, timeline_summary_table
    from .trace.sinks import read_trace_log

    log = read_trace_log(args.trace_file)
    record = timeline_record(log, bins=args.bins)
    if args.as_json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(timeline_summary_table(record=record,
                                     title=f"trace timeline: {args.trace_file}"))
    return 0


def cmd_trace_tail(args: argparse.Namespace) -> int:
    """``repro trace tail``: follow a live trace with the streaming reader.

    Polls the file every ``--interval`` seconds, feeding each batch into a
    :class:`~repro.analysis.StreamingTimeline`; exits once the file has
    been quiet for ``--timeout`` seconds (or after one poll with
    ``--once``), then prints the timeline report of everything seen — the
    same report ``trace summarize`` prints on the finished file.
    """
    import time

    from .analysis.timeline import StreamingTimeline, timeline_summary_table
    from .trace.stream import StreamingTraceReader

    reader = StreamingTraceReader(args.trace_file)
    timeline = StreamingTimeline()
    interval = max(0.05, float(args.interval))
    quiet = 0.0
    while True:
        absorbed = timeline.feed(reader.poll())
        if absorbed:
            quiet = 0.0
            summary = timeline.summary()
            print(
                f"tail: +{absorbed} records ({summary['records']} total) | "
                f"steps: {summary['steps']} | "
                f"completions: {summary['completions']} | "
                f"peak active: {summary['peak_active_transfers']}",
                flush=True,
            )
        if args.once:
            break
        if not absorbed:
            quiet += interval
            if quiet >= args.timeout:
                break
            time.sleep(interval)
    print()
    print(timeline_summary_table(record=timeline.record(bins=args.bins),
                                 title=f"trace tail: {args.trace_file}"))
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    """``repro trace diff``: locate the first diverging record of two traces.

    Exit code 0 when the traces are identical, 1 when they diverge (the
    report names the diverging record, its JSONL line and the differing
    fields, with aligned context) — usable straight from CI.
    """
    from .trace.diff import diff_trace_files, format_trace_diff

    diff = diff_trace_files(args.trace_a, args.trace_b, context=args.context)
    print(format_trace_diff(diff, label_a=args.trace_a, label_b=args.trace_b))
    return 0 if diff.identical else 1


def cmd_trace_replay(args: argparse.Namespace) -> int:
    """``repro trace replay``: re-impose a recorded interference schedule.

    The workload/cluster flags come from the trace's ``run.meta`` record
    (any explicitly passed flag overrides it); the injector schedule is the
    trace's own ``inject.*`` stream, replayed through
    :class:`~repro.trace.TraceReplayInjector`.  Replaying a run's own trace
    reproduces it bit-exactly, so the recorded and replayed makespans must
    agree.
    """
    from .analysis.tables import render_table
    from .campaign.runner import run_scenario
    from .campaign.spec import ScenarioSpec
    from .trace.replay import TraceReplayInjector
    from .trace.sinks import read_trace_log

    log = read_trace_log(args.trace_file)
    meta = log.meta()
    if not meta:
        raise ReproError(
            f"{args.trace_file!r} has no run.meta record; re-record it with "
            "'repro trace record' (or pass a trace written by "
            "'repro simulate --trace')"
        )
    flags = {key: getattr(args, key)
             for key in ("workload", "hosts", "tasks", "size", "problem_size",
                         "block_size", "network", "placement", "seed",
                         "cores_per_node", "mode")
             if getattr(args, key) is not None}
    if "size" in flags:
        flags["size"] = parse_size(flags["size"])
    # a flag that changes a recorded value makes this a cross-scenario
    # replay: no bit-exactness claim
    overridden = any(meta.get(key) != value for key, value in flags.items())
    if "workload" in flags and flags["workload"] != meta.get("workload"):
        # the kind follows the new workload name (`linpack` or a collective)
        meta = {key: value for key, value in meta.items() if key != "kind"}
    meta = {**meta, **flags}
    scenario = ScenarioSpec.from_run_meta(meta)
    replay = TraceReplayInjector.from_log(log)
    report, simulator = run_scenario(
        scenario, int(meta.get("cores_per_node", 2)),
        mode=str(meta.get("mode", "predictive")),
        injectors=(replay,) if replay.events else ())

    recorded_events = log.records_of("task.event")
    recorded_makespan = max((float(r.data.get("end", r.time))
                             for r in recorded_events), default=None)
    rows = [["replayed", report.total_time, len(replay.events),
             simulator.last_engine_stats.background_flows]]
    if recorded_makespan is not None:
        rows.insert(0, ["recorded", recorded_makespan, len(replay.events),
                        sum(1 for r in log if r.kind == "inject.flow_start")])
    print(render_table(
        ["run", "total T [s]", "replayed events", "bg flows"],
        rows,
        title=(f"trace replay of {args.trace_file}: {report.application_name} on "
               f"{scenario.num_hosts}x {scenario.network}"),
        float_format="{:.6f}",
    ))
    if overridden:
        # the recorded schedule was imposed on a *different* scenario —
        # the whole point of cross-workload replay, so no reproduction
        # claim (and no failure exit) applies
        print("scenario overridden by flags: recorded and replayed runs are "
              "not comparable")
    elif recorded_makespan is not None:
        match = abs(recorded_makespan - report.total_time) <= 1e-9 * max(
            1.0, abs(recorded_makespan))
        print(f"replay reproduces the recorded run: {'yes' if match else 'NO'}")
        if not match:
            return 1
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: the repo invariant linter (:mod:`repro.checks`).

    Reached only through the stub subparser (``repro --help`` discovery);
    the real dispatch short-circuits in :func:`main` so the linter owns its
    whole argument vector, ``--help`` included.
    """
    from .checks.cli import main as check_main

    return check_main(list(args.check_args))


def cmd_calibrate(args: argparse.Namespace) -> int:
    from .benchmark.penalty_tool import PenaltyTool
    from .core.calibration import calibrate_from_measurer

    tool = PenaltyTool(args.network, iterations=args.iterations, num_hosts=args.hosts)
    parameters = calibrate_from_measurer(tool.measure_penalties)
    print(f"network  : {args.network}")
    print(f"beta     : {parameters.beta:.4f}")
    print(f"gamma_o  : {parameters.gamma_o:.4f}")
    print(f"gamma_i  : {parameters.gamma_i:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bandwidth-sharing penalty models (Vienne et al., Cluster 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    iterations_help = ("runs the measured times average, as in the paper's tool; "
                       "the emulator is deterministic, so it runs once per scheme")

    def add_scheme_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scheme", help="inline scheme, e.g. '0->1 0->2 0->3'")
        p.add_argument("--scheme-file", help="path to a scheme description file")
        p.add_argument("--size", help="default message size (e.g. 20M, 4MB)", default=None)
        p.add_argument("--network", default="ethernet",
                       help="network technology (ethernet, myrinet, infiniband)")

    predict = sub.add_parser("predict", help="predict penalties with a contention model")
    add_scheme_arguments(predict)
    predict.add_argument("--model", default=None,
                         help="model name or network alias (defaults to the network's model)")
    predict.set_defaults(handler=cmd_predict)

    measure = sub.add_parser("measure", help="measure a scheme on the cluster emulator")
    add_scheme_arguments(measure)
    measure.add_argument("--iterations", type=int, default=3, help=iterations_help)
    measure.add_argument("--hosts", type=int, default=32)
    measure.set_defaults(handler=cmd_measure)

    campaign = sub.add_parser(
        "campaign",
        help="run a scenario campaign from a JSON spec (worker processes, cached)",
    )
    campaign.add_argument("--spec", required=True,
                          help="path to the campaign spec (JSON)")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes; 1 = inline")
    campaign.add_argument("--cache", default=None,
                          help="persistent penalty-cache file (created when missing)")
    campaign.add_argument("--out", default=None,
                          help="write the full results as JSON to this path")
    campaign.add_argument("--csv", default=None,
                          help="write summary rows as CSV to this path")
    campaign.add_argument("--trace-dir", default=None,
                          help="write one JSONL trace per application scenario "
                               "into this directory (overrides the spec's "
                               "trace_dir)")
    campaign.add_argument("--progress", action="store_true",
                          help="print live per-scenario progress (tails the "
                               "scenario traces; enables tracing into a "
                               "temporary directory when --trace-dir is off)")
    campaign.add_argument("--progress-interval", type=float, default=1.0,
                          help="seconds between progress lines (default 1.0)")
    campaign.add_argument("--metrics-every", type=int, default=0,
                          help="emit a metrics.sample trace record every N "
                               "engine steps per scenario (0 = off; the "
                               "samples carry wall-clock timings, so sampled "
                               "traces are not byte-reproducible)")
    campaign.set_defaults(handler=cmd_campaign)

    def add_workload_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", default="broadcast",
                       help="collective pattern (broadcast, ring-allgather, "
                            "flat-gather, alltoall) or 'linpack'")
        p.add_argument("--network", default="ethernet")
        p.add_argument("--hosts", type=int, default=8)
        p.add_argument("--tasks", type=int, default=None,
                       help="MPI tasks (defaults to --hosts)")
        p.add_argument("--size", default=None,
                       help="collective message size (e.g. 1M)")
        p.add_argument("--problem-size", type=int, default=4000)
        p.add_argument("--block-size", type=int, default=200)
        p.add_argument("--placement", default="RRP")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cores-per-node", type=int, default=2)
        p.add_argument("--mode", choices=["predictive", "emulated"],
                       default="predictive")

    def add_injector_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--bg-rate", type=float, default=0.0,
                       help="background flow arrivals per second (0 = off)")
        p.add_argument("--bg-size", default=None,
                       help="background flow size (default 4M)")
        p.add_argument("--bg-seed", type=int, default=0)
        p.add_argument("--bg-max-flows", type=int, default=None)
        p.add_argument("--bg-until", type=float, default=None)
        p.add_argument("--degrade-factor", type=float, default=1.0,
                       help="link capacity multiplier during the window (1 = off)")
        p.add_argument("--degrade-start", type=float, default=0.0)
        p.add_argument("--degrade-until", type=float, default=None)
        p.add_argument("--degrade-hosts", default=None,
                       help="comma-separated host ids (default: all)")
        p.add_argument("--slowdown-factor", type=float, default=1.0,
                       help="compute-rate multiplier during the window (1 = off)")
        p.add_argument("--slowdown-start", type=float, default=0.0)
        p.add_argument("--slowdown-until", type=float, default=None)
        p.add_argument("--slowdown-hosts", default=None,
                       help="comma-separated host ids (default: all)")

    simulate = sub.add_parser(
        "simulate",
        help="simulate one application workload, optionally on a loaded fabric",
    )
    add_workload_arguments(simulate)
    add_injector_arguments(simulate)
    simulate.add_argument("--trace", default=None,
                          help="write the run's structured JSONL trace to this "
                               "path (the loaded run when injectors are on)")
    simulate.set_defaults(handler=cmd_simulate)

    trace = sub.add_parser(
        "trace",
        help="record / summarize / replay structured simulation traces",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser(
        "record", help="run one workload and write its JSONL trace")
    add_workload_arguments(record)
    add_injector_arguments(record)
    record.add_argument("--out", required=True,
                        help="trace output path (JSONL)")
    record.set_defaults(handler=cmd_trace_record)

    summarize = trace_sub.add_parser(
        "summarize", help="print the timeline summary of a trace file")
    summarize.add_argument("trace_file", help="JSONL trace path")
    summarize.add_argument("--bins", type=int, default=10,
                           help="timeline windows (default 10)")
    summarize.add_argument("--json", dest="as_json", action="store_true",
                           help="print the summary + bins as JSON instead of "
                                "the text tables (same underlying record)")
    summarize.set_defaults(handler=cmd_trace_summarize)

    tail = trace_sub.add_parser(
        "tail", help="follow a live (still growing) trace file")
    tail.add_argument("trace_file", help="JSONL trace path (may not exist yet)")
    tail.add_argument("--interval", type=float, default=0.5,
                      help="seconds between polls (default 0.5)")
    tail.add_argument("--timeout", type=float, default=10.0,
                      help="stop after this many quiet seconds (default 10)")
    tail.add_argument("--once", action="store_true",
                      help="poll once and print the report (no following)")
    tail.add_argument("--bins", type=int, default=10,
                      help="timeline windows of the final report (default 10)")
    tail.set_defaults(handler=cmd_trace_tail)

    diff = trace_sub.add_parser(
        "diff", help="locate the first diverging record of two traces")
    diff.add_argument("trace_a", help="left JSONL trace path")
    diff.add_argument("trace_b", help="right JSONL trace path")
    diff.add_argument("--context", type=int, default=3,
                      help="records of aligned context around the divergence "
                           "(default 3)")
    diff.set_defaults(handler=cmd_trace_diff)

    replay = trace_sub.add_parser(
        "replay",
        help="replay a recorded interference schedule through the engine")
    replay.add_argument("trace_file", help="JSONL trace path (needs run.meta)")
    for flag, kwargs in (
        ("--workload", {}), ("--network", {}), ("--hosts", {"type": int}),
        ("--tasks", {"type": int}), ("--size", {}),
        ("--problem-size", {"type": int}), ("--block-size", {"type": int}),
        ("--placement", {}), ("--seed", {"type": int}),
        ("--cores-per-node", {"type": int}),
        ("--mode", {"choices": ["predictive", "emulated"]}),
    ):
        replay.add_argument(flag, default=None,
                            help="override the trace's recorded value", **kwargs)
    # replay imposes the recorded schedule, not freshly built injectors
    replay.set_defaults(handler=cmd_trace_replay, bg_rate=0.0, bg_size=None,
                        bg_seed=0, bg_max_flows=None, bg_until=None,
                        degrade_factor=1.0, degrade_start=0.0,
                        degrade_until=None, degrade_hosts=None,
                        slowdown_factor=1.0, slowdown_start=0.0,
                        slowdown_until=None, slowdown_hosts=None)

    check = sub.add_parser(
        "check",
        help="run the repo invariant linter (RC01-RC06; see repro.checks)",
        add_help=False,
    )
    check.add_argument("check_args", nargs=argparse.REMAINDER)
    check.set_defaults(handler=cmd_check)

    calibrate = sub.add_parser("calibrate", help="estimate (beta, gamma_o, gamma_i)")
    calibrate.add_argument("--network", default="ethernet")
    calibrate.add_argument("--iterations", type=int, default=3, help=iterations_help)
    calibrate.add_argument("--hosts", type=int, default=32)
    calibrate.set_defaults(handler=cmd_calibrate)

    return parser


#: exit status when the reader of stdout went away early: the status a
#: shell reports for a writer killed by SIGPIPE (128 + 13)
BROKEN_PIPE_STATUS = 141


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit status.

    A command returns 0, or 1 for its own negative outcome (a campaign
    scenario failed, two traces diverge, a replay does not reproduce its
    run); a :class:`~repro.exceptions.ReproError` prints ``error: ...`` and
    gives 2.  When the reader of stdout closes it early (``repro trace
    summarize run.jsonl | head -n 1``), the command stops without a
    traceback and gives :data:`BROKEN_PIPE_STATUS` (141), whichever command
    it was.
    """
    arguments = list(sys.argv[1:] if argv is None else argv)
    try:
        status = _run(arguments)
        sys.stdout.flush()  # a reader gone early shows up here, not at exit
    except BrokenPipeError:
        # the Python docs' advice: point stdout at devnull, so the flush at
        # interpreter exit has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return BROKEN_PIPE_STATUS
    return status


def _run(arguments: Sequence[str]) -> int:
    if arguments and arguments[0] == "check":
        # hand the linter its full argument vector untouched (argparse
        # REMAINDER mangles leading options like --format)
        from .checks.cli import main as check_main

        return check_main(list(arguments[1:]))
    parser = build_parser()
    args = parser.parse_args(arguments)
    if args.command == "predict" and args.model is None:
        args.model = args.network
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
