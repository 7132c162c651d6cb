"""Spans for the traced run, recorded around each layer's public calls.

The traced run wraps, from the benchmark's own files, the public functions
through which the layers call each other (nothing under ``src/`` changes).
Every call becomes a span: name, start, end, parent span and the id of the
simulation or scenario it belongs to.  Spans stay in memory and are written
out when the benchmark ends.  A layer's self time is its spans' time minus
the time of their child spans.

Only wrapped targets that exist are wrapped, so a later change that deletes
one of them (for instance the ``update_arrays``/``update_slots`` hand-off
tiers) leaves the traced run working, with zeros for what no longer exists.

Counts come from the spans and from the program's own stats snapshots:
``Simulator.last_engine_stats``, ``provider.stats``, the emulator counters
and ``CampaignRunner.stats``.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "root"

#: engine-stats counters summed over the traced simulations of a unit
ENGINE_COUNTERS = ("steps", "iterations", "background_flows")
CALENDAR_COUNTERS = ("flushes", "rate_updates", "retimed", "stale_entries", "completions",
                     "stall_retries", "handoff_tier_slots", "handoff_tier_arrays",
                     "handoff_tier_dict")
PRICING_COUNTERS = ("component_evaluations", "comm_evaluations", "cache_hits", "cache_misses")
EMULATOR_COUNTERS = ("cache_hits", "cache_misses", "warm_starts")


class SpanLog:
    """Spans kept as parallel arrays (cheap to append inside hot loops).

    ``clock`` times the spans; the worker passes one that stops while the
    speed probe ticks.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.groups = array("q")
        self.work = array("q")
        self.stack: List[int] = [-1]
        self.group = -1
        self._next_group = 0
        #: counters read from the program's stats snapshots, per unit
        self.counters: Dict[str, int] = defaultdict(int)

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.groups.append(self.group)
        self.work.append(0)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = self.clock()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self) -> Iterator[None]:
        """Root span of one simulation or scenario; its spans share an id."""
        self.group = self._next_group
        self._next_group += 1
        sid = self.open(ROOT)
        try:
            yield
        finally:
            self.close(sid)
            self.group = -1

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for sid, name in enumerate(self.names):
                out.write(json.dumps({
                    "id": sid, "parent": self.parents[sid], "name": name,
                    "start": self.starts[sid], "end": self.ends[sid],
                    "group": self.groups[sid],
                }) + "\n")


Hook = Callable[[SpanLog, tuple, object], int]


def _wrap(log: SpanLog, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
    def wrapper(*args, **kwargs):
        sid = log.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(sid)
        if hook is not None:
            log.work[sid] = hook(log, args, result)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


# ----------------------------------------------------------------- hooks
def _after_simulation(log: SpanLog, args: tuple, report) -> int:
    """Fold one finished simulation's stats snapshots into the counters."""
    simulator = args[0]
    counters = log.counters
    stats = getattr(simulator, "last_engine_stats", None)
    if stats is not None:
        for field in ENGINE_COUNTERS:
            counters[f"engine.{field}"] += getattr(stats, field, 0)
        calendar = getattr(stats, "calendar", None)
        for field in CALENDAR_COUNTERS:
            counters[f"calendar.{field}"] += getattr(calendar, field, 0)
    counters["engine.events"] += len(report.records)
    provider = simulator.rate_provider
    if hasattr(provider, "warm_starts"):  # the emulator's counters
        for field in EMULATOR_COUNTERS:
            counters[f"emulator.{field}"] += getattr(provider, field, 0)
    elif hasattr(getattr(provider, "stats", None), "snapshot"):  # the model provider's
        snapshot = provider.stats.snapshot()
        for field in PRICING_COUNTERS:
            counters[f"sim_pricing.{field}"] += snapshot.get(field, 0)
    return 0


def _after_campaign(log: SpanLog, args: tuple, store) -> int:
    stats = getattr(args[0], "stats", None)
    snapshot = stats.snapshot() if hasattr(stats, "snapshot") else {}
    for field in PRICING_COUNTERS:
        log.counters[f"campaign_pricing.{field}"] += snapshot.get(field, 0)
    log.counters["campaign.runs"] += 1
    return 0


def _result_len(log: SpanLog, args: tuple, result) -> int:
    """Flows a solve allocated, or communications a model call priced."""
    return len(result)


def _batch_len(log: SpanLog, args: tuple, result) -> int:
    """Communications priced by one ``penalties_batch`` call."""
    return sum(len(penalties) for penalties in result)


#: (owner as "module:attribute path", wrapped attributes, span name, hook)
TARGETS: List[Tuple[str, Tuple[str, ...], str, Optional[Hook]]] = [
    ("repro.simulator:Simulator", ("run",), "engine.run", _after_simulation),
    ("repro.network.fluid:TransferCalendar", ("flush",), "calendar.flush", None),
    ("repro.network.fluid:TransferCalendar", ("pop_due",), "calendar.pop_due", None),
    ("repro.network.fluid:TransferCalendar", ("activate",), "calendar.activate", None),
    ("repro.network.fluid:TransferCalendar", ("cancel", "next_time", "reprice"),
     "calendar.other", None),
    ("repro.simulator:ModelRateProvider", ("update", "update_arrays", "update_slots"),
     "pricing.update", None),
    ("repro.core:IncrementalPenaltyEngine", ("add", "remove"), "pricing.track", None),
    ("repro.core:IncrementalPenaltyEngine", ("refresh", "refresh_arrays", "refresh_handles"),
     "pricing.refresh", None),
    ("repro.simulator:EmulatorRateProvider", ("update", "update_arrays", "update_slots"),
     "emulator.update", None),
    # the solver is timed through the names the allocator calls it by
    ("repro.network.allocator", ("water_fill_arrays", "max_min_allocation"),
     "waterfill.solve", _result_len),
    ("repro.simulator:BackgroundTrafficInjector", ("apply",), "inject.apply", None),
    ("repro.simulator:LinkDegradationInjector", ("apply",), "inject.apply", None),
    ("repro.simulator:NodeSlowdownInjector", ("apply",), "inject.apply", None),
    ("repro.campaign:CampaignRunner", ("run",), "campaign.run", _after_campaign),
    ("repro.campaign:CampaignSpec", ("scenarios",), "campaign.expand", None),
    ("repro.campaign:ScenarioSpec", ("build_graph", "build_application", "build_injectors"),
     "campaign.build", None),
    ("repro.campaign.runner", ("cached_predict",), "campaign.graph_price", None),
]
for _model in ("GigabitEthernetModel", "MyrinetModel", "InfinibandModel"):
    TARGETS.append((f"repro.core:{_model}", ("penalties", "component_penalties"),
                    "model.eval", _result_len))
    TARGETS.append((f"repro.core:{_model}", ("penalties_batch",), "model.eval", _batch_len))

#: span name -> the metric that holds its self time.  Every span's self time
#: lands in exactly one of these, so they add up to the traced wall time.
SELF_TIME_METRICS = {
    "engine.run": "engine.self_s",
    "calendar.flush": "calendar.flush_self_s",
    "calendar.pop_due": "calendar.pop_due_s",
    "calendar.activate": "calendar.activate_s",
    "calendar.other": "calendar.other_s",
    "pricing.update": "pricing.update_self_s",
    "pricing.refresh": "pricing.refresh_self_s",
    "pricing.track": "pricing.track_s",
    "model.eval": "model.eval_s",
    "emulator.update": "emulator.update_self_s",
    "waterfill.solve": "waterfill.solve_s",
    "inject.apply": "inject.apply_s",
    "campaign.expand": "campaign.expand_s",
    "campaign.build": "campaign.build_s",
    "campaign.run": "campaign.self_s",
    "campaign.graph_price": "campaign.self_s",
    ROOT: "trace.unattributed_s",
}
if {name for _, _, name, _ in TARGETS} - set(SELF_TIME_METRICS):
    raise RuntimeError("a traced span has no self-time metric")


def _resolve(owner: str) -> Optional[object]:
    """The module, class or function named ``module:attribute.path``; None if gone."""
    module_name, _, path = owner.partition(":")
    try:
        found: object = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, path.split(".")):
        found = getattr(found, part, None)
        if found is None:
            return None
    return found


class Instrumentation:
    """Installs the wrappers on entry and restores every original on exit."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._saved: List[Tuple[object, str, object, bool]] = []

    def __enter__(self) -> "Instrumentation":
        for path, attributes, name, hook in TARGETS:
            owner = _resolve(path)
            for attribute in attributes:
                original = getattr(owner, attribute, None)
                if owner is None or not callable(original):
                    continue  # deleted since: wrap only what exists
                own = attribute in vars(owner)
                self._saved.append((owner, attribute, vars(owner).get(attribute), own))
                setattr(owner, attribute, _wrap(self.log, name, original, hook))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original, own in reversed(self._saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._saved.clear()


# ------------------------------------------------------------- metrics
def counts(metrics: Dict[str, float]) -> Dict[str, float]:
    """The metrics that are counts or ratios of counts (everything but timings)."""
    return {name: value for name, value in metrics.items()
            if not name.endswith(("_s", "_us_per_step", "_pct"))}


def layer_metrics(log: SpanLog, first: int, last: int) -> Dict[str, float]:
    """Per-layer metrics of the spans ``first <= id < last`` (one unit).

    Times are seconds per unit; counts are per unit.  The self times (see
    ``SELF_TIME_METRICS``) partition the traced wall time; the two campaign
    phase times, ``campaign.graph_price_s`` and ``campaign.app_sim_s``, are
    inclusive views across layers.  The caller adds the ``setup.*`` metrics
    and ``trace.overhead_pct``.
    """
    names, parents, starts, ends, work = log.names, log.parents, log.starts, log.ends, log.work
    children: Dict[int, float] = defaultdict(float)
    for sid in range(first, last):
        parent = parents[sid]
        if parent >= first:
            children[parent] += ends[sid] - starts[sid]
    metrics: Dict[str, float] = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    inclusive: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    outer_calls: Dict[str, int] = defaultdict(int)
    outer_work: Dict[str, int] = defaultdict(int)
    for sid in range(first, last):
        name = names[sid]
        duration = ends[sid] - starts[sid]
        metrics[SELF_TIME_METRICS[name]] += duration - children.get(sid, 0.0)
        calls[name] += 1
        parent = parents[sid]
        if parent < first or names[parent] != name:
            inclusive[name] += duration
            outer_calls[name] += 1
            outer_work[name] += work[sid]

    counter = log.counters
    in_campaign = bool(counter.get("campaign.runs"))
    pricing_source = "campaign_pricing" if in_campaign else "sim_pricing"

    def count(key: str) -> float:
        return counter.get(key, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    steps = count("engine.steps")
    flushes = count("calendar.flushes")
    rate_updates = count("calendar.rate_updates")
    stale = count("calendar.stale_entries")
    hits = count(f"{pricing_source}.cache_hits")
    misses = count(f"{pricing_source}.cache_misses")
    emulator_hits = count("emulator.cache_hits")
    emulator_misses = count("emulator.cache_misses")
    waterfill_calls = outer_calls["waterfill.solve"]
    metrics.update({
        "engine.self_us_per_step": ratio(metrics["engine.self_s"] * 1e6, steps),
        "engine.steps": steps,
        "engine.iterations": count("engine.iterations"),
        "engine.events": count("engine.events"),
        "calendar.flushes": flushes,
        "calendar.rate_updates": rate_updates,
        "calendar.retimed": count("calendar.retimed"),
        "calendar.stale_entries": stale,
        "calendar.stall_retries": count("calendar.stall_retries"),
        "calendar.rates_per_flush": ratio(rate_updates, flushes),
        "calendar.retime_ratio": ratio(count("calendar.retimed"), rate_updates),
        "calendar.stale_ratio": ratio(stale, stale + count("calendar.completions")),
        "calendar.tier_slots_frac": ratio(count("calendar.handoff_tier_slots"), flushes),
        "calendar.tier_arrays_frac": ratio(count("calendar.handoff_tier_arrays"), flushes),
        "calendar.tier_dict_frac": ratio(count("calendar.handoff_tier_dict"), flushes),
        "pricing.component_evaluations": count(f"{pricing_source}.component_evaluations"),
        "pricing.comm_evaluations": count(f"{pricing_source}.comm_evaluations"),
        "pricing.cache_hits": hits,
        "pricing.cache_misses": misses,
        "pricing.cache_hit_ratio": ratio(hits, hits + misses),
        "model.calls": outer_calls["model.eval"],
        "model.comms_priced": outer_work["model.eval"],
        "emulator.solves": emulator_misses,
        "emulator.cache_hits": emulator_hits,
        "emulator.warm_starts": count("emulator.warm_starts"),
        "emulator.cache_hit_ratio": ratio(emulator_hits, emulator_hits + emulator_misses),
        "emulator.warm_start_ratio": ratio(count("emulator.warm_starts"), emulator_misses),
        "waterfill.calls": waterfill_calls,
        "waterfill.flows_per_call": ratio(outer_work["waterfill.solve"], waterfill_calls),
        "inject.events": calls["inject.apply"],
        "inject.background_flows": count("engine.background_flows"),
        "campaign.graph_price_s": inclusive["campaign.graph_price"],
        "campaign.app_sim_s": inclusive["engine.run"] if in_campaign else 0.0,
        "campaign.graph_scenarios": outer_calls["campaign.graph_price"],
        "campaign.app_scenarios": outer_calls["engine.run"] if in_campaign else 0,
        "trace.spans": last - first,
    })
    return metrics
