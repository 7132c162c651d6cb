"""Campaign execution: inline, or on a pool of worker processes.

:class:`CampaignRunner` executes the scenarios of a :class:`CampaignSpec`
and prices them all through one
:class:`~repro.core.incremental.PenaltyCache`.  ``max_workers <= 1`` runs
every scenario inline, in spec order; that is the reference path.
``max_workers > 1`` runs a :class:`~concurrent.futures.ProcessPoolExecutor`,
because pricing is pure Python and only processes run it in parallel:

* **graph scenarios** are decomposed into conflict components first; the
  distinct cache-miss components of the *whole campaign* are evaluated in
  the workers (they are independent by construction and deduplicated across
  scenarios, so an isomorphic contention situation is priced exactly once —
  the biggest win for the Myrinet model's exponential state-set
  enumeration), then the parent assembles every scenario from the warm
  cache;
* **application scenarios** are independent simulations, one job each.  A
  job carries only its scenario and run settings: the application phase's
  pool starts after the graph phase, and its initializer hands every worker
  the cache snapshot taken then, once per worker rather than once per job.
  Each job prices through a private cache seeded from that snapshot and
  sends its fresh entries back; the parent stores them in scenario order.
  Workers build applications through the per-process memo of
  :meth:`ScenarioSpec.build_application`, so no application is shipped.

A pool is started only for a phase that has jobs.

Pool execution is **bit-exact** with inline execution: a component
evaluation is a deterministic function of its canonical snapshot, and a
cache hit replays the stored floats unchanged, so the penalties of a
scenario do not depend on which worker (or which earlier scenario) priced
its components.  The work *counters* may differ from an inline run (a job
cannot hit what another job priced); the results never do —
``tests/campaign/test_campaign_runner.py`` asserts this over random
campaigns.

The pool uses the default :mod:`multiprocessing` start method.  Where that
is ``fork`` (Linux before Python 3.14), models registered at run time reach
the workers.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from ..cluster.spec import custom_cluster
from ..core.incremental import (
    EngineStats,
    PenaltyCache,
    _evaluate_component,
    cached_predict,
)
from ..core.penalty import ContentionModel, LinearCostModel
from ..core.registry import get_model, model_for_network
from ..exceptions import ModelError
from ..network.technologies import get_technology
from ..obs import MetricsRegistry
from ..simulator.engine import EngineConfig
from ..simulator.providers import ModelRateProvider
from ..simulator.simulator import Simulator
from ..trace import JsonlTraceSink, TraceRecord
from .persistence import PersistentPenaltyCache
from .results import CampaignResultStore, ScenarioResult
from .spec import CampaignSpec, ScenarioSpec

__all__ = ["CampaignRunner", "resolve_model"]


def resolve_model(name: str, network: str) -> ContentionModel:
    """Model axis entry → model instance (``"auto"`` = the network's model)."""
    if name in ("auto", "paper"):
        return model_for_network(network)
    try:
        return model_for_network(name)
    except ModelError:
        return get_model(name)


def _cost_model(network: str) -> LinearCostModel:
    return LinearCostModel.for_technology(get_technology(network))


def _merge_stats(target: EngineStats, snapshot: Dict[str, int]) -> None:
    for field_name, value in snapshot.items():
        setattr(target, field_name, getattr(target, field_name) + value)


def _execute_graph_scenario(
    scenario: ScenarioSpec,
    cache: Optional[PenaltyCache],
    stats: EngineStats,
    graph=None,
    model: Optional[ContentionModel] = None,
) -> ScenarioResult:
    """Price one static-graph scenario through the component cache."""
    if graph is None:
        graph = scenario.build_graph()
    if model is None:
        model = resolve_model(scenario.model, scenario.network)
    prediction = cached_predict(
        model, graph, _cost_model(scenario.network),
        cache=cache, stats=stats,
    )
    metrics = {
        "mean_penalty": prediction.mean_penalty,
        "max_penalty": prediction.max_penalty,
        "total_time": max(prediction.times.values(), default=0.0),
    }
    return ScenarioResult(
        axes=scenario.axes(),
        metrics=metrics,
        penalties=prediction.penalties,
        times=prediction.times,
    )


def _scenario_trace_path(trace_dir: str, scenario: ScenarioSpec) -> Path:
    return Path(trace_dir) / f"{scenario.scenario_id}.jsonl"


def _execute_app_scenario(
    scenario: ScenarioSpec,
    cores_per_node: int,
    cache: Optional[PenaltyCache],
    trace_dir: Optional[str] = None,
    metrics_every: int = 0,
) -> Tuple[ScenarioResult, Dict[str, int]]:
    """Run one application scenario through the predictive simulator.

    With ``trace_dir`` set the run's :mod:`repro.trace` record stream is
    written to ``<trace_dir>/<scenario_id>.jsonl`` (the directory is created
    on demand); tracing never changes the results.  ``metrics_every > 0``
    additionally attaches a per-scenario :class:`~repro.obs.MetricsRegistry`
    and samples it into the trace every that many steps — opt-in, because
    the samples carry wall-clock timings and make the trace *bytes* (never
    the results) run-dependent.
    """
    application = scenario.build_application()
    cluster = custom_cluster(
        num_nodes=int(scenario.num_hosts or 1),
        cores_per_node=cores_per_node,
        technology=scenario.network,
    )
    model = resolve_model(scenario.model, scenario.network)
    provider = ModelRateProvider(model, cluster.technology, cache=cache)
    injectors = scenario.build_injectors()
    sink = None
    if trace_dir is not None:
        path = _scenario_trace_path(trace_dir, scenario)
        path.parent.mkdir(parents=True, exist_ok=True)
        sink = JsonlTraceSink(path)
        # run.meta header makes the file self-describing, so `repro trace
        # replay` can rebuild this scenario without the campaign spec
        sink.emit(TraceRecord(0.0, "run.meta", None, scenario.run_meta(cores_per_node)))
    config = None
    if injectors or sink is not None:
        metrics = (MetricsRegistry()
                   if sink is not None and metrics_every > 0 else None)
        config = EngineConfig(injectors=injectors, trace=sink, metrics=metrics,
                              metrics_sample_every=max(int(metrics_every), 0))
    try:
        simulator = Simulator(
            cluster, provider, technology=cluster.technology, config=config,
            mode="predictive", model_name=model.name,
        )
        report = simulator.run(
            application,
            placement=scenario.placement or "RRP",
            seed=int(scenario.seed or 0),
        )
    finally:
        if sink is not None:
            sink.close()
    times = {str(rank): value for rank, value in report.communication_times().items()}
    metrics = {
        "mean_penalty": report.average_penalty,
        "max_penalty": report.max_penalty,
        "total_time": report.total_time,
    }
    result = ScenarioResult(axes=scenario.axes(), metrics=metrics, times=times)
    return result, provider.stats.snapshot()


#: (persistent?, entries) of a penalty cache, as :func:`_seed_worker` takes it
CacheSnapshot = Tuple[bool, List[Tuple[Hashable, Dict]]]

#: the cache snapshot of this worker process, set by :func:`_seed_worker`,
#: with the set of its keys
_worker_seed: Optional[Tuple[CacheSnapshot, FrozenSet[Hashable]]] = None


def _cache_snapshot(cache: PenaltyCache) -> CacheSnapshot:
    return isinstance(cache, PersistentPenaltyCache), cache.items()


def _seed_worker(snapshot: CacheSnapshot) -> None:
    """Pool initializer: keep the parent's post-graph cache snapshot."""
    global _worker_seed
    _worker_seed = snapshot, frozenset(key for key, _ in snapshot[1])


def _app_scenario_job(
    payload: Tuple[ScenarioSpec, int, Optional[str], int],
) -> Tuple[ScenarioResult, Dict[str, int], List[Tuple[Hashable, Dict]]]:
    """Process-pool job: seed a private cache, run, return the new entries.

    Every job starts from the worker's snapshot, never from what an earlier
    job of the same worker priced, so the work counters do not depend on
    how jobs are spread over workers.  ``metrics_every`` travels as a plain
    int (a ``MetricsRegistry`` holds a lock and is not picklable); the
    registry is built inside the worker.
    """
    scenario, cores_per_node, trace_dir, metrics_every = payload
    (persistent, entries), seeded = _worker_seed
    cache: PenaltyCache = PersistentPenaltyCache() if persistent else PenaltyCache()
    for key, mapping in entries:
        # entries are already in the parent cache's keyspace: bypass re-encoding
        PenaltyCache.put(cache, key, mapping)
    result, stats = _execute_app_scenario(scenario, cores_per_node, cache,
                                          trace_dir=trace_dir,
                                          metrics_every=metrics_every)
    fresh = [(key, mapping) for key, mapping in cache.items() if key not in seeded]
    return result, stats, fresh


class CampaignRunner:
    """Execute a campaign, pricing every scenario through one penalty cache.

    Parameters
    ----------
    spec:
        The campaign to run.
    cache:
        Shared :class:`PenaltyCache` (pass a
        :class:`~repro.campaign.persistence.PersistentPenaltyCache` to stay
        warm across repeated campaigns).  ``None`` creates a private
        in-memory cache.
    max_workers:
        Worker processes; ``<= 1`` runs every scenario inline.
    trace_dir:
        Per-scenario trace directory (overrides ``spec.trace_dir``); every
        application scenario writes ``<trace_dir>/<scenario_id>.jsonl``.
        ``None`` falls back to the spec's toggle; tracing off is the
        bit-exact default.
    metrics_every:
        When > 0 (and tracing is on), attach a per-scenario metrics
        registry and emit a ``metrics.sample`` record every that many
        engine steps — what ``repro campaign --progress`` tails.  Default
        0 keeps the traces byte-identical across worker counts and runs
        (the samples carry wall-clock timings).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        cache: Optional[PenaltyCache] = None,
        max_workers: int = 1,
        trace_dir: Optional[str] = None,
        metrics_every: int = 0,
    ) -> None:
        self.spec = spec
        self.cache = cache if cache is not None else PenaltyCache(max_entries=65536)
        self.max_workers = int(max_workers)
        self.trace_dir = trace_dir if trace_dir is not None else spec.trace_dir
        self.metrics_every = int(metrics_every)
        self.stats = EngineStats()

    def trace_paths(self) -> List[Path]:
        """Trace files this campaign would write (application scenarios only)."""
        if self.trace_dir is None:
            return []
        return [
            _scenario_trace_path(self.trace_dir, scenario)
            for scenario in self.spec.scenarios()
            if scenario.is_application
        ]

    # ------------------------------------------------------------------ run
    def run(self) -> CampaignResultStore:
        scenarios = self.spec.scenarios()
        if self.max_workers <= 1:
            results = self._run_serial(scenarios)
        else:
            results = self._run_parallel(scenarios)
        return CampaignResultStore(
            campaign=self.spec.name,
            results=results,
            stats=self.stats.snapshot(),
        )

    # ----------------------------------------------------------- inline path
    def _run_serial(self, scenarios: Sequence[ScenarioSpec]) -> List[ScenarioResult]:
        results: List[ScenarioResult] = []
        for scenario in scenarios:
            if scenario.is_application:
                result, snapshot = _execute_app_scenario(
                    scenario, self.spec.cores_per_node, self.cache,
                    trace_dir=self.trace_dir,
                    metrics_every=self.metrics_every,
                )
                _merge_stats(self.stats, snapshot)
            else:
                result = _execute_graph_scenario(scenario, self.cache, self.stats)
            results.append(result)
        return results

    # ---------------------------------------------------------- process pool
    def _run_parallel(self, scenarios: Sequence[ScenarioSpec]) -> List[ScenarioResult]:
        results: List[Optional[ScenarioResult]] = [None] * len(scenarios)
        graph_indices = [i for i, s in enumerate(scenarios) if not s.is_application]
        app_indices = [i for i, s in enumerate(scenarios) if s.is_application]
        built = {
            index: (
                scenarios[index].build_graph(),
                resolve_model(scenarios[index].model, scenarios[index].network),
            )
            for index in graph_indices
        }
        stored, stored_comms = self._price_graph_components(
            [(scenarios[i], *built[i]) for i in graph_indices]
        )
        self.stats.cache_misses += stored
        self.stats.component_evaluations += stored
        self.stats.comm_evaluations += stored_comms
        hits_before = self.stats.cache_hits
        for index in graph_indices:
            # every component is warm now: assembly is pure cache transport
            graph, model = built[index]
            results[index] = _execute_graph_scenario(
                scenarios[index], self.cache, self.stats,
                graph=graph, model=model,
            )
        # a pre-priced component is a first-encounter miss in the inline
        # run but a hit during assembly: shift the counters so the totals
        # line up with a cold inline execution.  Under LRU eviction
        # pressure some pre-priced entries never get hit (they are
        # genuinely re-evaluated), hence the bound on the shift.
        assembly_hits = self.stats.cache_hits - hits_before
        self.stats.cache_hits -= min(stored, assembly_hits)
        if app_indices:
            payloads = [
                (scenarios[i], self.spec.cores_per_node, self.trace_dir,
                 self.metrics_every)
                for i in app_indices
            ]
            with ProcessPoolExecutor(
                max_workers=min(self.max_workers, len(payloads)),
                initializer=_seed_worker, initargs=(_cache_snapshot(self.cache),),
            ) as executor:
                for index, (result, stats, entries) in zip(
                    app_indices, executor.map(_app_scenario_job, payloads)
                ):
                    results[index] = result
                    _merge_stats(self.stats, stats)
                    for key, mapping in entries:
                        PenaltyCache.put(self.cache, key, mapping)
        return [r for r in results if r is not None]

    def _price_graph_components(
        self, graph_scenarios: Sequence[Tuple[ScenarioSpec, Any, ContentionModel]],
    ) -> Tuple[int, int]:
        """Evaluate the distinct cache-miss components of every graph scenario.

        Takes ``(scenario, graph, model)`` triples (graphs/models are built
        once by the caller and reused for assembly).  Components are
        deduplicated campaign-wide by their cache key, then fanned out over
        a pool started for them (none when every component is cached);
        afterwards the per-scenario assembly in the caller is (almost) pure
        cache transport.  Returns the number of components
        stored and their communication count, which the caller folds into
        the work counters.
        """
        jobs: "OrderedDict[Hashable, Tuple[ContentionModel, Any, Tuple[str, ...], Dict[str, Tuple[int, int]]]]" = OrderedDict()
        for scenario, graph, model in graph_scenarios:
            rule = model.component_rule
            if rule is None or not model.structural_penalties:
                continue  # priced whole during assembly, exactly like inline
            model_key = model.memo_key()
            for names in graph.conflict_components(rule):
                component_key, endpoint_ranks = graph.canonical_component(names)
                key = (model_key, component_key)
                if key in jobs or self.cache.get(key) is not None:
                    continue
                jobs[key] = (model, graph.subgraph(names), tuple(names), endpoint_ranks)
        if not jobs:
            return 0, 0
        job_list = list(jobs.items())
        with ProcessPoolExecutor(max_workers=min(self.max_workers, len(job_list))) as executor:
            evaluations = list(executor.map(
                _evaluate_component, [(m, g, n) for _, (m, g, n, _) in job_list]
            ))
        stored = 0
        stored_comms = 0
        for (key, (_, _, names, endpoint_ranks)), evaluated in zip(job_list, evaluations):
            self.cache.store(key, endpoint_ranks, evaluated)
            if self.cache.get(key) is not None:
                stored += 1
                stored_comms += len(names)
        return stored, stored_comms
