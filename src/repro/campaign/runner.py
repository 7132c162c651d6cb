"""Campaign execution: inline, or on a pool of worker processes.

:class:`CampaignRunner` executes the scenarios of a :class:`CampaignSpec`
and prices them all through one
:class:`~repro.core.incremental.PenaltyCache`.  ``max_workers <= 1`` runs
every scenario inline, in spec order; that is the reference path.
``max_workers > 1`` runs the application scenarios on a
:class:`~concurrent.futures.ProcessPoolExecutor`, because simulation is pure
Python and only processes run it in parallel:

* **graph scenarios** are priced in the parent first, in scenario order,
  exactly as inline (:func:`~repro.core.incremental.cached_predict` prices
  each conflict component shape of a graph once); on every campaign spec
  in this repository a pool cost more to start and feed than it saved;
* **application scenarios** are independent simulations, one job each.  A
  job carries only its scenario and run settings: the pool starts after the
  graph scenarios are priced, and its initializer hands every worker the
  cache snapshot taken then, once per worker rather than once per job.
  Each job prices through a private cache seeded from that snapshot and
  sends its fresh entries back; the parent stores them in scenario order.
  Workers build applications through the per-process memo of
  :meth:`ScenarioSpec.build_application`, so no application is shipped.

A campaign without application scenarios starts no pool.

Every application scenario, inline or in a worker, runs through
:func:`run_scenario`, which ``repro simulate``, ``repro trace record`` and
``repro trace replay`` call too.  A scenario that raises a
:class:`~repro.exceptions.ReproError` (a Myrinet conflict component over
the enumeration cap, say) is recorded with its error in
:attr:`CampaignResultStore.failures` and the sweep goes on; any other
exception propagates.  In the pool, a job returns its failure.

Pool execution is **bit-exact** with inline execution: a component
evaluation is a deterministic function of its canonical snapshot, and a
cache hit replays the stored floats unchanged, so the penalties of a
scenario do not depend on which worker (or which earlier scenario) priced
its components.  With application scenarios the work *counters* may differ
from an inline run (a job cannot hit what another job priced, and every
graph scenario is priced before the first job); a graph-only campaign's
counters, and every campaign's results, never do —
``tests/campaign/test_campaign_runner.py`` asserts this over random
campaigns.

The pool uses the default :mod:`multiprocessing` start method.  Where that
is ``fork`` (Linux before Python 3.14), models registered at run time reach
the workers.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..cluster.spec import custom_cluster
from ..core.incremental import EngineStats, PenaltyCache, cached_predict
from ..core.penalty import LinearCostModel
from ..core.registry import resolve_model
from ..exceptions import ReproError
from ..network.technologies import get_technology
from ..simulator.engine import EngineConfig
from ..simulator.interference import Injector
from ..simulator.providers import ModelRateProvider
from ..simulator.report import SimulationReport
from ..simulator.simulator import Simulator
from .results import CampaignResultStore, ScenarioResult
from .spec import CampaignSpec, ScenarioSpec

if TYPE_CHECKING:
    from ..trace.sinks import TraceSink

__all__ = ["CampaignRunner", "run_scenario"]

#: the pool class, imported when the first pool starts (:func:`_process_pool`)
#: so that inline runs never load it; a test may replace it here
ProcessPoolExecutor: Any = None

#: what one scenario yields: its result, or its failure as
#: ``{"axes": ..., "error": ...}`` (see :attr:`CampaignResultStore.failures`)
Outcome = Union[ScenarioResult, Dict[str, Any]]


def run_scenario(
    scenario: ScenarioSpec,
    cores_per_node: int,
    *,
    mode: str = "predictive",
    cache: Optional[PenaltyCache] = None,
    injectors: Optional[Tuple[Injector, ...]] = None,
    trace: Optional[TraceSink] = None,
    metrics_every: int = 0,
) -> Tuple[SimulationReport, Simulator]:
    """Run one application scenario; returns the report and its simulator.

    The one place a :class:`ScenarioSpec` becomes a cluster, a rate
    provider and a :class:`Simulator`, for the campaign and for ``repro
    simulate`` / ``trace record`` / ``trace replay`` alike.  The cluster has
    ``num_hosts`` nodes (1 when unset) of ``cores_per_node`` cores.
    ``mode="emulated"`` runs the calibrated emulator; otherwise the
    scenario's model prices the transfers through ``cache``.  ``injectors``
    replaces the scenario's own (``None`` builds them).  With ``trace`` set
    the run's ``run.meta`` header is emitted first, and ``metrics_every >
    0`` samples a fresh metrics registry into the trace every that many
    engine steps.  The simulator carries the run's counters
    (:attr:`Simulator.last_engine_stats`, ``rate_provider.stats``).
    """
    application = scenario.build_application()
    if injectors is None:
        injectors = scenario.build_injectors()
    cluster = custom_cluster(
        num_nodes=int(scenario.num_hosts or 1),
        cores_per_node=cores_per_node,
        technology=scenario.network,
    )
    metrics = None
    if trace is not None and metrics_every > 0:
        from ..obs.registry import MetricsRegistry

        metrics = MetricsRegistry()
    config = EngineConfig(injectors=injectors, trace=trace, metrics=metrics,
                          metrics_sample_every=max(int(metrics_every), 0))
    if mode == "emulated":
        simulator = Simulator.emulated(cluster, config=config)
    else:
        model = resolve_model(scenario.model, scenario.network)
        provider = ModelRateProvider(model, cluster.technology, cache=cache)
        simulator = Simulator(cluster, provider, config=config,
                              mode="predictive", model_name=model.name)
    if trace is not None:
        from ..trace.records import TraceRecord

        # the header makes the trace self-describing: `repro trace replay`
        # rebuilds the scenario from it alone
        trace.emit(TraceRecord(0.0, "run.meta", None,
                               scenario.run_meta(cores_per_node, mode=mode)))
    report = simulator.run(application, placement=scenario.placement or "RRP",
                           seed=int(scenario.seed or 0))
    return report, simulator


def _failure(scenario: ScenarioSpec, error: ReproError) -> Dict[str, Any]:
    return {"axes": scenario.axes(), "error": str(error)}


def _merge_stats(target: EngineStats, snapshot: Dict[str, int]) -> None:
    for field_name, value in snapshot.items():
        setattr(target, field_name, getattr(target, field_name) + value)


def _execute_graph_scenario(
    scenario: ScenarioSpec,
    cache: Optional[PenaltyCache],
    stats: EngineStats,
) -> Outcome:
    """Price one static-graph scenario through the component cache."""
    try:
        graph = scenario.build_graph()
        model = resolve_model(scenario.model, scenario.network)
        prediction = cached_predict(
            model, graph, LinearCostModel.for_technology(get_technology(scenario.network)),
            cache=cache, stats=stats,
        )
    except ReproError as exc:
        return _failure(scenario, exc)
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
) -> Tuple[Outcome, Dict[str, int]]:
    """Run one application scenario through the predictive simulator.

    Returns the outcome and the provider's work counters (none for a
    failed run).  With ``trace_dir`` set the run's :mod:`repro.trace`
    record stream is written to ``<trace_dir>/<scenario_id>.jsonl`` (the
    directory is created on demand); tracing never changes the results.
    ``metrics_every > 0`` additionally samples a per-scenario
    :class:`~repro.obs.MetricsRegistry` into the trace — opt-in, because
    the samples carry wall-clock timings and make the trace *bytes* (never
    the results) run-dependent.
    """
    sink = None
    if trace_dir is not None:
        from ..trace.sinks import JsonlTraceSink

        path = _scenario_trace_path(trace_dir, scenario)
        path.parent.mkdir(parents=True, exist_ok=True)
        sink = JsonlTraceSink(path)
    try:
        report, simulator = run_scenario(scenario, cores_per_node, cache=cache,
                                         trace=sink, metrics_every=metrics_every)
    except ReproError as exc:
        return _failure(scenario, exc), {}
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
    return result, simulator.rate_provider.stats.snapshot()


#: (persistent?, entries) of a penalty cache, as :func:`_seed_worker` takes it
CacheSnapshot = Tuple[bool, List[Tuple[Hashable, Dict]]]

#: the cache snapshot of this worker process, set by :func:`_seed_worker`,
#: with the set of its keys
_worker_seed: Optional[Tuple[CacheSnapshot, FrozenSet[Hashable]]] = None


def _process_pool(**options: Any) -> Any:
    """A :class:`~concurrent.futures.ProcessPoolExecutor` with ``options``."""
    global ProcessPoolExecutor
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(**options)


def _cache_snapshot(cache: PenaltyCache) -> CacheSnapshot:
    from .persistence import PersistentPenaltyCache

    return isinstance(cache, PersistentPenaltyCache), cache.items()


def _seed_worker(snapshot: CacheSnapshot) -> None:
    """Pool initializer: keep the parent's post-graph cache snapshot."""
    global _worker_seed
    _worker_seed = snapshot, frozenset(key for key, _ in snapshot[1])


def _app_scenario_job(
    payload: Tuple[ScenarioSpec, int, Optional[str], int],
) -> Tuple[Outcome, Dict[str, int], List[Tuple[Hashable, Dict]]]:
    """Process-pool job: seed a private cache, run, return the new entries.

    Every job starts from the worker's snapshot, never from what an earlier
    job of the same worker priced, so the work counters do not depend on
    how jobs are spread over workers.  A failed run returns its failure in
    place of a result, with the entries it priced before it failed (an
    inline run keeps those in the shared cache too).  ``metrics_every``
    travels as a plain int (a ``MetricsRegistry`` holds a lock and is not
    picklable); the registry is built inside the worker.
    """
    from .persistence import PersistentPenaltyCache

    scenario, cores_per_node, trace_dir, metrics_every = payload
    (persistent, entries), seeded = _worker_seed
    cache: PenaltyCache = PersistentPenaltyCache() if persistent else PenaltyCache()
    for key, mapping in entries:
        # entries are already in the parent cache's keyspace: bypass re-encoding
        PenaltyCache.put(cache, key, mapping)
    outcome, stats = _execute_app_scenario(scenario, cores_per_node, cache,
                                           trace_dir=trace_dir,
                                           metrics_every=metrics_every)
    fresh = [(key, mapping) for key, mapping in cache.items() if key not in seeded]
    return outcome, stats, fresh


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
        Worker processes for the application scenarios; ``<= 1`` runs every
        scenario inline.  Graph scenarios are always priced inline, first.
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
        """Run every scenario; a scenario that raises a :class:`ReproError`
        is recorded in the store's ``failures`` and the sweep goes on."""
        scenarios = self.spec.scenarios()
        if self.max_workers <= 1:
            outcomes = self._run_serial(scenarios)
        else:
            outcomes = self._run_parallel(scenarios)
        return CampaignResultStore(
            campaign=self.spec.name,
            results=[o for o in outcomes if isinstance(o, ScenarioResult)],
            stats=self.stats.snapshot(),
            failures=[o for o in outcomes if not isinstance(o, ScenarioResult)],
        )

    # ----------------------------------------------------------- inline path
    def _run_serial(self, scenarios: Sequence[ScenarioSpec]) -> List[Outcome]:
        outcomes: List[Outcome] = []
        for scenario in scenarios:
            if scenario.is_application:
                outcome, snapshot = _execute_app_scenario(
                    scenario, self.spec.cores_per_node, self.cache,
                    trace_dir=self.trace_dir,
                    metrics_every=self.metrics_every,
                )
                _merge_stats(self.stats, snapshot)
            else:
                outcome = _execute_graph_scenario(scenario, self.cache, self.stats)
            outcomes.append(outcome)
        return outcomes

    # ---------------------------------------------------------- process pool
    def _run_parallel(self, scenarios: Sequence[ScenarioSpec]) -> List[Outcome]:
        outcomes: List[Optional[Outcome]] = [
            None if scenario.is_application
            else _execute_graph_scenario(scenario, self.cache, self.stats)
            for scenario in scenarios
        ]
        app_indices = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if app_indices:
            payloads = [
                (scenarios[i], self.spec.cores_per_node, self.trace_dir,
                 self.metrics_every)
                for i in app_indices
            ]
            with _process_pool(
                max_workers=min(self.max_workers, len(payloads)),
                initializer=_seed_worker, initargs=(_cache_snapshot(self.cache),),
            ) as executor:
                for index, (outcome, stats, entries) in zip(
                    app_indices, executor.map(_app_scenario_job, payloads)
                ):
                    outcomes[index] = outcome
                    _merge_stats(self.stats, stats)
                    for key, mapping in entries:
                        PenaltyCache.put(self.cache, key, mapping)
        return [o for o in outcomes if o is not None]
