"""The benchmark's three workloads, their reference oracles and output digests.

Each workload is a closed batch of *units*: one unit is one simulation
(``linpack_512``, ``emulator_fattree_loaded``) or one sweep of scenarios
(``campaign_sweep``), and the next unit starts only when the previous one
ended.  An *operation* is one simulation or one scenario; it fails when it
raises or when its outputs differ from the reference oracle's.

Everything a unit consumes is generated from the benchmark seed here, through
public entry points only (``Simulator``, ``EngineConfig``, both rate providers,
``FatTreeTopology``, ``BackgroundTrafficInjector``, ``generate_linpack``,
``pairwise_exchange_alltoall``, ``CampaignSpec``/``CampaignRunner``), so the
benchmark keeps working when internal paths such as the provider hand-off
tiers or the ``vectorized`` toggles are removed.

The oracle is the reference configuration: ``EngineConfig(delta_rates=False)``
with ``ModelRateProvider(incremental=False)`` or
``EmulatorRateProvider(warm_start=False, cache_size=0)``.  Outputs are
compared bit for bit through SHA-256 digests of ``float.hex`` strings.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import traceback
from time import perf_counter
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

from repro.campaign import CampaignRunner, CampaignSpec, resolve_model
from repro.cluster import custom_cluster
from repro.core import GigabitEthernetModel, LinearCostModel, PenaltyCache
from repro.network.technologies import get_technology
from repro.network.topology import FatTreeTopology
from repro.simulator import (
    Application,
    BackgroundTrafficInjector,
    EmulatorRateProvider,
    EngineConfig,
    ModelRateProvider,
    Simulator,
)
from repro.units import MiB
from repro.workloads import generate_linpack, pairwise_exchange_alltoall

#: (digest or None when the operation raised, its start on the run's clock,
#: host seconds of the operation)
Op = Tuple[Optional[str], float, float]
#: opens the root span of one operation in a traced run
OpSpan = Callable[[], ContextManager]
#: the clock operations are timed with (seconds)
Clock = Callable[[], float]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def report_digest(report) -> str:
    """Makespan, record count and every rank's finish time, bit for bit."""
    finish = report.finish_time_per_task
    parts = [float(report.total_time).hex(), str(len(report.records))]
    parts.extend(float(finish[rank]).hex() for rank in sorted(finish))
    return _sha(",".join(parts))


def metrics_digest(mean_penalty: float, max_penalty: float, total_time: float) -> str:
    """Per-scenario result metrics of a campaign, bit for bit."""
    return _sha(",".join(float(v).hex() for v in (mean_penalty, max_penalty, total_time)))


def unit_digest(digests: List[Optional[str]]) -> str:
    """Digest of one unit: its operations' digests in order."""
    return _sha("\n".join(d or "error" for d in digests))


class _SimulationWorkload:
    """A unit is one :meth:`Simulator.run` of one application."""

    name = ""
    application: Application
    #: settings of the timed configuration that differ from the program's defaults
    NON_DEFAULT: Dict[str, object] = {}
    #: per-layer metrics that read 0 on every seed because of ``NON_DEFAULT``
    STRUCTURALLY_ZERO: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def prepare(self, reference: bool = False) -> Simulator:
        raise NotImplementedError

    def run(self, unit: Simulator, op_span: OpSpan = contextlib.nullcontext,
            clock: Clock = perf_counter) -> List[Op]:
        with op_span():
            start = clock()
            try:
                report = unit.run(self.application, placement="random", seed=self.seed)
            except Exception:  # an exception is a failed operation
                traceback.print_exc()
                return [(None, start, clock() - start)]
            seconds = clock() - start
        return [(report_digest(report), start, seconds)]


class Linpack512(_SimulationWorkload):
    """Predictive HPL on 512 single-core GigE nodes, one transfer in flight."""

    name = "linpack_512"
    RANKS = 512

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        problem = 32 * self.RANKS
        self.application = generate_linpack(problem_size=problem, block_size=problem // 16,
                                            num_tasks=self.RANKS)
        self.cluster = custom_cluster(num_nodes=self.RANKS, cores_per_node=1,
                                      technology="ethernet")

    def prepare(self, reference: bool = False) -> Simulator:
        technology = self.cluster.technology
        provider = ModelRateProvider(GigabitEthernetModel(), technology,
                                     incremental=not reference)
        config = EngineConfig(delta_rates=not reference)
        return Simulator(self.cluster, provider, technology=technology, config=config)


class EmulatorFatTreeLoaded(_SimulationWorkload):
    """Emulated all-to-all on a 4:1 fat tree under Poisson background load.

    The timed provider runs with ``warm_start=False`` (delta calendar and
    situation cache on).  Warm-started water-filling re-solves one coupling
    component, which rounds differently from a full solve in the last bit;
    on this symmetric all-to-all those one-ulp differences reorder tied
    completions, and 11 of seeds 0-63 then predict a different makespan than
    the oracle (seed 12: 11.437 s instead of 11.290 s).  Without warm starts
    every stored seed matches the oracle bit for bit.  So the default
    warm-start path is timed on no workload, and its counters read 0.
    """

    name = "emulator_fattree_loaded"
    NON_DEFAULT = {"EmulatorRateProvider.warm_start": False}
    STRUCTURALLY_ZERO = ("emulator.warm_starts", "emulator.warm_start_ratio")
    HOSTS = 64
    MESSAGE = 4 * MiB

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.application = pairwise_exchange_alltoall(
            Application(num_tasks=self.HOSTS, name=f"alltoall-{self.HOSTS}"), self.MESSAGE)
        self.cluster = custom_cluster(num_nodes=self.HOSTS, cores_per_node=1,
                                      technology="ethernet")

    def prepare(self, reference: bool = False) -> Simulator:
        technology = self.cluster.technology
        topology = FatTreeTopology(num_hosts=self.HOSTS, technology=technology,
                                   hosts_per_edge=8, uplinks_per_edge=2)
        background = BackgroundTrafficInjector(rate=2000.0, size=4 * MiB, seed=self.seed,
                                               max_flows=300, size_jitter=0.5)
        options = {"cache_size": 0} if reference else {}
        provider = EmulatorRateProvider(technology, topology, warm_start=False, **options)
        config = EngineConfig(delta_rates=not reference, injectors=(background,))
        return Simulator(self.cluster, provider, technology=technology, config=config)


class CampaignSweep:
    """A unit is one serial sweep of 270 scenarios sharing one penalty cache.

    Each scenario runs as its own one-point ``CampaignSpec`` through
    ``CampaignRunner(max_workers=1)``, all with the sweep's shared cache, so
    per-scenario host time is measured at the public entry point.
    """

    name = "campaign_sweep"
    NON_DEFAULT: Dict[str, object] = {}
    STRUCTURALLY_ZERO: Tuple[str, ...] = ()
    CACHE_ENTRIES = 65536  # CampaignRunner's own default capacity

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        seeds = sorted(random.Random(self.seed).sample(range(1, 1_000_000), 10))
        self.spec = CampaignSpec.from_dict({
            "name": f"benchmark-sweep-{self.seed}",
            "workloads": [
                {"kind": "synthetic", "name": "random",
                 "params": {"size": "4M", "num_communications": 16}},
                {"kind": "synthetic", "name": "hotspot", "params": {"size": "4M"}},
                {"kind": "synthetic", "name": "random-tree", "params": {"size": "4M"}},
                {"kind": "collective", "name": "alltoall", "params": {"size": "1M"}},
                {"kind": "collective", "name": "ring-allgather", "params": {"size": "1M"}},
                {"kind": "linpack", "name": "hpl",
                 "params": {"problem_size": 2000, "block_size": 250}},
            ],
            "networks": ["ethernet", "myrinet", "infiniband"],
            "models": ["auto"],
            "host_counts": [16],
            "placements": ["RRP", "RRN"],
            "seeds": seeds,
        })
        self.scenarios = self.spec.scenarios()
        self.points = [self._point(s) for s in self.scenarios]

    def _point(self, scenario) -> CampaignSpec:
        spec = self.spec
        point = CampaignSpec(
            name=scenario.scenario_id,
            workloads=[scenario.workload],
            networks=[scenario.network],
            models=[scenario.model],
            host_counts=([scenario.num_hosts] if scenario.num_hosts is not None
                         else spec.host_counts[:1]),
            placements=([scenario.placement] if scenario.placement is not None
                        else spec.placements[:1]),
            seeds=[scenario.seed] if scenario.seed is not None else spec.seeds[:1],
            interference=([scenario.interference] if scenario.interference is not None
                          else spec.interference[:1]),
            cores_per_node=spec.cores_per_node,
        )
        (expanded,) = point.scenarios()
        if expanded.axes() | {"scenario_id": None} != scenario.axes() | {"scenario_id": None}:
            raise ValueError(f"one-point spec of {scenario.scenario_id} expands differently")
        return point

    def prepare(self, reference: bool = False) -> Optional[PenaltyCache]:
        """The sweep's shared cache; ``None`` makes :meth:`run` the oracle."""
        return None if reference else PenaltyCache(max_entries=self.CACHE_ENTRIES)

    def run(self, unit: Optional[PenaltyCache], op_span: OpSpan = contextlib.nullcontext,
            clock: Clock = perf_counter) -> List[Op]:
        if unit is None:
            return [self._reference(s) for s in self.scenarios]
        outcomes = []
        for point in self.points:
            with op_span():
                start = clock()
                try:
                    store = CampaignRunner(point, cache=unit, max_workers=1).run()
                except Exception:  # an exception is a failed operation
                    traceback.print_exc()
                    store = None
                outcomes.append((store, start, clock() - start))
        ops: List[Op] = []
        for store, start, seconds in outcomes:
            if store is None or len(store.results) != 1:
                ops.append((None, start, seconds))
                continue
            metrics = store.results[0].metrics
            ops.append((metrics_digest(metrics["mean_penalty"], metrics["max_penalty"],
                                       metrics["total_time"]), start, seconds))
        return ops

    def _reference(self, scenario) -> Op:
        """Uncached whole-graph pricing, or a full-recompute simulation."""
        start = perf_counter()
        model = resolve_model(scenario.model, scenario.network)
        if not scenario.is_application:
            cost = LinearCostModel.for_technology(get_technology(scenario.network))
            prediction = model.predict(scenario.build_graph(), cost)
            digest = metrics_digest(prediction.mean_penalty, prediction.max_penalty,
                                    max(prediction.times.values(), default=0.0))
            return digest, start, perf_counter() - start
        cluster = custom_cluster(num_nodes=int(scenario.num_hosts or 1),
                                 cores_per_node=self.spec.cores_per_node,
                                 technology=scenario.network)
        provider = ModelRateProvider(model, cluster.technology, incremental=False)
        config = EngineConfig(delta_rates=False, injectors=scenario.build_injectors())
        simulator = Simulator(cluster, provider, technology=cluster.technology, config=config)
        report = simulator.run(scenario.build_application(),
                               placement=scenario.placement or "RRP",
                               seed=int(scenario.seed or 0))
        digest = metrics_digest(report.average_penalty, report.max_penalty, report.total_time)
        return digest, start, perf_counter() - start


WORKLOADS = {cls.name: cls for cls in (Linpack512, EmulatorFatTreeLoaded, CampaignSweep)}
