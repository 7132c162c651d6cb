"""Experiment runner: sweeps of schemes × networks × models.

:class:`ExperimentRunner` is a library entry point (exported as
``repro.ExperimentRunner``) for measured-versus-predicted sweeps: run a
scheme on the emulator of each network, predict it with each model, and
collect measured/predicted pairs for the analysis layer.  Its callers in
this repository are the test suites: ``tests/analysis`` and
``tests/integration``, which runs reduced versions of the paper's
experiments through it.
No benchmark, example or CLI command uses it: the benches under
``benchmarks/`` measure through :class:`PenaltyTool` and price through
:func:`~repro.core.incremental.cached_predict` themselves
(``bench_ablation_baselines.py``'s ``evaluate_models``, for one).

Predictions run through the campaign engine's cached pricing path
(:func:`repro.core.incremental.cached_predict`): one
:class:`~repro.core.incremental.PenaltyCache` is shared across every scheme,
network and model of a sweep, so near-identical graphs are priced once —
:attr:`ExperimentRunner.stats` reports the work actually performed.  The
predicted penalties and times are bit-exact with direct
:meth:`~repro.core.penalty.ContentionModel.predict` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.graph import CommunicationGraph
from ..core.incremental import EngineStats, PenaltyCache, cached_predict
from ..core.penalty import ContentionModel, LinearCostModel
from ..core.registry import model_for_network
from ..network.technologies import get_technology
from .penalty_tool import PenaltyMeasurement, PenaltyTool

__all__ = ["SchemeResult", "SweepResult", "ExperimentRunner"]


@dataclass
class SchemeResult:
    """Measured and predicted quantities for one scheme on one network."""

    scheme_name: str
    network: str
    measurement: PenaltyMeasurement
    predicted_penalties: Dict[str, float]
    predicted_times: Dict[str, float]
    measured_times: Dict[str, float]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self.measurement.penalties)

    def rows(self) -> List[Dict[str, float]]:
        """One dict per communication with measured/predicted values."""
        rows = []
        for name in self.names:
            measured_t = self.measured_times[name]
            predicted_t = self.predicted_times[name]
            rows.append({
                "communication": name,
                "measured_time": measured_t,
                "predicted_time": predicted_t,
                "measured_penalty": self.measurement.penalties[name],
                "predicted_penalty": self.predicted_penalties[name],
                "relative_error_percent": 100.0 * (predicted_t - measured_t) / measured_t,
            })
        return rows


@dataclass
class SweepResult:
    """Results of a sweep over several schemes and/or networks."""

    results: List[SchemeResult] = field(default_factory=list)

    def for_network(self, network: str) -> List[SchemeResult]:
        return [r for r in self.results if r.network == network]

    def for_scheme(self, scheme_name: str) -> List[SchemeResult]:
        return [r for r in self.results if r.scheme_name == scheme_name]


class ExperimentRunner:
    """Runs schemes against the emulator and a model for a set of networks.

    Parameters
    ----------
    networks, iterations, num_hosts:
        The emulated clusters to measure on.  A scheme run on another
        network is measured with the same ``iterations`` and ``num_hosts``.
    cache:
        Shared penalty cache for the model predictions.  ``None`` creates a
        private per-runner cache (still shared across every scheme of the
        runner's sweeps); pass an instance to pool several runners — or a
        :class:`~repro.campaign.persistence.PersistentPenaltyCache` to stay
        warm across processes.
    """

    def __init__(self, networks: Sequence[str] = ("ethernet", "myrinet", "infiniband"),
                 iterations: int = 3, num_hosts: int = 64,
                 cache: Optional[PenaltyCache] = None) -> None:
        self.networks = tuple(networks)
        self.iterations = iterations
        self.num_hosts = num_hosts
        #: one measurement tool per network, built with the runner's settings
        self.tools: Dict[str, PenaltyTool] = {}
        for name in self.networks:
            self._tool(name)
        self.cache = cache if cache is not None else PenaltyCache()
        #: model-evaluation / cache-traffic counters over every prediction
        self.stats = EngineStats()

    def cost_model(self, network: str) -> LinearCostModel:
        return LinearCostModel.for_technology(get_technology(network))

    def _tool(self, network: str) -> PenaltyTool:
        """The runner's measurement tool for ``network`` (built on first use)."""
        if network not in self.tools:
            self.tools[network] = PenaltyTool(network, iterations=self.iterations,
                                              num_hosts=self.num_hosts)
        return self.tools[network]

    def run_scheme(
        self,
        graph: CommunicationGraph,
        network: str,
        model: Optional[ContentionModel] = None,
    ) -> SchemeResult:
        """Measure ``graph`` on the emulator of ``network`` and predict it with ``model``."""
        model = model or model_for_network(network)
        return self.run_models_comparison(graph, network, [model])[model.name]

    def run_ladder(
        self,
        schemes: Mapping[str, CommunicationGraph],
        networks: Optional[Sequence[str]] = None,
    ) -> SweepResult:
        """Measure a family of schemes on every network (Figure 2 style sweep)."""
        sweep = SweepResult()
        for network in networks or self.networks:
            for graph in schemes.values():
                sweep.results.append(self.run_scheme(graph, network))
        return sweep

    def run_models_comparison(
        self,
        graph: CommunicationGraph,
        network: str,
        models: Sequence[ContentionModel],
    ) -> Dict[str, SchemeResult]:
        """Compare several models against one measurement of a scheme (baseline ablation)."""
        measurement = self._tool(network).measure(graph)
        cost = self.cost_model(network)
        results: Dict[str, SchemeResult] = {}
        for model in models:
            prediction = cached_predict(model, graph, cost, cache=self.cache,
                                        stats=self.stats)
            results[model.name] = SchemeResult(
                scheme_name=graph.name,
                network=network,
                measurement=measurement,
                predicted_penalties=prediction.penalties,
                predicted_times=prediction.times,
                measured_times=measurement.times,
            )
        return results
