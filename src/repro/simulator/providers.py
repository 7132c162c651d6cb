"""Rate providers for the execution engine.

The execution engine (:mod:`repro.simulator.engine`) advances in-flight
transfers using instantaneous rates supplied by a *rate provider*.  Two
providers exist:

* :class:`ModelRateProvider` — the **predicted** side: it prices the
  transfers currently in flight with a contention model (§V) and converts
  each penalty into a rate (``single_stream_bandwidth / penalty``).
  Intra-node transfers use the memory path.
* :class:`~repro.network.allocator.EmulatorRateProvider` — the **measured**
  side (calibrated fluid emulator), defined with the emulator in
  :mod:`repro.network.allocator` and imported only by runs that emulate.

Both implement the delta contract of :mod:`repro.network.fluid`:
``update(added, removed)`` validates a flow delta in O(delta), applies it,
and returns the rates of exactly the transfers that were re-priced, so the
event-calendar loops only re-time what actually changed; ``reset()`` drops
the tracked set.

By default the model side is *incremental*: the provider hands each arrival
and departure to an :class:`~repro.core.incremental.IncrementalPenaltyEngine`
and prices a flush in one pass: it validates the delta against the engine's
record mapping, applies it, refreshes, and turns each re-priced penalty into
a rate with the hosts read from that transfer's record.  The engine keeps
one record per transfer, the occupancy set of each conflict resource and the
set of dirty transfers (arrivals, and the transfers a departure leaves on its
resources).  Its refresh walks the conflict component of each dirty transfer
over the occupancy sets, which finds every component the delta changed
(each piece a departure leaves holds one of its neighbours), and prices each
once.  Repeated contention situations come from a memoized snapshot cache,
looked up once per component shape per refresh; a transfer alone on its
resources is looked up once per orientation per engine, then priced from
the engine's own slot.  A cache hit builds no
graph; only a miss prices a
:class:`~repro.core.graph.CommunicationGraph`.  Pass ``incremental=False`` to
force the historical rebuild-everything behaviour, the reference the
incremental path is checked against: the two are bit-exact, which
``tests/property/test_incremental_properties.py`` asserts over random
arrival/departure sequences, and the delta API is bit-exact with a cold
provider fed the whole set, which ``tests/property/test_delta_contract.py``
asserts.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence

from ..core.graph import CommunicationGraph
from ..core.incremental import (
    EngineStats,
    IncrementalPenaltyEngine,
    PenaltyCache,
    in_flight_graph,
)
from ..core.penalty import ContentionModel
from ..network.fluid import Transfer, validate_delta
from ..network.technologies import NetworkTechnology, get_technology

__all__ = ["ModelRateProvider"]


class ModelRateProvider:
    """Turn a contention model into an instantaneous rate allocator.

    Parameters
    ----------
    model:
        The contention model pricing the in-flight communication graph.
    technology:
        Network technology (or its name) supplying the single-stream and
        memory-path bandwidths.
    incremental:
        When True (default), re-price only the conflict components dirtied
        by transfer arrivals/departures and memoize component evaluations
        by canonical snapshot; ``update`` then reports exactly the dirtied
        membership.  When False, rebuild the graph and re-evaluate the
        whole model on every delta (the pre-incremental behaviour, kept for
        verification and benchmarking; every active transfer is then
        re-priced — and reported — on each call).
    cache:
        Optional shared :class:`~repro.core.incremental.PenaltyCache`; lets
        several providers (e.g. one per simulated run, or every scenario of
        a :class:`~repro.campaign.runner.CampaignRunner`) reuse each other's
        memoized contention situations.
    """

    def __init__(
        self,
        model: ContentionModel,
        technology: NetworkTechnology | str,
        incremental: bool = True,
        cache: PenaltyCache | None = None,
    ) -> None:
        if isinstance(technology, str):
            technology = get_technology(technology)
        self.model = model
        self.technology = technology
        self.incremental = bool(incremental)
        self._engine: IncrementalPenaltyEngine | None = (
            IncrementalPenaltyEngine(model, cache=cache) if self.incremental else None
        )
        # in full-recompute mode the stats only count communication
        # evaluations, so both modes report the same work metric
        self._full_stats = EngineStats()
        #: the tracked active set of the full-recompute mode; the incremental
        #: engine keeps its own, one record per transfer
        self._active: Dict[Hashable, Transfer] = {}

    @property
    def stats(self) -> EngineStats:
        """Work counters (model evaluations, cache traffic) of this provider."""
        if self._engine is not None:
            return self._engine.stats
        return self._full_stats

    def register_metrics(self, registry, name: str = "pricing") -> None:
        """Join a :class:`repro.obs.MetricsRegistry`.

        Registers the engine work counters as a live source under ``name``
        and (in incremental mode) installs the ``pricing.dirty_s`` phase
        timer around dirty-component evaluation.  Pass ``None`` to
        uninstall the timer.
        """
        if registry is None:
            if self._engine is not None:
                self._engine.set_metrics(None)
            return
        registry.register_source(name, lambda: self.stats.snapshot())
        if self._engine is not None:
            self._engine.set_metrics(registry)
            if self._engine.cache is not None:
                registry.register_source("penalty_cache",
                                         self._engine.cache.stats)

    @staticmethod
    def _graph_from_transfers(active: Sequence[Transfer]) -> CommunicationGraph:
        return in_flight_graph((t.transfer_id, t.src, t.dst, t.size) for t in active)

    # ---------------------------------------------------------------- deltas
    def reset(self) -> None:
        """Forget the tracked active set (memoized situations survive)."""
        if self._engine is not None:
            self._engine.reset()
        else:
            self._active.clear()

    def update(
        self, added: Sequence[Transfer], removed: Sequence[Hashable]
    ) -> Dict[Hashable, float]:
        """Apply a flow delta; return the rates of the re-priced transfers.

        With the incremental engine the returned mapping covers exactly the
        membership of the conflict components the delta dirtied (plus
        intra-node arrivals); in full-recompute mode every active transfer
        is re-priced and returned.

        The whole delta is validated before any state changes, so a rejected
        call leaves the tracked set untouched and the caller (e.g. a
        :class:`~repro.network.fluid.TransferCalendar` holding its pending
        queues) can retry.
        """
        # a rate is the path's bandwidth over the penalty (at least 1): the
        # memory path within a node, the single-stream bandwidth across nodes
        memory = self.technology.memory_bandwidth
        stream = self.technology.single_stream_bandwidth
        changed: Dict[Hashable, float] = {}
        engine = self._engine
        if engine is not None:
            records = engine.records
            validate_delta(records, added, removed)
            for tid in removed:
                engine.remove(tid)
            for transfer in added:
                engine.add(transfer.transfer_id, transfer.src, transfer.dst, transfer.size)
            for tid, penalty in engine.refresh().items():
                record = records[tid]
                changed[tid] = ((memory if record.src == record.dst else stream)
                                / max(1.0, penalty))
            return changed
        active = self._active
        validate_delta(active, added, removed)
        for tid in removed:
            del active[tid]
        for transfer in added:
            active[transfer.transfer_id] = transfer
        if not active:
            return changed
        active_list = list(active.values())
        graph = self._graph_from_transfers(active_list)
        self._full_stats.events += 1
        self._full_stats.component_evaluations += 1
        self._full_stats.comm_evaluations += len(active_list)
        by_name = self.model.penalties(graph)
        for transfer in active_list:
            penalty = by_name[str(transfer.transfer_id)]
            changed[transfer.transfer_id] = (
                (memory if transfer.src == transfer.dst else stream) / max(1.0, penalty))
        return changed
