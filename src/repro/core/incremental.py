"""Incremental contention engine.

The fluid simulators re-price the set of in-flight transfers on *every*
arrival and departure.  Rebuilding a :class:`CommunicationGraph` and
re-evaluating the full contention model each time makes large scenarios
O(events × flows) in model evaluations, even though a single event only
changes the penalties of one conflict component.  This module makes
re-pricing proportional to what actually changed:

* :class:`IncrementalPenaltyEngine` keeps **one record per transfer id** —
  endpoints, size, conflict component and current penalty — and the
  partition of inter-node transfers into conflict components under the
  model's :attr:`~repro.core.penalty.ContentionModel.component_rule`, held
  as per-resource sets of ids.  An arrival merges the components it
  touches, a departure re-partitions only its own component's remnants,
  and :meth:`~IncrementalPenaltyEngine.refresh` re-prices **only the dirty
  components**;
* a dirty component's cache key is built straight from its records, with
  the relabelling of
  :meth:`~repro.core.graph.CommunicationGraph.canonical_component`, so a
  cache hit costs one key build and one lookup.  Only a miss builds the
  component's :class:`CommunicationGraph` (:func:`in_flight_graph`) and calls
  :meth:`~repro.core.penalty.ContentionModel.component_penalties`;
* :class:`PenaltyCache` memoizes component evaluations keyed by the model
  identity and the canonical component snapshot, so the repeated contention
  situations of iterative workloads (LINPACK panels, collectives) are cache
  hits that cost no model evaluation at all;
* :class:`EngineStats` counts events, component/communication evaluations
  and cache traffic, which is how ``benchmarks/bench_scale_engine.py``
  demonstrates the speedup.

Exactness: for a model that is component-local under its declared rule,
evaluating a component's subgraph performs the *same* arithmetic on the
*same* values as evaluating the whole graph, and a cache hit replays the
result of an isomorphic component — the penalties are bit-identical to a
full recomputation (property-tested in
``tests/property/test_incremental_properties.py``).  Dirty components are
priced one at a time, in the order they were formed.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from time import perf_counter
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..exceptions import GraphError
from .graph import Communication, CommunicationGraph
from .penalty import ContentionModel, LinearCostModel, PenaltyPrediction

__all__ = [
    "EngineStats",
    "PenaltyCache",
    "IncrementalPenaltyEngine",
    "in_flight_graph",
    "cached_penalties",
    "cached_predict",
]


@dataclass
class EngineStats:
    """Counters describing how much work the incremental engine performed."""

    #: flow arrivals + departures applied to the live graph
    events: int = 0
    #: calls into the model (one per dirty component that missed the cache)
    component_evaluations: int = 0
    #: per-communication model evaluations actually performed (the unit the
    #: benchmark compares against the O(events × flows) full-recompute path)
    comm_evaluations: int = 0
    #: dirty components re-priced from a memoized isomorphic snapshot
    cache_hits: int = 0
    cache_misses: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "events": self.events,
            "component_evaluations": self.component_evaluations,
            "comm_evaluations": self.comm_evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


class PenaltyCache:
    """LRU memo of component penalty evaluations.

    Keys pair the model identity (:meth:`ContentionModel.memo_key`, so a
    cache shared across engines never leaks penalties between different
    models or parameterizations) with a canonical component snapshot
    (:meth:`CommunicationGraph.canonical_component`); values map the canonical
    ``(src_rank, dst_rank)`` endpoint pair of each communication to its
    penalty.  Communications of a component that share both endpoints are
    automorphic, hence share a penalty, so the endpoint pair identifies the
    penalty unambiguously; :meth:`store` verifies this and refuses to cache a
    component for which a model violates it.

    The cache is thread-safe, so one instance may serve several threads.
    The campaign runner shares none across workers: its worker processes
    start from a snapshot (:meth:`items`), and the parent stores their fresh
    entries (:mod:`repro.campaign.runner`).

    Telemetry: every entry carries a hit count, and the cache totals its
    lookups, hits, misses and evictions.  :meth:`stats` summarises them so a
    campaign can size ``max_entries`` from observed traffic — a large
    ``evictions`` count with many ``evicted_entry_hits`` means the LRU bound
    is discarding situations that were still earning hits, while a large
    ``entries_never_hit`` share means the cache is over-provisioned.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 0:
            raise GraphError(f"max_entries must be non-negative, got {max_entries}")
        self.max_entries = max_entries
        #: key -> [penalty mapping, hits earned], in LRU order (oldest first);
        #: the hit count rides in the entry so a hit hashes its key only twice
        self._entries: "OrderedDict[Hashable, list]" = OrderedDict()
        self._lock = threading.RLock()
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: hits that had been earned by entries the LRU bound later discarded
        self.evicted_entry_hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[Dict[Tuple[int, int], float]]:
        with self._lock:
            self.lookups += 1
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            entry[1] += 1
            self._entries.move_to_end(key)
            return entry[0]

    def store(
        self,
        key: Hashable,
        endpoint_ranks: Dict[Hashable, Tuple[int, int]],
        penalties: Dict[Hashable, float],
    ) -> None:
        """Memoize one component evaluation; silently skip unsound entries.

        ``endpoint_ranks`` and ``penalties`` are keyed alike, by
        communication name or transfer id.
        """
        if self.max_entries == 0:
            return
        mapping: Dict[Tuple[int, int], float] = {}
        for name, pair in endpoint_ranks.items():
            penalty = penalties[name]
            if pair in mapping and mapping[pair] != penalty:
                return  # model broke endpoint symmetry: not memoizable
            mapping[pair] = penalty
        self.put(key, mapping)

    def put(self, key: Hashable, mapping: Dict[Tuple[int, int], float]) -> None:
        """Insert an already-validated ``(src_rank, dst_rank) -> penalty`` entry.

        Used by the persistence layer and by the campaign runner to merge
        entries computed by worker processes; :meth:`store` remains the
        validating path for fresh model evaluations.
        """
        if self.max_entries == 0:
            return
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._entries[key] = [mapping, 0]
            else:  # a re-stored key keeps the hits it earned
                entry[0] = mapping
                self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                _, (_, hits) = self._entries.popitem(last=False)
                self.evictions += 1
                self.evicted_entry_hits += hits

    def items(self) -> List[Tuple[Hashable, Dict[Tuple[int, int], float]]]:
        """Snapshot of every entry in LRU order (oldest first)."""
        with self._lock:
            return [(key, dict(mapping)) for key, (mapping, _) in self._entries.items()]

    def entry_hits(self) -> List[Tuple[Hashable, int]]:
        """Per-entry hit counts in LRU order (oldest first)."""
        with self._lock:
            return [(key, hits) for key, (_, hits) in self._entries.items()]

    def stats(self) -> Dict[str, float]:
        """Summary of cache traffic and the per-entry hit distribution."""
        with self._lock:
            counts = [hits for _, hits in self._entries.values()]
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "lookups": self.lookups,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / self.lookups if self.lookups else 0.0,
                "evictions": self.evictions,
                "evicted_entry_hits": self.evicted_entry_hits,
                "live_entry_hits": sum(counts),
                "entries_never_hit": sum(1 for c in counts if c == 0),
                "max_entry_hits": max(counts, default=0),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class _Record:
    """The engine's state of one tracked transfer."""

    __slots__ = ("src", "dst", "size", "seq", "resources", "comp", "penalty")

    def __init__(self, src: int, dst: int, size: float, seq: int) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        #: arrival number: a miss builds its graph in arrival order
        self.seq = seq
        #: conflict resources held (none for an intra-node transfer)
        self.resources: Tuple[Hashable, ...] = ()
        #: conflict component id; ``None`` for an intra-node transfer
        self.comp: Optional[int] = None
        self.penalty = 1.0


#: the single resource every inter-node transfer holds under a model without
#: a component rule: the whole inter-node set is then one component
_WHOLE_GRAPH = (("all",),)


class IncrementalPenaltyEngine:
    """Maintain model penalties of a changing set of transfers.

    Transfers are identified by any hashable id; :meth:`add` and
    :meth:`remove` apply one arrival or departure, :meth:`refresh` prices
    what they dirtied, and ``tid in engine`` and :meth:`endpoints` read the
    tracked set.

    Parameters
    ----------
    model:
        The contention model to evaluate.  Its
        :attr:`~repro.core.penalty.ContentionModel.component_rule` decides
        the component partition; ``None`` degrades gracefully to whole-graph
        re-evaluation on every change (still benefiting from the memo cache
        when the model declares ``structural_penalties``).
    cache:
        Shared :class:`PenaltyCache`; pass the same instance to several
        engines to share memoized situations across simulations.  ``None``
        creates a private cache when the model is structural, and disables
        memoization otherwise.
    """

    def __init__(self, model: ContentionModel, cache: Optional[PenaltyCache] = None) -> None:
        self.model = model
        self.rule = model.component_rule
        if cache is None and model.structural_penalties:
            cache = PenaltyCache()
        self.cache = cache if model.structural_penalties else None
        # a cache may be shared between engines wrapping *different* models
        # (or differently parameterized ones): namespace every entry
        self._model_key = model.memo_key()
        self.stats = EngineStats()
        #: one record per tracked transfer id, in arrival order
        self._records: Dict[Hashable, _Record] = {}
        self._members: Dict[int, Set[Hashable]] = {}
        self._by_resource: Dict[Hashable, Set[Hashable]] = {}
        self._dirty: Set[int] = set()
        #: intra-node arrivals since the last refresh (penalty 1.0 on add, but
        #: still "re-priced" as far as the delta contract is concerned)
        self._fresh_intra: Dict[Hashable, None] = {}
        self._comp_ids = itertools.count()
        self._arrivals = itertools.count()
        #: repro.obs phase timer around dirty-component pricing; installed by
        #: set_metrics(), one pointer test per refresh when absent
        self._pricing_timer = None

    def set_metrics(self, registry) -> None:
        """Install the ``pricing.dirty_s`` phase timer from a metrics registry.

        Observability hook of the :mod:`repro.obs` layer: every dirty-set
        evaluation is timed.  Pass ``None`` to uninstall.
        """
        self._pricing_timer = (registry.timer("pricing.dirty_s")
                               if registry is not None else None)

    # ---------------------------------------------------------------- helpers
    def _resources(self, src: int, dst: int) -> Tuple[Hashable, ...]:
        if self.rule is None:
            # no locality promise: the whole graph is a single component
            return _WHOLE_GRAPH
        return CommunicationGraph.conflict_resources(src, dst, self.rule)

    def _new_component(self, members: Set[Hashable]) -> None:
        comp_id = next(self._comp_ids)
        self._members[comp_id] = members
        records = self._records
        for tid in members:
            records[tid].comp = comp_id
        self._dirty.add(comp_id)

    def _drop_component(self, comp_id: int) -> Set[Hashable]:
        self._dirty.discard(comp_id)
        return self._members.pop(comp_id)

    # ------------------------------------------------------------------ delta
    def add(self, tid: Hashable, src: int, dst: int, size: float) -> None:
        """Apply one arrival: transfer ``tid`` of ``size`` bytes from ``src`` to ``dst``."""
        records = self._records
        if tid in records:
            raise GraphError(f"transfer {tid!r} is already tracked")
        record = records[tid] = _Record(src, dst, size, next(self._arrivals))
        self.stats.events += 1
        if src == dst:
            # per the ContentionModel.penalties contract, intra-node
            # transfers are always penalty 1.0 (they never use the NIC)
            self._fresh_intra[tid] = None
            return
        merged = {tid}
        by_resource = self._by_resource
        record.resources = self._resources(src, dst)
        for resource in record.resources:
            occupants = by_resource.get(resource)
            if occupants is None:
                by_resource[resource] = {tid}
                continue
            # the occupants of a resource conflict, so they share a component
            comp_id = records[next(iter(occupants))].comp
            if comp_id in self._members:  # not merged through an earlier resource
                merged |= self._drop_component(comp_id)
            occupants.add(tid)
        self._new_component(merged)

    def remove(self, tid: Hashable) -> None:
        """Apply one departure."""
        record = self._records.pop(tid, None)
        if record is None:
            raise GraphError(f"unknown transfer {tid!r}")
        self.stats.events += 1
        if record.comp is None:
            self._fresh_intra.pop(tid, None)
            return
        by_resource = self._by_resource
        for resource in record.resources:
            occupants = by_resource[resource]
            occupants.discard(tid)
            if not occupants:
                del by_resource[resource]
        remnants = self._drop_component(record.comp)
        remnants.discard(tid)
        if not remnants:
            return
        # the departed transfer may have been the only bridge: re-partition
        # the remnants locally (never the rest of the graph).  Seeds are
        # taken in arrival order: the new components' ids decide the order
        # they are priced in, which must not follow the set's hash order
        records = self._records
        for seed in sorted(remnants, key=lambda member: records[member].seq):
            if seed not in remnants:
                continue
            remnants.discard(seed)
            component = {seed}
            frontier = [seed]
            while frontier:
                for resource in records[frontier.pop()].resources:
                    for neighbour in by_resource[resource]:
                        if neighbour in remnants:
                            remnants.discard(neighbour)
                            component.add(neighbour)
                            frontier.append(neighbour)
            self._new_component(component)

    # -------------------------------------------------------------- interface
    def refresh(self) -> Dict[Hashable, float]:
        """Price the dirty components and return **only** the re-priced penalties.

        The returned mapping covers exactly the transfers whose penalty may
        have changed since the previous refresh — the members of every
        component dirtied by :meth:`add`/:meth:`remove` (arrivals,
        departures, and the neighbours they merged with or split from), plus
        intra-node arrivals (always re-priced to 1.0).  Transfers of
        untouched components keep their stored penalty and are *not*
        returned, which is what lets a rate provider report "what changed"
        to the execution engine's event calendar without touching the rest
        of the active set.

        The mapping is in arrival order.  A component's members are a set,
        whose order follows string hashing for ids such as ``background#3``,
        and the calendar re-times (and traces) transfers in the order they
        are returned; sorting keeps a traced run's bytes independent of
        ``PYTHONHASHSEED``.
        """
        changed: Dict[Hashable, float] = {}
        if self._dirty:
            timer = self._pricing_timer
            if timer is None:
                self._price_dirty(changed)
            else:
                start = perf_counter()
                try:
                    self._price_dirty(changed)
                finally:
                    timer.observe(perf_counter() - start)
        if self._fresh_intra:
            for tid in self._fresh_intra:
                changed[tid] = 1.0
            self._fresh_intra.clear()
        if len(changed) > 1:
            records = self._records
            changed = dict(sorted(changed.items(),
                                  key=lambda item: records[item[0]].seq))
        return changed

    def penalties(self) -> Dict[Hashable, float]:
        """Current penalty of every tracked transfer (≥ 1), in arrival order.

        Re-evaluates only the components dirtied since the last call.
        """
        self.refresh()
        return {tid: record.penalty for tid, record in self._records.items()}

    def _price_dirty(self, changed: Dict[Hashable, float]) -> None:
        """Price every dirty component (through the cache) into ``changed``; clear the set."""
        records = self._records
        cache = self.cache
        stats = self.stats
        for comp_id in sorted(self._dirty):
            members = self._members[comp_id]
            if cache is None:
                penalties = self._evaluate(members)
            else:
                key, endpoint_ranks = self._canonical_key(members)
                cached = cache.get(key)
                if cached is not None:
                    stats.cache_hits += 1
                    for tid in members:
                        penalty = cached[endpoint_ranks[tid]]
                        records[tid].penalty = penalty
                        changed[tid] = penalty
                    continue
                stats.cache_misses += 1
                penalties = self._evaluate(members)
                cache.store(key, endpoint_ranks, penalties)
            for tid in members:
                penalty = penalties[tid]
                records[tid].penalty = penalty
                changed[tid] = penalty
        self._dirty.clear()

    def _canonical_key(
        self, members: Set[Hashable]
    ) -> Tuple[Hashable, Dict[Hashable, Tuple[int, int]]]:
        """Cache key of a component and each member's canonical endpoint pair.

        Built straight from the records with the relabelling of
        :meth:`CommunicationGraph.canonical_component` (hosts ranked in
        sorted order), so keys match those of static graphs, persisted
        caches and the campaign runner's pre-priced components.
        """
        records = self._records
        if len(members) == 1:  # the common case: a transfer alone on its hosts
            (tid,) = members
            record = records[tid]
            pair = (0, 1) if record.src < record.dst else (1, 0)
            return (self._model_key, (pair,)), {tid: pair}
        hosts = set()
        for tid in members:
            record = records[tid]
            hosts.add(record.src)
            hosts.add(record.dst)
        rank = {host: index for index, host in enumerate(sorted(hosts))}
        endpoint_ranks = {}
        for tid in members:
            record = records[tid]
            endpoint_ranks[tid] = (rank[record.src], rank[record.dst])
        return (self._model_key, tuple(sorted(endpoint_ranks.values()))), endpoint_ranks

    def _evaluate(self, members: Set[Hashable]) -> Dict[Hashable, float]:
        """Price one component through the model: the cache-miss path.

        The model sees the component's graph as a full recomputation would
        hand it over (:func:`in_flight_graph`: arrival order, names
        ``str(tid)``, sizes rounded up); a model without a component rule
        sees the whole tracked set, intra-node transfers included.
        """
        records = self._records
        if self.rule is None:
            priced = list(records.items())
        else:
            priced = sorted(((tid, records[tid]) for tid in members),
                            key=lambda item: item[1].seq)
        graph = in_flight_graph((tid, r.src, r.dst, r.size) for tid, r in priced)
        names = {tid: str(tid) for tid in members}
        evaluated = self.model.component_penalties(graph, names.values())
        self.stats.component_evaluations += 1
        self.stats.comm_evaluations += len(members)
        return {tid: evaluated[name] for tid, name in names.items()}

    # ------------------------------------------------------------------ misc
    @property
    def components(self) -> List[Tuple[Hashable, ...]]:
        """Current component partition (sorted tuples, for inspection/tests)."""
        return sorted(tuple(sorted(m)) for m in self._members.values())

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, tid: Hashable) -> bool:
        return tid in self._records

    def endpoints(self, tid: Hashable) -> Tuple[int, int]:
        """The ``(src, dst)`` hosts of tracked transfer ``tid``."""
        record = self._records[tid]
        return record.src, record.dst

    def reset(self) -> None:
        """Forget every tracked transfer (the memo cache survives)."""
        self._records.clear()
        self._members.clear()
        self._by_resource.clear()
        self._dirty.clear()
        self._fresh_intra.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<IncrementalPenaltyEngine model={self.model.name!r} "
            f"transfers={len(self._records)} components={len(self._members)}>"
        )


def in_flight_graph(
    transfers: Iterable[Tuple[Hashable, int, int, float]]
) -> CommunicationGraph:
    """The communication graph of ``(tid, src, dst, size)`` transfers in flight.

    Communications are named ``str(tid)`` and sized in whole bytes, rounded
    *up* so a sub-byte remainder never becomes a size-0 communication.
    """
    graph = CommunicationGraph(name="in-flight")
    for tid, src, dst, size in transfers:
        graph.add(Communication(str(tid), src, dst, int(math.ceil(size))))
    return graph


def _evaluate_component(job: Tuple) -> Dict[str, float]:
    """Evaluate one conflict component (module-level so process pools can pickle it).

    ``job`` is ``(model, component_subgraph, names)``; for a component-local
    model, pricing the component's subgraph is exactly equivalent to pricing
    it inside the full graph.
    """
    model, graph, names = job
    return model.component_penalties(graph, list(names))


def cached_penalties(
    model: ContentionModel,
    graph: CommunicationGraph,
    cache: Optional[PenaltyCache] = None,
    stats: Optional[EngineStats] = None,
) -> Dict[str, float]:
    """Penalties of a static graph through the component/cache machinery.

    One-shot counterpart of :class:`IncrementalPenaltyEngine` for callers
    holding a fixed :class:`CommunicationGraph` (experiment sweeps, campaign
    scenarios): the graph is partitioned into conflict components under the
    model's rule, isomorphic components are served from ``cache``, and the
    cache misses are evaluated one component at a time.  Bit-exact with
    ``model.penalties(graph)`` for every shipped model (component locality
    and snapshot replay are both exact).
    """
    if stats is None:
        stats = EngineStats()
    stats.events += 1
    result: Dict[str, float] = {}
    inter_names: List[str] = []
    for comm in graph:
        if comm.is_intra_node:
            result[comm.name] = 1.0
        else:
            inter_names.append(comm.name)
    if not inter_names:
        return result
    rule = model.component_rule
    if rule is None:
        components = [tuple(sorted(inter_names))]
    else:
        components = graph.conflict_components(rule)
    use_cache = cache is not None and model.structural_penalties
    model_key = model.memo_key() if use_cache else None
    # every lookup precedes every evaluation: two isomorphic components of
    # one graph are both misses, which is what the work counters record
    pending: List[Tuple[Tuple[str, ...], Optional[Hashable], Optional[Dict[str, Tuple[int, int]]]]] = []
    for names in components:
        if use_cache:
            component_key, endpoint_ranks = graph.canonical_component(names)
            key = (model_key, component_key)
            cached = cache.get(key)
            if cached is not None:
                stats.cache_hits += 1
                for name in names:
                    result[name] = cached[endpoint_ranks[name]]
                continue
            stats.cache_misses += 1
            pending.append((names, key, endpoint_ranks))
        else:
            pending.append((names, None, None))
    for names, key, endpoint_ranks in pending:
        evaluated = model.component_penalties(graph, list(names))
        stats.component_evaluations += 1
        stats.comm_evaluations += len(names)
        if key is not None and cache is not None:
            cache.store(key, endpoint_ranks, evaluated)
        for name in names:
            result[name] = evaluated[name]
    # graph insertion order, so aggregates summed over the dict do not depend
    # on the hit/miss pattern (floating-point addition is order-sensitive)
    return {comm.name: result[comm.name] for comm in graph}


def cached_predict(
    model: ContentionModel,
    graph: CommunicationGraph,
    cost_model: Optional[LinearCostModel] = None,
    cache: Optional[PenaltyCache] = None,
    stats: Optional[EngineStats] = None,
) -> PenaltyPrediction:
    """Cache-aware counterpart of :meth:`ContentionModel.predict`.

    Identical penalties and times; the per-communication ``details``
    diagnostics are skipped (they bypass the component cache and none of the
    sweep consumers read them).
    """
    pens = cached_penalties(model, graph, cache=cache, stats=stats)
    times: Dict[str, float] = {}
    if cost_model is not None:
        for comm in graph:
            times[comm.name] = pens[comm.name] * cost_model.time(comm.size)
    return PenaltyPrediction(
        model_name=model.name,
        graph_name=graph.name,
        penalties=pens,
        times=times,
    )
