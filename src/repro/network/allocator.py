"""Technology-aware rate allocation — the heart of the cluster emulator.

Given the set of transfers currently in flight, the allocator distributes
instantaneous bandwidth the way the emulated interconnect would:

* every inter-node transfer consumes the TX port of its source NIC, the RX
  port of its destination NIC and the fat-tree links in between;
* every intra-node transfer consumes the memory bus of its host;
* a single transfer cannot exceed the protocol's single-stream bandwidth
  (``single_stream_efficiency × link_bandwidth``);
* income/outgo interference degrades, per the calibrated
  :class:`~repro.network.technologies.SharingBehaviour`:

  - the individual cap of a transfer whose destination node is also
    transmitting (``duplex_flow_slowdown``),
  - the TX capacity of a node receiving at least ``reverse_threshold``
    transfers (``tx_capacity_loss``),
  - the RX capacity of a node receiving at least ``reverse_threshold``
    transfers while transmitting (``rx_capacity_loss``);

* the remaining capacity is shared max-min fair
  (:func:`repro.network.sharing.water_fill_arrays`, bit-identical to the
  reference :func:`~repro.network.sharing.max_min_allocation`).

With the shipped calibration the allocator reproduces the penalty ladder the
paper measured on its three clusters (Figure 2) to within a few percent; see
``benchmarks/bench_fig2_penalty_ladder.py`` and its report,
``benchmarks/results/fig2_penalty_ladder.txt``.

Like the model-side provider, the allocator memoizes its max-min solutions
in a :class:`~repro.core.incremental.PenaltyCache` (the same LRU-with-
symmetry-check mechanism the contention models use, namespaced by technology
and topology so a cache may be shared across providers): the rate vector
only depends on the multiset of ``(src, dst)`` endpoint pairs of the active
transfers (sizes and transfer ids never enter the allocation, and
same-endpoint flows receive equal rates in the unique max-min solution), so
repeated sharing situations — ubiquitous in iterative workloads — are
dictionary lookups instead of solver runs.

The provider is **delta-scaled**: the endpoint-pair multiset that keys the
memo is maintained incrementally (a sorted pair list updated by bisection
per arrival/departure, instead of re-sorting the active set on every query),
per-transfer rates are kept in an incrementally-updated map, and the changed
set an ``update(added, removed)`` call reports is derived by value-diffing
the allocation *per endpoint pair* against the previous one — so a memoized
flush costs O(delta + distinct pairs) instead of O(active × log active).
The full-set ``rates(active)`` call is a compatibility shim that diffs the
requested set against the tracked one and applies the delta.

Everything the solver reads is kept between flushes as well.
``_track``/``_untrack`` give every capacity resource a persistent integer
slot (its base capacity and the largest cap a flow on it can have in two
plain lists), store each transfer's slot tuple and keep, per occupied
slot, the set of transfer ids on it, plus per-host transmit/receive
counts.  From those they keep the solver's inputs up to date: every
flow's cap in tracking order (re-derived for the flows into a host when
it starts or stops transmitting), every occupied slot's capacity with the
income/outgo degradations applied (re-derived for the two hosts of each
arriving or departing flow), and the *binding set*: the occupied slots
that :func:`~repro.network.sharing.can_bind` keeps, re-checked whenever a
slot's flow count or capacity changes.  On a loaded fat tree most NIC and
fabric slots cannot bind (their flows' single-stream caps add up to less
than the capacity), and leaving them out keeps every rate bit-identical
(the argument is in :mod:`repro.network.sharing`).  So one flush costs the
delta's upkeep plus one solve over the slots that can bind.

On a cache miss the water-filling is additionally *warm-started*: when
exactly one flow arrived or departed since the previous allocation, only the
coupling component of the changed flow (flows transitively sharing an
endpoint host or a fabric link with it) is re-solved and every other flow
keeps its previous rate.  Max-min allocations decompose exactly over
coupling components — the income/outgo capacity degradations and duplex caps
only couple flows through shared hosts — so the warm-started rates equal a
full re-solve up to floating-point summation order.
"""

from __future__ import annotations

import bisect
from time import perf_counter
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..core.incremental import PenaltyCache
from ..exceptions import SimulationError
from .fluid import Transfer, validate_delta
from .sharing import can_bind, water_fill_arrays
from .technologies import NetworkTechnology
from .topology import CrossbarTopology, Topology

__all__ = ["EmulatorRateProvider"]


class EmulatorRateProvider:
    """Rate provider implementing the calibrated sharing behaviour of a technology.

    Parameters
    ----------
    technology, topology, num_hosts:
        The emulated interconnect and its wiring (crossbar by default).
    cache_size:
        Number of memoized sharing situations in the private cache
        (0 disables memoization).  Ignored when ``cache`` is given — a
        shared cache arrives with its own capacity.  Call
        :meth:`invalidate_cache` after mutating the topology or the
        technology in place.
    cache:
        Optional shared :class:`~repro.core.incremental.PenaltyCache`;
        entries are namespaced by technology and topology, so providers of
        one sweep can pool their memoized allocations.  Takes precedence
        over ``cache_size``.
    warm_start:
        Re-solve only the changed flow's coupling component when exactly one
        flow arrived/departed (see the module docstring); pass ``False`` to
        force a full water-filling on every miss.
    """

    def __init__(self, technology: NetworkTechnology, topology: Topology | None = None,
                 num_hosts: int = 64, cache_size: int = 4096,
                 cache: Optional[PenaltyCache] = None,
                 warm_start: bool = True) -> None:
        self.technology = technology
        self.topology = topology or CrossbarTopology(num_hosts=num_hosts, technology=technology)
        if self.topology.technology is not technology:
            # keep the two consistent; the topology carries link capacities
            self.topology.technology = technology
        self.cache_size = int(cache_size)
        self._owns_cache = cache is None
        self._rate_cache = cache if cache is not None else PenaltyCache(
            max_entries=max(0, self.cache_size)
        )
        # the epoch scopes this provider's entries; bumping it on
        # invalidation retires them without touching a shared cache
        self._epoch = 0
        self._rebuild_namespace()
        self.cache_hits = 0
        self.cache_misses = 0
        self.warm_start = bool(warm_start)
        self.warm_starts = 0
        #: tracked active set, for the delta contract (:meth:`update`)
        self._active: Dict[Hashable, Transfer] = {}
        #: the flow–resource incidence kept between flushes: the persistent
        #: slot of every referenced resource (never released, so a new
        #: resource's slot is the index's length) with its base capacity,
        #: each tracked transfer's slot tuple, the transfer ids on every
        #: occupied slot, and per-host directional counts
        self._res_slots: Dict[Hashable, int] = {}
        self._slot_caps: List[float] = []
        #: per slot, the largest cap a flow on it can have: the memory
        #: bandwidth on a memory bus (intra-node copies only), the
        #: single-stream bandwidth on NIC and fabric slots
        self._slot_ceilings: List[float] = []
        self._slots_of_tid: Dict[Hashable, Tuple[int, ...]] = {}
        self._tids_of_slot: Dict[int, Set[Hashable]] = {}
        self._counts: Dict[int, Dict[str, int]] = {}
        #: the solver's inputs, kept live too: each tracked flow's cap in
        #: tracking order (ties in the solver break in this order), each
        #: occupied slot's degraded capacity, and the occupied slots that
        #: can bind with their capacities (the only ones a solve sees)
        self._caps: Dict[Hashable, float] = {}
        self._capacities: Dict[int, float] = {}
        self._binding: Dict[int, float] = {}
        #: incremental endpoint multiset: pair per transfer, transfers per
        #: pair, and the sorted pair list that keys the memo (bisect-updated)
        self._pair_of_tid: Dict[Hashable, Tuple[int, int]] = {}
        self._tids_of_pair: Dict[Tuple[int, int], Dict[Hashable, None]] = {}
        self._sorted_pairs: List[Tuple[int, int]] = []
        #: incrementally maintained per-transfer rates and the per-pair
        #: allocation they came from (the value-diff baseline); ``None``
        #: baseline = report every pair on the next allocation
        self._rates_by_tid: Dict[Hashable, float] = {}
        self._last_by_pair: Optional[Dict[Tuple[int, int], float]] = None
        #: True once an allocation exists (warm starts need a predecessor)
        self._primed = False
        #: repro.obs phase timer around the water-fill solve; installed by
        #: register_metrics(), one pointer test per solve when absent
        self._solve_timer = None

    def register_metrics(self, registry, name: str = "emulator") -> None:
        """Join a :class:`repro.obs.MetricsRegistry`.

        Registers the allocation cache / warm-start counters as a live
        source under ``name`` and installs the ``waterfill.solve_s`` phase
        timer around every allocation solve.  Pass ``None`` to uninstall
        the timer (the source stays until re-registered).
        """
        if registry is None:
            self._solve_timer = None
            return
        registry.register_source(name, lambda: {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "warm_starts": self.warm_starts,
            "active": len(self._active),
        })
        self._solve_timer = registry.timer("waterfill.solve_s")

    def _rebuild_namespace(self) -> None:
        self._namespace = (
            "emulator-rates", self._epoch, self.technology, self.topology.memo_key()
        )

    def invalidate_cache(self) -> None:
        """Drop memoized allocations (required after in-place reconfiguration).

        A private cache is cleared outright; on a shared cache only this
        provider's entries are retired (by bumping the namespace epoch), so
        other providers pooling the cache keep their valid entries.  The
        warm-start state and the stored rates are dropped either way, so the
        next query re-solves and re-reports everything.
        """
        self._epoch += 1
        self._rebuild_namespace()
        if self._owns_cache:
            self._rate_cache.clear()
        self._rates_by_tid = {}
        self._last_by_pair = None
        self._primed = False
        # the cached routes, capacities and caps mirror the (possibly
        # mutated) topology/technology: rebuild them for the tracked transfers
        self._res_slots = {}
        self._slot_caps = []
        self._slot_ceilings = []
        self._slots_of_tid = {}
        self._tids_of_slot = {}
        self._capacities = {}
        self._binding = {}
        for transfer in self._active.values():
            self._index(transfer)
        self._caps = {tid: self._cap(t) for tid, t in self._active.items()}
        for host in self._counts:
            self._derate(host)
        for slot in self._capacities:
            self._rebind(slot)

    # ---------------------------------------------------------------- helpers
    def _resource_slot(self, resource: Hashable, ceiling: float) -> int:
        """Persistent integer slot of a capacity resource (allocated, with its
        base capacity and the ``ceiling`` of the flows that use it, on first
        reference)."""
        slot = self._res_slots.get(resource)
        if slot is None:
            slot = self._res_slots[resource] = len(self._slot_caps)
            self._slot_caps.append(float(self.topology.resource_capacity(resource)))
            self._slot_ceilings.append(ceiling)
        return slot

    def _resources_for(self, transfer: Transfer) -> Tuple[Hashable, ...]:
        """Capacity constraints the transfer consumes (distinct: a route never
        repeats a resource)."""
        if transfer.is_intra_node:
            return (self.topology.memory_resource(transfer.src),)
        tx_key, _ = self.topology.nic_resources(transfer.src)
        _, rx_key = self.topology.nic_resources(transfer.dst)
        return (tx_key, rx_key) + tuple(
            self.topology.fabric_route(transfer.src, transfer.dst)
        )

    # -------------------------------------------------------------- interface
    def _situation_key(self) -> Hashable:
        """Memo key of the tracked situation — O(active) tuple copy of the
        incrementally maintained sorted pair list (no re-sort)."""
        return (self._namespace, tuple(self._sorted_pairs))

    def _solve(self, active: Sequence[Transfer]) -> Dict[Hashable, float]:
        timer = self._solve_timer
        if timer is None:
            return self._solve_impl(active)
        start = perf_counter()
        try:
            return self._solve_impl(active)
        finally:
            timer.observe(perf_counter() - start)

    def _solve_impl(self, active: Sequence[Transfer]) -> Dict[Hashable, float]:
        """Water-fill ``active`` over the inputs kept by ``_track``/``_untrack``.

        For the whole tracked set that is one call on the live caps,
        incidence and binding set.  ``active`` may instead be one coupling
        component (the warm-start path), which is closed under shared
        resources: every transfer on a resource one of its flows uses
        belongs to it.  So the per-slot sets of its slots hold exactly its
        flows and serve the solver unchanged, and the whole-set directional
        counts agree with the component's on every host a component flow
        touches, so the live caps and degraded capacities are the
        component's own; they are filtered down to it.
        """
        caps, capacities = self._caps, self._binding
        if len(active) != len(caps):
            caps = {t.transfer_id: caps[t.transfer_id] for t in active}
            capacities = {
                slot: capacities[slot]
                for tid in caps for slot in self._slots_of_tid[tid] if slot in capacities
            }
        return water_fill_arrays(caps, self._slots_of_tid, self._tids_of_slot, capacities)

    # ------------------------------------------------------------ warm start
    def _coupling_keys(self, src: int, dst: int) -> Tuple[Hashable, ...]:
        """Opaque keys through which a flow couples with other flows.

        Two flows interact (directly or through the income/outgo capacity
        degradations) only when they share one of these keys, so connected
        components of key co-occupancy partition the max-min allocation.
        """
        if src == dst:
            return (("mem", src),)
        keys: List[Hashable] = [("host", src), ("host", dst)]
        keys.extend(("link", r) for r in self.topology.fabric_route(src, dst))
        return tuple(keys)

    def _coupled_component(
        self, active: Sequence[Transfer], changed_pair: Tuple[int, int]
    ) -> Set[Hashable]:
        """Ids of the active flows transitively coupled with ``changed_pair``."""
        by_key: Dict[Hashable, List[Transfer]] = {}
        for transfer in active:
            for key in self._coupling_keys(transfer.src, transfer.dst):
                by_key.setdefault(key, []).append(transfer)
        component: Set[Hashable] = set()
        seen_keys: Set[Hashable] = set()
        frontier: List[Hashable] = list(self._coupling_keys(*changed_pair))
        while frontier:
            key = frontier.pop()
            if key in seen_keys:
                continue
            seen_keys.add(key)
            for transfer in by_key.get(key, ()):
                if transfer.transfer_id not in component:
                    component.add(transfer.transfer_id)
                    frontier.extend(self._coupling_keys(transfer.src, transfer.dst))
        return component

    def _solve_incremental(
        self,
        active: Sequence[Transfer],
        changed_pairs: Sequence[Tuple[int, int]],
    ) -> Dict[Hashable, float]:
        """Full solve, or a component-scoped re-solve after a one-flow delta."""
        if not self.warm_start or not self._primed or len(changed_pairs) != 1:
            return self._solve(active)
        rates: Dict[Hashable, float] = {}
        component = self._coupled_component(active, changed_pairs[0])
        for transfer in active:
            tid = transfer.transfer_id
            if tid in component:
                continue
            rate = self._rates_by_tid.get(tid)
            if rate is None:  # bookkeeping gap: fall back to the exact path
                return self._solve(active)
            rates[tid] = rate
        scoped = [t for t in active if t.transfer_id in component]
        if scoped:
            rates.update(self._solve(scoped))
        self.warm_starts += 1
        return rates

    # --------------------------------------------------------------- deltas
    def reset(self) -> None:
        """Forget the tracked active set and warm-start state (memo survives)."""
        self._active = {}
        self._pair_of_tid = {}
        self._tids_of_pair = {}
        self._sorted_pairs = []
        self._rates_by_tid = {}
        self._last_by_pair = None
        self._primed = False
        self._slots_of_tid = {}
        self._tids_of_slot = {}
        self._counts = {}
        self._caps = {}
        self._capacities = {}
        self._binding = {}

    def _index(self, transfer: Transfer) -> Tuple[int, ...]:
        """Enter a transfer's slots into the incidence (a newly occupied
        slot at its base capacity) and return them."""
        tid = transfer.transfer_id
        technology = self.technology
        ceiling = (technology.memory_bandwidth if transfer.is_intra_node
                   else technology.single_stream_bandwidth)
        slots = tuple(self._resource_slot(r, ceiling) for r in self._resources_for(transfer))
        self._slots_of_tid[tid] = slots
        for slot in slots:
            tids = self._tids_of_slot.get(slot)
            if tids is None:
                self._tids_of_slot[slot] = {tid}
                self._capacities[slot] = self._slot_caps[slot]
            else:
                tids.add(tid)
        return slots

    def _cap(self, transfer: Transfer) -> float:
        """A tracked transfer's rate ceiling: the memory bandwidth for an
        intra-node copy, else the single-stream bandwidth, slowed down while
        its destination transmits (duplex rule)."""
        technology = self.technology
        if transfer.is_intra_node:
            cap = technology.memory_bandwidth
        else:
            cap = technology.single_stream_bandwidth
            dst_counts = self._counts.get(transfer.dst)
            if dst_counts is not None and dst_counts["tx"] >= 1:
                cap = cap * (1.0 - technology.sharing.duplex_flow_slowdown)
        if cap <= 0:
            raise SimulationError(f"flow {transfer.transfer_id!r} has non-positive cap {cap}")
        return cap

    def _rebind(self, slot: int) -> None:
        """Keep an occupied slot in the binding set unless it cannot bind."""
        capacity = self._capacities[slot]
        if can_bind(capacity, len(self._tids_of_slot[slot]), self._slot_ceilings[slot]):
            self._binding[slot] = capacity
        else:
            self._binding.pop(slot, None)

    def _derate(self, host: int) -> None:
        """Re-derive the capacities of ``host``'s occupied NIC slots (the
        income/outgo degradations) and whether they can bind."""
        sharing = self.technology.sharing
        counts = self._counts.get(host)
        degraded = (counts is not None and counts["rx"] >= sharing.reverse_threshold
                    and counts["tx"] >= 1)
        tx_key, rx_key = self.topology.nic_resources(host)
        for key, loss in ((tx_key, sharing.tx_capacity_loss),
                          (rx_key, sharing.rx_capacity_loss)):
            slot = self._res_slots.get(key)
            if slot in self._capacities:
                base = self._slot_caps[slot]
                self._capacities[slot] = base * (1.0 - loss) if degraded else base
                self._rebind(slot)

    def _count(self, transfer: Transfer, step: int) -> None:
        """Move an inter-node transfer's directional counts by ``step`` (+1 on
        arrival, -1 on departure) and re-derive what they decide: the caps
        of the flows into the source when it starts or stops transmitting,
        and both hosts' NIC capacities."""
        src, dst = transfer.src, transfer.dst
        counts = self._counts
        src_counts = counts.setdefault(src, {"tx": 0, "rx": 0})
        src_counts["tx"] += step
        dst_counts = counts.setdefault(dst, {"tx": 0, "rx": 0})
        dst_counts["rx"] += step
        for host, c in ((src, src_counts), (dst, dst_counts)):
            if c["tx"] == 0 and c["rx"] == 0:
                del counts[host]
        if src_counts["tx"] == (1 if step > 0 else 0):
            # the source started or stopped transmitting: its incoming
            # flows (all on its RX slot) change cap
            _, rx_key = self.topology.nic_resources(src)
            for tid in self._tids_of_slot.get(self._res_slots.get(rx_key), ()):
                self._caps[tid] = self._cap(self._active[tid])
        self._derate(src)
        self._derate(dst)

    def _track(self, transfer: Transfer) -> Tuple[int, int]:
        tid = transfer.transfer_id
        pair = (transfer.src, transfer.dst)
        self._active[tid] = transfer
        self._pair_of_tid[tid] = pair
        self._tids_of_pair.setdefault(pair, {})[tid] = None
        bisect.insort(self._sorted_pairs, pair)
        slots = self._index(transfer)
        self._caps[tid] = self._cap(transfer)
        if not transfer.is_intra_node:
            self._count(transfer, 1)
        for slot in slots:
            self._rebind(slot)
        return pair

    def _untrack(self, tid: Hashable) -> Tuple[int, int]:
        transfer = self._active.pop(tid)
        pair = self._pair_of_tid.pop(tid)
        bucket = self._tids_of_pair[pair]
        del bucket[tid]
        if not bucket:
            del self._tids_of_pair[pair]
        del self._sorted_pairs[bisect.bisect_left(self._sorted_pairs, pair)]
        self._rates_by_tid.pop(tid, None)
        del self._caps[tid]
        slots = self._slots_of_tid.pop(tid)
        for slot in slots:
            tids = self._tids_of_slot[slot]
            tids.remove(tid)
            if not tids:
                del self._tids_of_slot[slot]
                del self._capacities[slot]
                self._binding.pop(slot, None)
        if not transfer.is_intra_node:
            self._count(transfer, -1)
        for slot in slots:
            if slot in self._capacities:
                self._rebind(slot)
        return pair

    def update(
        self, added: Sequence[Transfer], removed: Sequence[Hashable]
    ) -> Dict[Hashable, float]:
        """Apply a flow delta; return the rates of the re-priced transfers.

        The emulator prices whole sharing situations (its memo key is the
        endpoint multiset, maintained incrementally), and same-endpoint
        flows share one rate in the max-min solution — so the changed set is
        found by value-diffing the new allocation against the previous one
        *per endpoint pair*: every added transfer plus every incumbent whose
        pair's rate changed is returned.  A memoized situation therefore
        costs O(delta + distinct pairs), with no per-transfer rebuild.
        Transfers absent from the mapping kept their rate exactly, which is
        what the event calendar relies on to leave their completion entries
        untouched.

        The whole delta is validated (membership and hosts) before any state
        changes, so a rejected call leaves the tracked set untouched and the
        caller can retry.
        """
        self._validate_delta(added, removed)
        changed_pairs: List[Tuple[int, int]] = []
        for tid in removed:
            changed_pairs.append(self._untrack(tid))
        added_tids: List[Hashable] = []
        for transfer in added:
            changed_pairs.append(self._track(transfer))
            added_tids.append(transfer.transfer_id)
        if not self._active:
            self._last_by_pair = {}
            self._primed = True
            return {}
        return self._allocate(changed_pairs, added_tids)

    def _validate_delta(
        self, added: Sequence[Transfer], removed: Sequence[Hashable]
    ) -> None:
        """Validate a whole delta (membership and hosts) in O(delta), before any mutation."""
        validate_delta(self._active, added, removed)
        for transfer in added:
            self.topology.check_host(transfer.src)
            self.topology.check_host(transfer.dst)

    def _price_situation(
        self, changed_pairs: Sequence[Tuple[int, int]]
    ) -> Tuple[Optional[Dict[Tuple[int, int], float]],
               Optional[Dict[Hashable, float]]]:
        """Memoized per-pair allocation of the tracked situation.

        Returns ``(by_pair, None)`` normally; ``(None, rates)`` when the
        solver broke same-endpoint symmetry (rare) — the caller must then
        value-diff per transfer, and the solution is not memoized.
        """
        key = self._situation_key()
        by_pair = self._rate_cache.get(key)
        if by_pair is not None:
            self.cache_hits += 1
            return by_pair, None
        self.cache_misses += 1
        active = list(self._active.values())
        rates = self._solve_incremental(active, changed_pairs)
        by_pair = {}
        for transfer in active:
            pair = self._pair_of_tid[transfer.transfer_id]
            rate = rates[transfer.transfer_id]
            if pair in by_pair and by_pair[pair] != rate:
                return None, rates  # solver broke same-endpoint symmetry
            by_pair[pair] = rate
        self._rate_cache.put(key, by_pair)
        return by_pair, None

    def _changed_pair_set(
        self, by_pair: Dict[Tuple[int, int], float]
    ) -> Set[Tuple[int, int]]:
        """Pairs whose rate differs from the value-diff baseline."""
        previous = self._last_by_pair
        if previous is None:
            return set(by_pair)
        return {
            pair for pair, rate in by_pair.items()
            if previous.get(pair) != rate
        }

    def _allocate(
        self,
        changed_pairs: Sequence[Tuple[int, int]],
        added_tids: Sequence[Hashable],
    ) -> Dict[Hashable, float]:
        """Price the tracked situation and report the changed rates."""
        by_pair, raw = self._price_situation(changed_pairs)
        if by_pair is None:
            # rare fallback: diff (and store) rates per transfer
            changed = {}
            for tid, rate in raw.items():
                if self._rates_by_tid.get(tid) != rate:
                    changed[tid] = rate
                    self._rates_by_tid[tid] = rate
            for tid in added_tids:
                changed.setdefault(tid, raw[tid])
            self._last_by_pair = None
            self._primed = True
            return changed

        changed_pair_set = self._changed_pair_set(by_pair)
        changed: Dict[Hashable, float] = {}
        for pair in changed_pair_set:
            rate = by_pair[pair]
            for tid in self._tids_of_pair.get(pair, ()):
                changed[tid] = rate
                self._rates_by_tid[tid] = rate
        for tid in added_tids:
            if tid not in changed:
                rate = by_pair[self._pair_of_tid[tid]]
                changed[tid] = rate
                self._rates_by_tid[tid] = rate
        self._last_by_pair = by_pair
        self._primed = True
        return changed

    def rates(self, active: Sequence[Transfer]) -> Dict[Hashable, float]:
        """Instantaneous rate of every active transfer, in bytes per second.

        Compatibility shim over :meth:`update`: the requested set is diffed
        against the tracked one, the delta applied, and the stored rate of
        every requested transfer returned.
        """
        wanted: Dict[Hashable, Transfer] = {}
        for transfer in active:
            if transfer.transfer_id in wanted:
                raise SimulationError("duplicate transfer ids in the active set")
            wanted[transfer.transfer_id] = transfer
        removed: List[Hashable] = [tid for tid in self._active if tid not in wanted]
        added: List[Transfer] = []
        for tid, transfer in wanted.items():
            known = self._active.get(tid)
            if known is None:
                added.append(transfer)
            elif (known.src, known.dst) != (transfer.src, transfer.dst):
                # transfer id re-used with new endpoints: departure + arrival
                removed.append(tid)
                added.append(transfer)
        if added or removed:
            self.update(added, removed)
        elif active and any(
            t.transfer_id not in self._rates_by_tid for t in active
        ):
            # stored rates were dropped (invalidate_cache): full re-query
            self._allocate(list(self._tids_of_pair), [])
        elif active:
            # no delta: the stored rates are current; a memoized situation
            # still counts as a hit (parity with the historical full query)
            if self._rate_cache.get(self._situation_key()) is not None:
                self.cache_hits += 1
        return {t.transfer_id: self._rates_by_tid[t.transfer_id] for t in active}

    # ------------------------------------------------------------- penalties
    def instantaneous_penalties(self, active: Sequence[Transfer]) -> Dict[Hashable, float]:
        """Penalty of every active transfer under the current sharing situation.

        The penalty is the ratio between the single-stream bandwidth and the
        allocated rate — exactly the paper's ``P_i = T_i / T_ref`` when every
        transfer of the scheme starts together and runs to completion.
        """
        rates = self.rates(active)
        single = self.technology.single_stream_bandwidth
        memory = self.technology.memory_bandwidth
        penalties: Dict[Hashable, float] = {}
        for transfer in active:
            rate = rates[transfer.transfer_id]
            if rate <= 0:
                raise SimulationError(
                    f"transfer {transfer.transfer_id!r} was allocated a zero rate"
                )
            reference = memory if transfer.is_intra_node else single
            penalties[transfer.transfer_id] = max(1.0, reference / rate)
        return penalties
