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

The provider is **delta-scaled**: it keeps every tracked transfer's rate,
and an ``update(added, removed)`` call reports the transfers whose rate
the new allocation changed, found by value-diffing *per flow* only the
flows the solve could have re-priced (see below), so a flush costs the
delta's upkeep plus the rounds its solve re-runs, not the active set.

Everything the solver reads is kept between flushes as well.
``_track``/``_untrack`` give every capacity resource a persistent integer
slot (its base capacity and the largest cap a flow on it can have in two
plain lists), store each transfer's slot tuple and keep, per occupied
slot, the transfer ids on it in tracking order, plus per-host
transmit/receive counts.  From those they keep the solver's inputs up to date: every
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

That solve resumes the previous one.  The provider keeps the round log
(:class:`~repro.network.sharing.FillLog`) of its last whole-set solve and
reports to it every item that changed since: ``_track``/``_untrack`` the
flows they enter or drop and every slot those occupy, ``_count`` the
flows whose cap it changes, and ``_rebind`` the slots whose capacity or
membership in the binding set it changes (which covers ``_derate``).
The contract is one-sided: anything that changes a flow's cap, an
occupied slot's capacity, a slot's flow set or a slot's binding status
must report it, while reporting an unchanged item only costs speed.  The
next whole-set solve then starts at the first round those items can
touch, with rates bit-identical to a cold solve.

The log also bounds the report.  Every flow frozen before the round a
solve resumed from keeps its previous rate bit for bit, so the value diff
visits only the flows of the rounds the solve re-ran, which hold every
arrival.  That is exact while the stored rates are the log's last solve,
so the provider drops the log whenever rates come from anywhere else (a
memo hit or a warm-start component solve): the next whole-set solve is
cold and diffs every flow.  :meth:`reset` and :meth:`invalidate_cache`
drop the log too.  The solver freezes flows in the insertion order of the
per-slot transfer dicts and of ``caps``, so the reported order never
follows the hashing of string transfer ids (``background#N``).

Two optional paths are off by default.  With ``cache_size > 0`` the
provider memoizes per-pair allocations in a private
:class:`~repro.core.incremental.PenaltyCache` keyed by the multiset of
``(src, dst)`` endpoint pairs (kept as a sorted list, bisect-updated per
arrival and departure): sizes and transfer ids never enter the
allocation, and same-endpoint flows share their slots and cap and so
receive equal rates, unless a numerical-safety round froze one of them
alone.  A miss stores the rates of a whole-set solve without such a round
(a warm-start component solve stores nothing), and a hit diffs every
flow.  Under load a situation rarely repeats, so the key, lookup and
entry of every flush cost more than the solves they save; at the
default ``cache_size=0`` none of them is built.  No shipped caller turns
the memo on: a penalty measurement runs the deterministic emulator once
instead of repeating identical runs.  It stays only until the benchmark
harness (``perfbench/``) stops passing ``cache_size=``.

With ``warm_start=True`` the water-filling on a cache miss is
additionally *warm-started*: when exactly one flow arrived or departed since
the previous allocation, only the coupling component of the changed flow
(flows transitively sharing an endpoint host or a fabric link with it) is
re-solved and every other flow keeps its previous rate.  Max-min allocations
decompose exactly over coupling components — the income/outgo capacity
degradations and duplex caps only couple flows through shared hosts — so
the warm-started rates equal a whole-set solve only up to floating-point
summation order: they are not bit-identical, and differ from the
full-query reference of :mod:`repro.network.fluid`, which re-prices the
whole set from a reset provider.  Warm starts are therefore off by default.
"""

from __future__ import annotations

import bisect
from time import perf_counter
from typing import Collection, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..core.incremental import PenaltyCache
from ..exceptions import SimulationError
from .fluid import Transfer, validate_delta
from .sharing import FillLog, can_bind, water_fill_arrays
from .technologies import NetworkTechnology
from .topology import CrossbarTopology, Topology

__all__ = ["EmulatorRateProvider"]


class EmulatorRateProvider:
    """Rate provider implementing the calibrated sharing behaviour of a technology.

    :meth:`update` reports per flow: the arrivals and the flows whose rate
    the solve changed, value-diffed over the rounds the resumed water-fill
    re-ran.  The stored rates are always the round log's last solve; rates
    from anywhere else (an opt-in memo hit or warm-start component solve)
    drop the log, so the next solve is cold and diffs every flow.

    Parameters
    ----------
    technology, topology, num_hosts:
        The emulated interconnect and its wiring (crossbar by default).
    cache_size:
        Number of memoized sharing situations in the private cache; the
        default 0 builds no memo.  No shipped caller passes another
        value; the parameter stays until the benchmark harness stops
        passing it (see the module docstring).  Call
        :meth:`invalidate_cache` after mutating the topology or the
        technology in place.
    warm_start:
        Re-solve only the changed flow's coupling component when exactly one
        flow arrived/departed (see the module docstring).  Off by default:
        the warm-started rates are not bit-identical to a whole-set solve.
    """

    def __init__(self, technology: NetworkTechnology, topology: Topology | None = None,
                 num_hosts: int = 64, cache_size: int = 0,
                 warm_start: bool = False) -> None:
        self.technology = technology
        self.topology = topology or CrossbarTopology(num_hosts=num_hosts, technology=technology)
        if self.topology.technology is not technology:
            # keep the two consistent; the topology carries link capacities
            self.topology.technology = technology
        self.cache_size = int(cache_size)
        self._rate_cache = PenaltyCache(max_entries=max(0, self.cache_size))
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
        #: per occupied slot, its transfer ids in tracking order (a dict
        #: used as an ordered set: the solver freezes them in this order)
        self._tids_of_slot: Dict[int, Dict[Hashable, None]] = {}
        self._counts: Dict[int, Dict[str, int]] = {}
        #: the solver's inputs, kept live too: each tracked flow's cap in
        #: tracking order (ties in the solver break in this order), each
        #: occupied slot's degraded capacity, and the occupied slots that
        #: can bind with their capacities (the only ones a solve sees)
        self._caps: Dict[Hashable, float] = {}
        self._capacities: Dict[int, float] = {}
        self._binding: Dict[int, float] = {}
        #: the endpoint multiset that keys the memo, as a sorted pair list
        #: (bisect-updated; kept only with a memo)
        self._sorted_pairs: List[Tuple[int, int]] = []
        #: every tracked transfer's rate: the value-diff baseline
        self._rates_by_tid: Dict[Hashable, float] = {}
        #: True once an allocation exists (warm starts need a predecessor)
        self._primed = False
        #: the round log of the last whole-set solve, with the flows and
        #: slots changed since, while ``_rates_by_tid`` holds that solve's
        #: rates; None until that solve, after rates came from a memo hit
        #: or a component solve, and after reset() or invalidate_cache()
        self._fill_log: Optional[FillLog] = None
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

    def invalidate_cache(self) -> None:
        """Drop memoized allocations (required after in-place reconfiguration).

        Clears the memo, drops the warm-start state and the stored rates, and
        re-reads every capacity from the topology, so the next query
        re-solves and re-reports everything.
        """
        self._rate_cache.clear()
        self._rates_by_tid = {}
        self._primed = False
        self._fill_log = None
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
    def _solve(self, active: Collection[Transfer]) -> Dict[Hashable, float]:
        timer = self._solve_timer
        if timer is None:
            return self._solve_impl(active)
        start = perf_counter()
        try:
            return self._solve_impl(active)
        finally:
            timer.observe(perf_counter() - start)

    def _solve_impl(self, active: Collection[Transfer]) -> Dict[Hashable, float]:
        """Water-fill ``active`` over the inputs kept by ``_track``/``_untrack``.

        For the whole tracked set that is one call on the live caps,
        incidence and binding set, which resumes the last such call from
        the round log.  ``active`` may instead be one coupling
        component (the warm-start path), which is closed under shared
        resources: every transfer on a resource one of its flows uses
        belongs to it.  So the per-slot sets of its slots hold exactly its
        flows and serve the solver unchanged, and the whole-set directional
        counts agree with the component's on every host a component flow
        touches, so the live caps and degraded capacities are the
        component's own; they are filtered down to it, and that solve
        neither reads nor writes the round log.
        """
        caps, capacities = self._caps, self._binding
        if len(active) != len(caps):
            caps = {t.transfer_id: caps[t.transfer_id] for t in active}
            capacities = {
                slot: capacities[slot]
                for tid in caps for slot in self._slots_of_tid[tid] if slot in capacities
            }
            return water_fill_arrays(caps, self._slots_of_tid, self._tids_of_slot, capacities)
        log = self._fill_log
        if log is None:
            log = self._fill_log = FillLog()
        return water_fill_arrays(caps, self._slots_of_tid, self._tids_of_slot, capacities, log)

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
        self, active: Collection[Transfer], changed_pair: Tuple[int, int]
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
        active: Collection[Transfer],
        changed_pairs: Sequence[Tuple[int, int]],
    ) -> Dict[Hashable, float]:
        """Full solve, or a component-scoped re-solve after a one-flow delta.

        The scoped path drops the round log: the rates it returns are not
        one solve's, so the log could no longer bound the value diff.
        """
        if not self.warm_start or not self._primed or len(changed_pairs) != 1:
            return self._solve(active)
        self._fill_log = None
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
        self._sorted_pairs = []
        self._rates_by_tid = {}
        self._primed = False
        self._slots_of_tid = {}
        self._tids_of_slot = {}
        self._counts = {}
        self._caps = {}
        self._capacities = {}
        self._binding = {}
        self._fill_log = None

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
                self._tids_of_slot[slot] = {tid: None}
                self._capacities[slot] = self._slot_caps[slot]
            else:
                tids[tid] = None
        log = self._fill_log
        if log is not None:
            log.changed_flows[tid] = None
            log.changed_resources.update(dict.fromkeys(slots))
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
        binding = self._binding
        if can_bind(capacity, len(self._tids_of_slot[slot]), self._slot_ceilings[slot]):
            if binding.get(slot) == capacity:
                return
            binding[slot] = capacity
        elif binding.pop(slot, None) is None:
            return
        log = self._fill_log
        if log is not None:
            log.changed_resources[slot] = None

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
            caps, log = self._caps, self._fill_log
            for tid in self._tids_of_slot.get(self._res_slots.get(rx_key), ()):
                cap = self._cap(self._active[tid])
                if caps[tid] != cap:
                    caps[tid] = cap
                    if log is not None:
                        log.changed_flows[tid] = None
        self._derate(src)
        self._derate(dst)

    def _track(self, transfer: Transfer) -> Tuple[int, int]:
        tid = transfer.transfer_id
        pair = (transfer.src, transfer.dst)
        self._active[tid] = transfer
        if self.cache_size > 0:
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
        pair = (transfer.src, transfer.dst)
        if self.cache_size > 0:
            del self._sorted_pairs[bisect.bisect_left(self._sorted_pairs, pair)]
        self._rates_by_tid.pop(tid, None)
        del self._caps[tid]
        slots = self._slots_of_tid.pop(tid)
        log = self._fill_log
        if log is not None:
            log.changed_flows[tid] = None
            log.changed_resources.update(dict.fromkeys(slots))
        for slot in slots:
            tids = self._tids_of_slot[slot]
            del tids[tid]
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

        Every arrival is returned, and every incumbent whose rate the new
        allocation changed, found by value-diffing per flow (see the
        module docstring).  Transfers absent from the mapping kept their
        rate exactly, which is what the event calendar relies on to leave
        their completion entries untouched.

        The whole delta is validated (membership and hosts) before any state
        changes, so a rejected call leaves the tracked set untouched and the
        caller can retry.
        """
        self._validate_delta(added, removed)
        changed_pairs: List[Tuple[int, int]] = []
        for tid in removed:
            changed_pairs.append(self._untrack(tid))
        for transfer in added:
            changed_pairs.append(self._track(transfer))
        if not self._active:
            self._primed = True
            return {}
        return self._allocate(changed_pairs)

    def _validate_delta(
        self, added: Sequence[Transfer], removed: Sequence[Hashable]
    ) -> None:
        """Validate a whole delta (membership and hosts) in O(delta), before any mutation."""
        validate_delta(self._active, added, removed)
        for transfer in added:
            self.topology.check_host(transfer.src)
            self.topology.check_host(transfer.dst)

    def _allocate(self, changed_pairs: Sequence[Tuple[int, int]]) -> Dict[Hashable, float]:
        """Price the tracked situation and report the changed rates."""
        key = None
        if self.cache_size > 0:
            key = tuple(self._sorted_pairs)
            by_pair = self._rate_cache.get(key)
            if by_pair is not None:
                self.cache_hits += 1
                self._primed = True
                self._fill_log = None
                rates = {tid: by_pair[t.src, t.dst] for tid, t in self._active.items()}
                return self._report((rates,), rates)
        self.cache_misses += 1
        rates = self._solve_incremental(self._active.values(), changed_pairs)
        self._primed = True
        log = self._fill_log
        if log is None:  # no solve the log holds set these rates: diff them all
            return self._report((rates,), rates)
        changed = self._report(log.frozen[log.resume_round:], rates)
        if key is not None and log.safety is None:
            self._rate_cache.put(
                key, {(t.src, t.dst): rates[tid] for tid, t in self._active.items()})
        return changed

    def _report(self, rounds: Sequence[Dict[Hashable, float]],
                rates: Dict[Hashable, float]) -> Dict[Hashable, float]:
        """Value-diff the flows of ``rounds`` against the stored rates and
        store ``rates``, every tracked transfer's; return the differing
        entries (an arrival has no stored rate, so it always differs)."""
        previous = self._rates_by_tid.get
        changed: Dict[Hashable, float] = {}
        for frozen in rounds:
            for tid, rate in frozen.items():
                if previous(tid) != rate:
                    changed[tid] = rate
        self._rates_by_tid = rates
        return changed
