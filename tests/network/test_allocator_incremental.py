"""Warm-started max-min solving, the private rate memo, the kept solver
inputs and the round log of the emulator."""

from __future__ import annotations

import random

import pytest

from repro.network import EmulatorRateProvider, FatTreeTopology, Transfer, get_technology
from repro.network.sharing import can_bind, water_fill_arrays
from repro.units import MB

ETH = get_technology("ethernet")


def fresh(warm_start=True, cache_size=4096, technology=ETH, topology=None):
    return EmulatorRateProvider(technology, topology, num_hosts=16,
                                cache_size=cache_size, warm_start=warm_start)


def step(provider, current, added=(), removed=()):
    """Apply a delta and fold the re-priced rates into ``current``, as the
    calendar does; returns ``current``."""
    for tid in removed:
        del current[tid]
    current.update(provider.update(list(added), list(removed)))
    return current


class TestWarmStart:
    def test_single_arrival_is_warm_started(self):
        provider = fresh(cache_size=0)
        provider.update([Transfer(0, 0, 1, 20 * MB)], [])
        assert provider.warm_starts == 0  # no previous allocation on first call
        provider.update([Transfer(1, 0, 2, 20 * MB)], [])
        assert provider.warm_starts == 1

    def test_warm_rates_match_cold_solver(self):
        """One arrival/departure at a time: warm path tracks the full solver."""
        deltas = [([Transfer(i, i % 4, (i + 1) % 4 + 4, 20 * MB)], []) for i in range(6)]
        deltas += [([], [1]), ([], [3])]

        warm = fresh(cache_size=0)
        cold = fresh(cache_size=0, warm_start=False)
        warm_rates, cold_rates = {}, {}
        for added, removed in deltas:
            step(warm, warm_rates, added, removed)
            step(cold, cold_rates, added, removed)
            assert set(warm_rates) == set(cold_rates)
            for tid in cold_rates:
                assert warm_rates[tid] == pytest.approx(cold_rates[tid], rel=1e-9)
        assert warm.warm_starts > 0
        assert cold.warm_starts == 0

    def test_disjoint_flows_keep_their_previous_rates(self):
        provider = fresh(cache_size=0)
        rates = step(provider, {}, [Transfer(0, 0, 1, 20 * MB), Transfer(1, 2, 3, 20 * MB)])
        first = dict(rates)
        step(provider, rates, [Transfer(2, 4, 5, 20 * MB)])
        # the newcomer shares no host with 0/1: their floats are untouched
        assert rates[0] == first[0]
        assert rates[1] == first[1]

    def test_multi_flow_delta_falls_back_to_full_solve(self):
        provider = fresh(cache_size=0)
        provider.update([Transfer(0, 0, 1, 20 * MB)], [])
        provider.update([Transfer(1, 2, 3, 20 * MB), Transfer(2, 4, 5, 20 * MB)], [0])
        assert provider.warm_starts == 0

    def test_reused_id_with_new_endpoints_falls_back(self):
        provider = fresh(cache_size=0)
        provider.update([Transfer(0, 0, 1, 20 * MB), Transfer(1, 2, 3, 20 * MB)], [])
        provider.update([Transfer(0, 5, 6, 20 * MB)], [0])
        assert provider.warm_starts == 0

    def test_fat_tree_uplink_couples_cross_switch_flows(self):
        """Flows sharing only a fabric link must be re-solved together."""
        topology = FatTreeTopology(num_hosts=8, technology=ETH,
                                   hosts_per_edge=4, uplinks_per_edge=1)
        provider = EmulatorRateProvider(ETH, topology, cache_size=0, warm_start=True)
        active = [Transfer(0, 0, 4, 20 * MB), Transfer(1, 1, 5, 20 * MB)]
        warm = step(provider, {}, active[:1])
        step(provider, warm, active[1:])
        assert provider.warm_starts == 1
        cold = EmulatorRateProvider(ETH, topology, cache_size=0).update(active, [])
        for tid in cold:
            assert warm[tid] == pytest.approx(cold[tid], rel=1e-9)


class TestUnifiedRateCache:
    def test_repeated_situation_hits(self):
        provider = fresh()
        active = [Transfer(0, 0, 1, 20 * MB), Transfer(1, 0, 2, 20 * MB)]
        first = provider.update(active, [])
        provider.reset()
        second = provider.update(list(reversed(active)), [])  # same multiset of pairs
        assert provider.cache_hits == 1
        assert second == first

    def test_invalidate_clears_cache_and_warm_state(self):
        provider = fresh()
        provider.update([Transfer(0, 0, 1, 20 * MB)], [])
        provider.invalidate_cache()
        provider.update([Transfer(1, 0, 2, 20 * MB)], [])
        assert provider.warm_starts == 0  # warm state was dropped too
        assert provider.cache_misses == 2

    def test_invalidate_clears_the_memo(self):
        provider = fresh()
        active = [Transfer(0, 0, 1, 20 * MB)]
        provider.update(active, [])
        provider.reset()
        provider.update(active, [])     # served from the memo
        assert provider.cache_hits == 1
        provider.invalidate_cache()
        assert provider.update([], []) == {0: ETH.single_stream_bandwidth}
        assert provider.cache_misses == 2  # the entry is gone: re-solved...
        provider.reset()
        provider.update(active, [])
        assert provider.cache_hits == 2    # ...and memoized again

    def test_memo_is_private_to_each_provider(self):
        """The memo key is the endpoint multiset alone, so no entry may leak
        to another provider: a second provider, or one on another
        technology, solves the same situation itself."""
        active = [Transfer(0, 0, 1, 20 * MB), Transfer(1, 0, 2, 20 * MB)]
        first = fresh()
        rates = first.update(active, [])
        second = fresh()
        assert second.update(active, []) == rates
        assert second.cache_hits == 0 and second.cache_misses == 1
        myrinet = fresh(technology=get_technology("myrinet"))
        assert myrinet.update(active, []) != rates
        assert myrinet.cache_hits == 0 and myrinet.cache_misses == 1

    def test_cache_size_zero_disables_memoization(self):
        provider = fresh(cache_size=0)
        active = [Transfer(0, 0, 1, 20 * MB)]
        provider.update(active, [])
        provider.reset()
        provider.update(active, [])
        assert provider.cache_hits == 0


class TestResourceIndex:
    """What the solver reads, kept between flushes: one persistent slot per
    capacity resource (handed out in first-reference order, never
    released), each transfer's slot tuple, the transfer ids on every
    occupied slot, every flow's cap, every occupied slot's degraded
    capacity and the binding set — always equal to a rebuild from the
    tracked set."""

    @staticmethod
    def assert_dense_and_priced(provider):
        slots = provider._res_slots
        assert sorted(slots.values()) == list(range(len(slots)))
        assert len(provider._slot_caps) == len(slots)
        for resource, slot in slots.items():
            assert provider._slot_caps[slot] == provider.topology.resource_capacity(resource)

    @staticmethod
    def assert_incidence_matches_rebuild(provider):
        slots_of = {}
        tids_of_slot = {}
        for tid, transfer in provider._active.items():
            slots = tuple(provider._res_slots[r] for r in provider._resources_for(transfer))
            slots_of[tid] = slots
            for slot in slots:
                tids_of_slot.setdefault(slot, []).append(tid)
        assert provider._slots_of_tid == slots_of
        # in tracking order: the solver freezes a saturated slot's flows
        # in this order, and so the provider reports them
        assert {slot: list(tids) for slot, tids in provider._tids_of_slot.items()} == \
            tids_of_slot
        TestResourceIndex.assert_solver_inputs_match_rebuild(provider)

    @staticmethod
    def assert_solver_inputs_match_rebuild(provider):
        """Caps (in tracking order), degraded capacities and the binding set
        equal the per-solve derivation over the whole tracked set."""
        technology = provider.technology
        sharing = technology.sharing
        single = technology.single_stream_bandwidth
        counts = {}
        for transfer in provider._active.values():
            if not transfer.is_intra_node:
                counts.setdefault(transfer.src, {"tx": 0, "rx": 0})["tx"] += 1
                counts.setdefault(transfer.dst, {"tx": 0, "rx": 0})["rx"] += 1
        caps = {}
        for tid, transfer in provider._active.items():
            if transfer.is_intra_node:
                caps[tid] = technology.memory_bandwidth
            elif counts.get(transfer.dst, {"tx": 0})["tx"] >= 1:
                caps[tid] = single * (1.0 - sharing.duplex_flow_slowdown)
            else:
                caps[tid] = single
        assert list(provider._caps.items()) == list(caps.items())
        capacities = {slot: provider._slot_caps[slot] for slot in provider._tids_of_slot}
        for host, c in counts.items():
            if c["rx"] >= sharing.reverse_threshold and c["tx"] >= 1:
                tx_key, rx_key = provider.topology.nic_resources(host)
                for key, loss in ((tx_key, sharing.tx_capacity_loss),
                                  (rx_key, sharing.rx_capacity_loss)):
                    slot = provider._res_slots.get(key)
                    if slot in capacities:
                        capacities[slot] *= 1.0 - loss
        assert provider._capacities == capacities
        binding = {}
        for slot, capacity in capacities.items():
            flows = [provider._active[tid] for tid in provider._tids_of_slot[slot]]
            ceiling = max(technology.memory_bandwidth if t.is_intra_node else single
                          for t in flows)
            assert provider._slot_ceilings[slot] == ceiling
            if can_bind(capacity, len(flows), ceiling):
                binding[slot] = capacity
        assert provider._binding == binding

    @pytest.mark.parametrize("seed", range(4))
    def test_incidence_tracks_every_delta(self, seed):
        """Random arrivals, departures, endpoint reuse in one delta,
        invalidations after an in-place uplink change, and resets on a fat
        tree: after each, the kept incidence, caps, capacities and binding
        set equal a rebuild from the tracked transfers."""
        rng = random.Random(seed)
        topology = FatTreeTopology(num_hosts=12, technology=ETH,
                                   hosts_per_edge=4, uplinks_per_edge=1)
        provider = EmulatorRateProvider(ETH, topology, cache_size=64)
        next_tid = 0
        for _ in range(300):
            action = rng.random()
            live = list(provider._active)
            if action < 0.5 or not live:
                added = []
                for _ in range(rng.randint(1, 3)):
                    added.append(Transfer(next_tid, rng.randrange(12),
                                          rng.randrange(12), 20 * MB))
                    next_tid += 1
                provider.update(added, [])
            elif action < 0.85:
                provider.update([], rng.sample(live, rng.randint(1, min(3, len(live)))))
            elif action < 0.95:
                # a reused id with new endpoints departs and re-arrives
                reused = Transfer(rng.choice(live), rng.randrange(12), rng.randrange(12),
                                  20 * MB)
                provider.update([reused], [reused.transfer_id])
            elif action < 0.98:
                topology.uplinks_per_edge = rng.choice([1, 2])
                provider.invalidate_cache()
            else:
                provider.reset()
            self.assert_incidence_matches_rebuild(provider)
            self.assert_dense_and_priced(provider)

    def test_departures_keep_slots_and_returning_resources_reuse_them(self):
        topology = FatTreeTopology(num_hosts=8, technology=ETH,
                                   hosts_per_edge=4, uplinks_per_edge=1)
        provider = EmulatorRateProvider(ETH, topology, cache_size=0)
        first = provider.update([Transfer(0, 0, 4, 20 * MB),
                                 Transfer(1, 1, 2, 20 * MB)], [])
        index = dict(provider._res_slots)
        self.assert_dense_and_priced(provider)
        provider.update([], [0, 1])
        assert provider._res_slots == index  # departures release nothing
        assert provider._tids_of_slot == {}  # ...but leave no occupied slot
        again = provider.update([Transfer(2, 0, 4, 20 * MB),
                                 Transfer(3, 1, 2, 20 * MB)], [])
        assert provider._res_slots == index  # same resources, same slots
        assert again[2] == pytest.approx(first[0], rel=1e-9)
        assert again[3] == pytest.approx(first[1], rel=1e-9)
        # the reverse direction crosses the other edge's uplink: new slots
        # are appended, the old ones keep their numbers
        provider.update([Transfer(4, 5, 3, 20 * MB)], [])
        assert len(provider._res_slots) > len(index)
        assert {r: provider._res_slots[r] for r in index} == index
        self.assert_dense_and_priced(provider)

    def test_invalidate_rereads_capacities_after_reconfiguration(self):
        topology = FatTreeTopology(num_hosts=8, technology=ETH,
                                   hosts_per_edge=4, uplinks_per_edge=2)
        provider = EmulatorRateProvider(ETH, topology, cache_size=0,
                                        warm_start=False)
        # four flows share edge 0's uplink
        active = [Transfer(i, i, 4 + i, 20 * MB) for i in range(4)]
        before = provider.update(active, [])
        topology.uplinks_per_edge = 1  # halve the uplink in place
        provider.invalidate_cache()
        self.assert_dense_and_priced(provider)
        self.assert_incidence_matches_rebuild(provider)
        after = provider.update([], [])
        reference = EmulatorRateProvider(
            ETH, FatTreeTopology(num_hosts=8, technology=ETH, hosts_per_edge=4,
                                 uplinks_per_edge=1),
            cache_size=0, warm_start=False,
        ).update(active, [])
        assert after == reference
        assert all(after[tid] < before[tid] for tid in before)


class TestBindingSet:
    """A solve sees only the occupied slots that ``can_bind`` keeps."""

    def test_slot_at_count_times_ceiling_is_kept(self):
        """At half-link single streams, one flow leaves its TX port slack and
        two fill it exactly: the boundary slot is handed to the solver."""
        tech = ETH.with_sharing(single_stream_efficiency=0.5)
        assert tech.link_bandwidth == 2 * tech.single_stream_bandwidth
        provider = EmulatorRateProvider(tech, num_hosts=4, cache_size=0, warm_start=False)
        provider.update([Transfer(0, 0, 1, 20 * MB)], [])
        tx0 = provider._res_slots[provider.topology.nic_resources(0)[0]]
        assert tx0 not in provider._binding
        rates = provider.update([Transfer(1, 0, 2, 20 * MB)], [])
        assert provider._binding[tx0] == tech.link_bandwidth
        assert rates == {1: tech.single_stream_bandwidth}  # flow 0 keeps its rate
        provider.update([], [1])
        assert tx0 not in provider._binding

    def test_a_degraded_port_rejoins_the_solve(self):
        """Income/outgo degradation lowers a port's capacity below what its
        flows can take, so it binds again; lifting it makes it slack."""
        provider = EmulatorRateProvider(ETH, num_hosts=4, cache_size=0, warm_start=False)
        provider.update([Transfer(0, 0, 1, 20 * MB)], [])
        tx0 = provider._res_slots[provider.topology.nic_resources(0)[0]]
        assert tx0 not in provider._binding  # one single stream on a full link
        # host 0 now receives reverse_threshold flows while transmitting
        provider.update([Transfer(1, 2, 0, 20 * MB), Transfer(2, 3, 0, 20 * MB)], [])
        degraded = ETH.link_bandwidth * (1.0 - ETH.sharing.tx_capacity_loss)
        assert provider._capacities[tx0] == degraded
        assert provider._binding[tx0] == degraded
        provider.update([], [2])
        assert provider._capacities[tx0] == ETH.link_bandwidth
        assert tx0 not in provider._binding


class TestRoundLog:
    """Whole-set solves resume the last one from the provider's round log;
    the items every delta reports make the rates a cold solve's bits."""

    @staticmethod
    def assert_rates_are_a_cold_solve(provider):
        cold = water_fill_arrays(provider._caps, provider._slots_of_tid,
                                 provider._tids_of_slot, provider._binding)
        assert {tid: provider._rates_by_tid[tid].hex() for tid in provider._active} == \
            {tid: rate.hex() for tid, rate in cold.items()}

    @pytest.mark.parametrize("seed", range(4))
    def test_every_solve_equals_a_cold_solve(self, seed):
        """Random arrivals and departures (re-capping the flows into a host
        that starts or stops sending, degrading and restoring its ports,
        moving slots in and out of the binding set), reused ids, memo hits,
        invalidations and resets on an oversubscribed fat tree."""
        rng = random.Random(seed)
        topology = FatTreeTopology(num_hosts=12, technology=ETH,
                                   hosts_per_edge=4, uplinks_per_edge=1)
        provider = EmulatorRateProvider(ETH, topology, cache_size=16, warm_start=False)
        next_tid = 0
        resumed = 0
        for _ in range(300):
            action = rng.random()
            live = list(provider._active)
            if action < 0.5 or not live:
                added = []
                for _ in range(rng.randint(1, 3)):
                    added.append(Transfer(next_tid, rng.randrange(12),
                                          rng.randrange(12), 20 * MB))
                    next_tid += 1
                provider.update(added, [])
            elif action < 0.9:
                provider.update([], rng.sample(live, rng.randint(1, min(3, len(live)))))
            elif action < 0.96:
                reused = Transfer(rng.choice(live), rng.randrange(12), rng.randrange(12),
                                  20 * MB)
                provider.update([reused], [reused.transfer_id])
            elif action < 0.98:
                provider.invalidate_cache()
                assert provider._fill_log is None
                provider.update([], [])
            else:
                provider.reset()
                assert provider._fill_log is None
            if provider._active:
                self.assert_rates_are_a_cold_solve(provider)
            log = provider._fill_log
            resumed += log is not None and log.resume_round > 0
        assert resumed > 0

    def test_memo_hits_and_component_solves_drop_the_log(self):
        """The stored rates must be the log's last solve, or the per-flow
        diff misses what changed: rates from a warm-start component solve
        or a memo hit drop the log, and the next whole-set solve is cold
        and reports every changed rate."""
        provider = fresh(cache_size=64)
        current = step(provider, {}, [Transfer(0, 0, 1, 20 * MB),
                                      Transfer(1, 2, 1, 20 * MB)])
        assert provider._fill_log is not None
        # one arrival: a warm start solves its component without the log
        step(provider, current, [Transfer(2, 3, 4, 20 * MB)])
        assert provider.warm_starts == 1
        assert provider._fill_log is None
        # back to a memoized situation: no solve at all
        hits = provider.cache_hits
        step(provider, current, [], [2])
        assert provider.cache_hits == hits + 1
        assert provider._fill_log is None
        # a two-flow delta solves the whole set cold, then the next resumes
        resumed_from = []
        for added, removed in (([Transfer(3, 0, 2, 20 * MB), Transfer(4, 1, 3, 20 * MB)], []),
                               ([Transfer(5, 4, 0, 20 * MB)], [3])):
            step(provider, current, added, removed)
            self.assert_rates_are_a_cold_solve(provider)
            assert current == provider._rates_by_tid
            resumed_from.append(provider._fill_log.resume_round)
        assert resumed_from[0] == 0 and resumed_from[1] > 0

    def test_a_memo_hit_after_a_logged_solve_makes_the_next_solve_cold(self):
        """Flows 0 and 2 share host 1's receive port, flow 0 alone runs at
        its cap.  The hit on the shared situation stores rates the log's
        solve (flow 0 alone) did not compute; a solve that resumed from
        that log after the hit would start past the round that froze flow
        0, leave it out of the diff and keep the shared rate reported."""
        provider = fresh(cache_size=64, warm_start=False)
        current = step(provider, {}, [Transfer(0, 0, 1, 20 * MB), Transfer(1, 2, 1, 20 * MB)])
        step(provider, current, [], [1])
        step(provider, current, [Transfer(2, 2, 1, 20 * MB)])
        assert provider.cache_hits == 1 and provider._fill_log is None
        # an intra-node copy arrives as flow 2 leaves: no memoized situation
        step(provider, current, [Transfer(3, 3, 3, 20 * MB)], [2])
        assert provider._fill_log.resume_round == 0
        cold = fresh(cache_size=0, warm_start=False).update(list(provider._active.values()), [])
        assert current == cold

    def test_reset_and_invalidate_drop_the_log(self):
        provider = fresh(cache_size=0, warm_start=False)
        active = [Transfer(0, 0, 1, 20 * MB), Transfer(1, 2, 1, 20 * MB)]
        provider.update(active, [])
        assert provider._fill_log is not None
        provider.invalidate_cache()
        assert provider._fill_log is None
        provider.update([], [])
        assert provider._fill_log.resume_round == 0
        provider.reset()
        assert provider._fill_log is None
