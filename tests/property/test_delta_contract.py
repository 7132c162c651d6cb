"""Property-based tests of the rate-provider delta contract.

``update(added, removed)`` must be a pure optimisation over pricing the
whole set from scratch: after *any* sequence of deltas, the rates
accumulated from the ``update`` returns (apply changed entries, drop
removed ids) must equal — bit for bit — what a cold provider reports for
the final active set, and at every intermediate step what a provider
re-priced from ``reset()`` with the whole set (the calendar's full-query
reference) reports.  Both shipped providers
(contention model and calibrated emulator) are covered, and a model
provider replaying every situation from a warm shared cache must report the
stream a memo-less one prices afresh.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import GigabitEthernetModel, InfinibandModel, MyrinetModel, PenaltyCache
from repro.exceptions import SimulationError
from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import Transfer
from repro.network.technologies import get_technology
from repro.simulator.providers import ModelRateProvider

MODEL_FACTORIES = [GigabitEthernetModel, MyrinetModel, InfinibandModel]

# arrivals on (src, dst) in a small host universe (conflicts are common),
# departures of the k-th oldest live transfer; intra-node pairs allowed
step_strategy = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.just("del"), st.integers(0, 30), st.integers(0, 0)),
)
sequence_strategy = st.lists(step_strategy, min_size=1, max_size=30)

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def deltas(steps, max_live=8):
    """Turn a step sequence into (added, removed, live-after) triples."""
    live = {}
    counter = 0
    out = []
    for kind, x, y in steps:
        if kind == "add" and len(live) < max_live:
            transfer = Transfer(transfer_id=counter, src=x, dst=y, size=1000.0)
            live[counter] = transfer
            counter += 1
            out.append(([transfer], [], dict(live)))
        elif kind == "del" and live:
            tid = list(live)[x % len(live)]
            del live[tid]
            out.append(([], [tid], dict(live)))
    return out


def check_provider_sequence(provider, cold_factory, steps):
    accumulated = {}
    for added, removed, live in deltas(steps):
        changed = provider.update(added, removed)
        # rates reach heap entries and JSON trace payloads: plain floats only
        assert all(type(rate) is float for rate in changed.values())
        for tid in removed:
            accumulated.pop(tid, None)
        accumulated.update(changed)
        assert set(accumulated) == set(live)
        # a cold provider pricing the final set from scratch must agree
        cold = cold_factory().update(list(live.values()), [])
        assert accumulated == cold


class TestModelProviderDeltaContract:
    @pytest.mark.parametrize("factory", MODEL_FACTORIES, ids=lambda f: f().name)
    @common_settings
    @given(steps=sequence_strategy)
    def test_update_accumulates_to_cold_rates(self, factory, steps):
        provider = ModelRateProvider(factory(), "ethernet")
        check_provider_sequence(
            provider, lambda: ModelRateProvider(factory(), "ethernet"), steps
        )

    @common_settings
    @given(steps=sequence_strategy)
    def test_full_recompute_mode_honours_the_contract_too(self, steps):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet",
                                     incremental=False)
        check_provider_sequence(
            provider,
            lambda: ModelRateProvider(GigabitEthernetModel(), "ethernet",
                                      incremental=False),
            steps,
        )

    @common_settings
    @given(steps=sequence_strategy)
    def test_reset_requery_agrees_with_update_stream(self, steps):
        """One provider re-priced from a reset after every delta (its memo
        warm) reports the stream a delta-fed provider accumulates."""
        delta_provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        requery_provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        accumulated = {}
        for added, removed, live in deltas(steps):
            changed = delta_provider.update(added, removed)
            for tid in removed:
                accumulated.pop(tid, None)
            accumulated.update(changed)
            requery_provider.reset()
            assert requery_provider.update(list(live.values()), []) == accumulated

    @pytest.mark.parametrize("factory", MODEL_FACTORIES, ids=lambda f: f().name)
    @common_settings
    @given(steps=sequence_strategy)
    def test_memo_replayed_stream_equals_fresh_pricing(self, factory, steps):
        """A provider served from a cache warmed on the same sequence with
        every host shifted (isomorphic situations, other endpoints) reports,
        delta by delta, exactly what a memo-less provider prices afresh."""
        cache = PenaltyCache()
        warmer = ModelRateProvider(factory(), "ethernet", cache=cache)
        for added, removed, _live in deltas(steps):
            warmer.update([Transfer(t.transfer_id, t.src + 10, t.dst + 10, t.size)
                           for t in added], removed)
        replayed = ModelRateProvider(factory(), "ethernet", cache=cache)
        fresh = ModelRateProvider(factory(), "ethernet",
                                  cache=PenaltyCache(max_entries=0))
        for added, removed, _live in deltas(steps):
            assert replayed.update(added, removed) == fresh.update(added, removed)
        assert replayed.stats.component_evaluations == 0
        assert replayed.stats.cache_hits == fresh.stats.component_evaluations


#: the emulator's situation memo off (the default) and on: memo hits drop
#: the round log, so the solves after them must report every changed rate
MEMO_SIZES = pytest.mark.parametrize("cache_size", [0, 64], ids=["memo-off", "memo-on"])


class TestEmulatorProviderDeltaContract:
    @MEMO_SIZES
    @common_settings
    @given(steps=sequence_strategy)
    def test_update_accumulates_to_cold_rates(self, cache_size, steps):
        """Without warm starts the delta stream is bit-exact with cold solves."""
        technology = get_technology("ethernet")
        provider = EmulatorRateProvider(technology, num_hosts=6, warm_start=False,
                                        cache_size=cache_size)
        check_provider_sequence(
            provider,
            lambda: EmulatorRateProvider(technology, num_hosts=6, warm_start=False),
            steps,
        )

    @common_settings
    @given(steps=sequence_strategy)
    def test_warm_started_updates_match_cold_rates_numerically(self, steps):
        """The warm-started production path covers the same transfers and is
        exact up to floating-point summation order (the component re-solve
        documented in repro.network.allocator)."""
        technology = get_technology("ethernet")
        provider = EmulatorRateProvider(technology, num_hosts=6, warm_start=True)
        accumulated = {}
        for added, removed, live in deltas(steps):
            changed = provider.update(added, removed)
            for tid in removed:
                accumulated.pop(tid, None)
            accumulated.update(changed)
            assert set(accumulated) == set(live)
            cold = EmulatorRateProvider(technology, num_hosts=6).update(
                list(live.values()), []
            )
            assert accumulated == pytest.approx(cold, rel=1e-9)

    @MEMO_SIZES
    @common_settings
    @given(steps=sequence_strategy)
    def test_unreported_transfers_kept_their_rate(self, cache_size, steps):
        """The heart of the calendar's laziness: a transfer absent from an
        update() return must have exactly its previous rate."""
        technology = get_technology("myrinet")
        provider = EmulatorRateProvider(technology, num_hosts=6, warm_start=False,
                                        cache_size=cache_size)
        previous = {}
        for added, removed, live in deltas(steps):
            changed = provider.update(added, removed)
            fresh = EmulatorRateProvider(
                technology, num_hosts=6, warm_start=False
            ).update(list(live.values()), [])
            for tid, rate in fresh.items():
                if tid not in changed:
                    assert previous[tid] == rate
            previous = fresh


SHIPPED_PROVIDERS = [
    pytest.param(lambda: ModelRateProvider(GigabitEthernetModel(), "ethernet"),
                 lambda provider: provider.stats.cache_hits, id="model"),
    pytest.param(lambda: EmulatorRateProvider(get_technology("ethernet"), num_hosts=6,
                                              cache_size=64),
                 lambda provider: provider.cache_hits, id="emulator"),
]


@pytest.mark.parametrize("factory, cache_hits", SHIPPED_PROVIDERS)
class TestDeltaErrors:
    def test_removing_unknown_transfer_fails(self, factory, cache_hits):
        provider = factory()
        with pytest.raises(SimulationError, match="unknown transfer 42 removed"):
            provider.update([], [42])

    def test_double_add_fails(self, factory, cache_hits):
        provider = factory()
        t = Transfer(transfer_id=0, src=0, dst=1, size=10.0)
        provider.update([t], [])
        with pytest.raises(SimulationError, match="transfer 0 added to the rate set twice"):
            provider.update([t], [])

    def test_removing_unknown_transfers_in_a_larger_delta_fails(self, factory, cache_hits):
        """A one-item delta is checked apart: the general check must reject too."""
        provider = factory()
        with pytest.raises(SimulationError, match="unknown transfer 42 removed"):
            provider.update([], [42, 43])

    def test_re_adding_a_tracked_transfer_in_a_larger_delta_fails(self, factory, cache_hits):
        provider = factory()
        t = Transfer(transfer_id=0, src=0, dst=1, size=10.0)
        provider.update([t], [])
        t2 = Transfer(transfer_id=1, src=0, dst=2, size=10.0)
        with pytest.raises(SimulationError, match="transfer 0 added to the rate set twice"):
            provider.update([t, t2], [])

    def test_remove_and_re_add_in_one_delta_is_accepted(self, factory, cache_hits):
        """The calendar's stall-retry shape: departure plus arrival of one id."""
        provider = factory()
        transfers = [Transfer(transfer_id=i, src=0, dst=i + 1, size=10.0)
                     for i in range(2)]
        before = provider.update(transfers, [])
        changed = provider.update([transfers[0]], [0])
        assert 0 in changed
        assert {**before, **changed} == before

    def test_double_removal_is_rejected_without_mutation(self, factory, cache_hits):
        provider = factory()
        transfers = [Transfer(transfer_id=i, src=0, dst=i + 1, size=10.0)
                     for i in range(2)]
        before = provider.update(transfers, [])
        with pytest.raises(SimulationError):
            provider.update([], [0, 0])
        provider.update([], [0, 1])  # both were still tracked
        assert provider.update(transfers, []) == before

    def test_reset_clears_tracking_but_not_the_memo(self, factory, cache_hits):
        provider = factory()
        transfers = [Transfer(transfer_id=i, src=0, dst=i + 1, size=10.0)
                     for i in range(2)]
        provider.update(transfers, [])
        provider.reset()
        assert provider.update(transfers, [])  # re-adding after reset works
        assert cache_hits(provider) >= 1  # memoized situation survived
