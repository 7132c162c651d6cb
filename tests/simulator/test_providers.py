"""Tests for the model-side rate provider (incremental path, size rounding)."""

from __future__ import annotations

import pytest

from repro.core import FairShareModel, GigabitEthernetModel, PenaltyCache
from repro.core.graph import Communication, CommunicationGraph
from repro.exceptions import SimulationError
from repro.network.fluid import FluidTransferSimulator, Transfer
from repro.network.technologies import get_technology
from repro.simulator.providers import ModelRateProvider


def transfers(*edges, size=1000.0):
    return [Transfer(transfer_id=i, src=s, dst=d, size=size)
            for i, (s, d) in enumerate(edges)]


def step(provider, current, added=(), removed=()):
    """Apply a delta and fold the re-priced rates into ``current``, as the
    calendar does; returns ``current``."""
    for tid in removed:
        del current[tid]
    current.update(provider.update(list(added), list(removed)))
    return current


class TestFractionalSizeRounding:
    def test_fractional_remaining_bytes_round_up(self):
        """Regression: int(transfer.size) used to truncate 0.4 B to a size-0
        communication mid-simulation."""
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        graph = provider._graph_from_transfers(
            [Transfer(transfer_id=0, src=0, dst=1, size=0.4)]
        )
        assert graph["0"].size == 1

    def test_fractional_sizes_ceil_not_floor(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        graph = provider._graph_from_transfers(
            [Transfer(transfer_id=0, src=0, dst=1, size=1048576.5)]
        )
        assert graph["0"].size == 1048577

    def test_integral_sizes_unchanged(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        graph = provider._graph_from_transfers(
            [Transfer(transfer_id=0, src=0, dst=1, size=2048.0)]
        )
        assert graph["0"].size == 2048

    def test_sub_byte_transfer_still_gets_a_rate(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        rates = provider.update([Transfer(transfer_id=0, src=0, dst=1, size=0.25)], [])
        assert rates[0] > 0

    def test_incremental_miss_prices_rounded_up_sizes(self):
        """The incremental engine's cache-miss graph rounds up like the full path."""
        seen = []

        class SizeProbe(FairShareModel):
            def penalties(self, graph):
                seen.extend((c.name, c.size) for c in graph)
                return super().penalties(graph)

        provider = ModelRateProvider(SizeProbe(), "ethernet")
        provider.update([Transfer(transfer_id=0, src=0, dst=1, size=0.4),
                         Transfer(transfer_id=1, src=0, dst=2, size=1048576.5)], [])
        assert seen == [("0", 1), ("1", 1048577)]


class TestIncrementalProvider:
    def test_rates_match_full_recompute(self):
        incremental = ModelRateProvider(GigabitEthernetModel(), "ethernet", incremental=True)
        full = ModelRateProvider(GigabitEthernetModel(), "ethernet", incremental=False)
        active = transfers((0, 1), (0, 2), (3, 2), (5, 6))
        incremental_rates = step(incremental, {}, active)
        full_rates = step(full, {}, active)
        assert incremental_rates == full_rates
        # departure of transfer 1, arrival of a new flow
        arrival = [Transfer(transfer_id=9, src=7, dst=6, size=500.0)]
        step(incremental, incremental_rates, arrival, [1])
        step(full, full_rates, arrival, [1])
        assert incremental_rates == full_rates
        assert set(full_rates) == {0, 2, 3, 9}

    def test_incremental_stats_count_less_work(self):
        incremental = ModelRateProvider(GigabitEthernetModel(), "ethernet", incremental=True)
        full = ModelRateProvider(GigabitEthernetModel(), "ethernet", incremental=False)
        base = transfers((0, 1), (2, 3), (4, 5), (6, 7))
        for provider in (incremental, full):
            provider.update(base, [])
            departing = []
            for extra in range(8):
                arrival = Transfer(transfer_id=100 + extra, src=8, dst=9, size=10.0)
                provider.update([arrival], departing)
                departing = [arrival.transfer_id]
        assert incremental.stats.comm_evaluations < full.stats.comm_evaluations

    def test_intra_node_transfers_use_memory_path(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        technology = get_technology("ethernet")
        rates = provider.update([Transfer(transfer_id=0, src=2, dst=2, size=100.0)], [])
        assert rates[0] == technology.memory_bandwidth

    def test_shared_cache_across_providers(self):
        cache = PenaltyCache()
        first = ModelRateProvider(GigabitEthernetModel(), "ethernet", cache=cache)
        first.update(transfers((0, 1), (0, 2)), [])
        second = ModelRateProvider(GigabitEthernetModel(), "ethernet", cache=cache)
        second.update(transfers((5, 6), (5, 7)), [])
        assert second.stats.cache_hits == 1
        assert second.stats.comm_evaluations == 0

    def test_empty_active_set(self):
        provider = ModelRateProvider(FairShareModel(), "ethernet")
        assert provider.update([], []) == {}
        provider.update(transfers((0, 1)), [])
        assert provider.update([], [0]) == {}

    def test_provider_reusable_across_fluid_runs(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        simulator = FluidTransferSimulator(provider)
        batch = transfers((0, 1), (0, 2), (3, 2), size=4000.0)
        first = simulator.durations(batch)
        second = simulator.durations(batch)
        assert first == second

    def test_fluid_results_identical_between_modes(self):
        batch = transfers((0, 1), (0, 2), (1, 2), (3, 4), size=32000.0)
        staggered = [
            Transfer(transfer_id=t.transfer_id, src=t.src, dst=t.dst,
                     size=t.size, start_time=0.001 * t.transfer_id)
            for t in batch
        ]
        results = {}
        for mode in (True, False):
            provider = ModelRateProvider(GigabitEthernetModel(), "ethernet", incremental=mode)
            results[mode] = FluidTransferSimulator(provider).run(staggered)
        assert results[True] == results[False]


class TestUpdateDeltas:
    """``update(added, removed)`` is the provider's one entry point."""

    @pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "full"])
    def test_update_tracks_the_active_set(self, incremental):
        provider = ModelRateProvider(FairShareModel(), "ethernet", incremental=incremental)
        provider.update([Transfer("a", 0, 1, 1000.0), Transfer("b", 0, 2, 1000.0)], [])
        rates = provider.update([Transfer("c", 5, 6, 1000.0)], ["a"])
        assert set(rates) == {"b", "c"}
        with pytest.raises(SimulationError):
            provider.update([], ["a"])  # "a" already departed
        assert provider.update([], ["b", "c"]) == {}

    def test_reused_id_is_a_departure_plus_an_arrival(self):
        """An id removed and re-added with new endpoints in one delta leaves
        its old endpoints and takes the new ones."""
        provider = ModelRateProvider(FairShareModel(), "ethernet")
        single = provider.technology.single_stream_bandwidth
        provider.update([Transfer("a", 0, 1, 1000.0), Transfer("x", 0, 5, 1000.0)], [])
        # "a" moves off host 0, so "x" has host 0's NIC to itself again
        assert provider.update([Transfer("a", 2, 3, 1000.0)], ["a"]) == {
            "a": single, "x": single}
        # "a" now leaves host 2, so a second flow from host 2 shares its NIC
        assert provider.update([Transfer("b", 2, 4, 1000.0)], []) == {
            "a": single / 2, "b": single / 2}

    @pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "full"])
    def test_reset_forgets_the_tracked_set(self, incremental):
        """After ``reset()`` the provider prices a re-added set as a fresh
        provider does: the full-query calendar's reference."""
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet",
                                     incremental=incremental)
        active = transfers((0, 1), (0, 2), (3, 2))
        provider.update(active, [])
        provider.update([], [1])
        provider.reset()
        with pytest.raises(SimulationError):
            provider.update([], [0])
        fresh = ModelRateProvider(GigabitEthernetModel(), "ethernet",
                                  incremental=incremental)
        assert provider.update(active, []) == fresh.update(active, [])


class TestCacheHitCost:
    def test_cache_hit_builds_no_communication_or_graph(self, monkeypatch):
        """Re-pricing an already-cached situation is one key build and one
        lookup: no Communication and no CommunicationGraph is constructed."""
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        provider.update(transfers((0, 1), (0, 2)), [])  # a miss prices it once
        provider.update([], [0, 1])
        built = []
        for cls in (Communication, CommunicationGraph):
            def counting(self, *args, _original=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _original(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        changed = provider.update([Transfer(5, 3, 4, 1000.0), Transfer(6, 3, 5, 1000.0)], [])
        assert set(changed) == {5, 6}
        assert provider.stats.cache_hits == 1
        assert built == []
