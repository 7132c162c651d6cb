"""Tests of the fluid transfer simulator and the packet-level flow-control models."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.network import (
    CreditBasedNetwork,
    FluidTransferSimulator,
    INFINIBAND_INFINIHOST3,
    MYRINET_2000,
    StopAndGoNetwork,
    Transfer,
)
from repro.units import MB


class WholeSetProvider:
    """Tracks the active set and re-prices all of it on every update."""

    def __init__(self):
        self.active = {}

    def reset(self):
        self.active = {}

    def update(self, added, removed):
        for tid in removed:
            del self.active[tid]
        for transfer in added:
            self.active[transfer.transfer_id] = transfer
        return self.price(list(self.active.values()))

    def price(self, active):
        raise NotImplementedError


class ConstantRateProvider(WholeSetProvider):
    """Every active transfer progresses at the same fixed rate."""

    def __init__(self, rate: float):
        super().__init__()
        self.rate = rate

    def price(self, active):
        return {t.transfer_id: self.rate for t in active}


class SharedResourceProvider(WholeSetProvider):
    """All transfers share a single resource of fixed capacity equally."""

    def __init__(self, capacity: float):
        super().__init__()
        self.capacity = capacity

    def price(self, active):
        if not active:
            return {}
        share = self.capacity / len(active)
        return {t.transfer_id: share for t in active}


class TestFluidSimulator:
    def test_single_transfer_duration(self):
        sim = FluidTransferSimulator(ConstantRateProvider(100.0))
        results = sim.run([Transfer("a", 0, 1, 1000.0)])
        assert results["a"].duration == pytest.approx(10.0)

    def test_latency_added_once(self):
        sim = FluidTransferSimulator(ConstantRateProvider(100.0), latency=1.0)
        results = sim.run([Transfer("a", 0, 1, 1000.0)])
        assert results["a"].duration == pytest.approx(11.0)

    def test_equal_sharing_doubles_duration(self):
        sim = FluidTransferSimulator(SharedResourceProvider(100.0))
        transfers = [Transfer("a", 0, 1, 1000.0), Transfer("b", 0, 2, 1000.0)]
        results = sim.run(transfers)
        assert results["a"].duration == pytest.approx(20.0)
        assert results["b"].duration == pytest.approx(20.0)

    def test_short_transfer_finishes_then_long_one_speeds_up(self):
        """Progressive filling: when the short flow ends, the long one gets the full rate."""
        sim = FluidTransferSimulator(SharedResourceProvider(100.0))
        transfers = [Transfer("short", 0, 1, 500.0), Transfer("long", 0, 2, 1500.0)]
        results = sim.run(transfers)
        # short: 500 bytes at 50 B/s -> 10 s; long: 500 at 50 then 1000 at 100 -> 20 s
        assert results["short"].duration == pytest.approx(10.0)
        assert results["long"].duration == pytest.approx(20.0)

    def test_staggered_start_times(self):
        sim = FluidTransferSimulator(SharedResourceProvider(100.0))
        transfers = [Transfer("a", 0, 1, 1000.0, start_time=0.0),
                     Transfer("b", 0, 2, 1000.0, start_time=5.0)]
        results = sim.run(transfers)
        assert results["a"].start_time == 0.0
        assert results["b"].start_time == 5.0
        assert results["a"].finish_time < results["b"].finish_time

    def test_zero_size_transfer(self):
        sim = FluidTransferSimulator(ConstantRateProvider(100.0))
        results = sim.run([Transfer("a", 0, 1, 0.0)])
        assert results["a"].duration == pytest.approx(0.0)

    def test_duplicate_ids_rejected(self):
        sim = FluidTransferSimulator(ConstantRateProvider(1.0))
        with pytest.raises(SimulationError):
            sim.run([Transfer("a", 0, 1, 1.0), Transfer("a", 1, 2, 1.0)])

    def test_stalled_simulation_detected(self):
        sim = FluidTransferSimulator(ConstantRateProvider(0.0))
        with pytest.raises(SimulationError):
            sim.run([Transfer("a", 0, 1, 10.0)])

    def test_makespan_and_durations_helpers(self):
        sim = FluidTransferSimulator(ConstantRateProvider(10.0))
        transfers = [Transfer("a", 0, 1, 100.0), Transfer("b", 2, 3, 50.0)]
        durations = sim.durations(transfers)
        assert durations["a"] == pytest.approx(10.0)
        assert sim.makespan(transfers) == pytest.approx(10.0)

    def test_negative_start_time_rejected(self):
        with pytest.raises(SimulationError):
            Transfer("a", 0, 1, 10.0, start_time=-1.0)


class TestStopAndGoNetwork:
    def test_single_transfer_close_to_link_speed(self):
        net = StopAndGoNetwork(MYRINET_2000)
        durations = net.durations([Transfer("a", 0, 1, 4 * MB)])
        expected = 4 * MB / MYRINET_2000.link_bandwidth
        assert durations["a"] == pytest.approx(expected, rel=0.05)

    def test_same_source_transfers_serialise(self):
        """Stop & Go: k concurrent sends from one NIC take ~k times longer each."""
        net = StopAndGoNetwork(MYRINET_2000)
        transfers = [Transfer(i, 0, i + 1, 4 * MB) for i in range(3)]
        penalties = net.penalties(transfers)
        assert all(2.7 <= p <= 3.1 for p in penalties.values())

    def test_same_destination_transfers_serialise(self):
        net = StopAndGoNetwork(MYRINET_2000)
        transfers = [Transfer(i, i + 1, 0, 4 * MB) for i in range(2)]
        penalties = net.penalties(transfers)
        assert all(1.8 <= p <= 2.2 for p in penalties.values())

    def test_independent_transfers_unaffected(self):
        net = StopAndGoNetwork(MYRINET_2000)
        transfers = [Transfer("a", 0, 1, 4 * MB), Transfer("b", 2, 3, 4 * MB)]
        penalties = net.penalties(transfers)
        assert all(p == pytest.approx(1.0, abs=0.05) for p in penalties.values())

    def test_intra_node_transfer_rejected(self):
        net = StopAndGoNetwork(MYRINET_2000)
        with pytest.raises(SimulationError):
            net.simulate([Transfer("a", 0, 0, 1 * MB)])

    def test_invalid_packet_size(self):
        with pytest.raises(SimulationError):
            StopAndGoNetwork(MYRINET_2000, packet_size=0)


class TestCreditBasedNetwork:
    def test_single_transfer(self):
        net = CreditBasedNetwork(INFINIBAND_INFINIHOST3)
        durations = net.durations([Transfer("a", 0, 1, 4 * MB)])
        assert durations["a"] > 0

    def test_same_source_transfers_share_the_hca(self):
        net = CreditBasedNetwork(INFINIBAND_INFINIHOST3)
        transfers = [Transfer(i, 0, i + 1, 4 * MB) for i in range(2)]
        penalties = net.penalties(transfers)
        assert all(1.7 <= p <= 2.2 for p in penalties.values())

    def test_credits_limit_a_hot_receiver(self):
        net = CreditBasedNetwork(INFINIBAND_INFINIHOST3, credits_per_destination=2)
        transfers = [Transfer(i, i + 1, 0, 4 * MB) for i in range(3)]
        penalties = net.penalties(transfers)
        assert all(p >= 2.5 for p in penalties.values())

    def test_independent_transfers_unaffected(self):
        net = CreditBasedNetwork(INFINIBAND_INFINIHOST3)
        transfers = [Transfer("a", 0, 1, 2 * MB), Transfer("b", 2, 3, 2 * MB)]
        penalties = net.penalties(transfers)
        assert all(p == pytest.approx(1.0, abs=0.05) for p in penalties.values())

    def test_invalid_credit_count(self):
        with pytest.raises(SimulationError):
            CreditBasedNetwork(INFINIBAND_INFINIHOST3, credits_per_destination=0)

    def test_duplicate_ids_rejected(self):
        net = CreditBasedNetwork(INFINIBAND_INFINIHOST3)
        with pytest.raises(SimulationError):
            net.simulate([Transfer("a", 0, 1, MB), Transfer("a", 2, 3, MB)])


class TestTransferCalendar:
    """Unit tests of the shared event calendar (epoch staleness, delta bridge)."""

    @pytest.mark.parametrize("delta", [True, False], ids=["delta", "full"])
    def test_provider_calls_per_mode(self, delta):
        """Delta mode hands the provider each flush's arrivals; full-query
        mode re-prices every flush from a reset provider with the whole
        in-flight set.  A reprice is a reset plus a full re-add in both:
        in full-query mode the flush before it is that re-add, so the
        set is priced once."""
        from repro.network.fluid import TransferCalendar

        class Recording(ConstantRateProvider):
            def __init__(self):
                super().__init__(100.0)
                self.calls = []

            def reset(self):
                self.calls.append("reset")
                super().reset()

            def update(self, added, removed):
                self.calls.append([t.transfer_id for t in added])
                return super().update(added, removed)

        provider = Recording()
        calendar = TransferCalendar(provider, delta=delta)
        calendar.activate(Transfer("a", 0, 1, 1000.0), now=0.0)
        calendar.flush(0.0)
        calendar.activate(Transfer("b", 2, 3, 1000.0), now=1.0)
        calendar.flush(1.0)
        calendar.reprice(2.0)
        if delta:
            assert provider.calls == [["a"], ["b"], "reset", ["a", "b"]]
        else:
            assert provider.calls == ["reset", ["a"], "reset", ["a", "b"],
                                      "reset", ["a", "b"]]
        assert calendar.next_time() == pytest.approx(10.0)

    def test_stale_entries_are_discarded_not_fired(self):
        """A rate change supersedes the old completion entry via the epoch."""
        from repro.network.fluid import TransferCalendar

        class TwoPhase(WholeSetProvider):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def price(self, active):
                self.calls += 1
                rate = 10.0 if self.calls == 1 else 20.0
                return {t.transfer_id: rate for t in active}

        calendar = TransferCalendar(TwoPhase())
        calendar.activate(Transfer("a", 0, 1, 100.0), now=0.0)
        calendar.flush(0.0)
        assert calendar.next_time() == pytest.approx(10.0)   # 100 B at 10 B/s
        calendar.activate(Transfer("b", 2, 3, 1000.0), now=1.0)
        calendar.flush(1.0)                                   # re-rates a to 20 B/s
        # a: 90 B left at t=1, now at 20 B/s -> completes at 5.5
        assert calendar.next_time() == pytest.approx(5.5)
        done = calendar.pop_due(5.5)
        assert [t.transfer_id for t in done] == ["a"]
        assert calendar.stats.stale_entries >= 1              # the t=10 entry died

    def test_unchanged_rate_value_keeps_the_entry(self):
        from repro.network.fluid import TransferCalendar
        provider = ConstantRateProvider(50.0)
        calendar = TransferCalendar(provider)
        calendar.activate(Transfer("a", 0, 1, 500.0), now=0.0)
        calendar.flush(0.0)
        first_retimed = calendar.stats.retimed
        calendar.activate(Transfer("b", 2, 3, 500.0), now=2.0)
        calendar.flush(2.0)   # a's rate comes back identical: no re-timing
        assert calendar.stats.retimed == first_retimed + 1    # only b
        assert calendar.next_time() == pytest.approx(10.0)

    def test_fluid_simulator_records_calendar_stats(self):
        sim = FluidTransferSimulator(SharedResourceProvider(100.0))
        sim.run([Transfer("a", 0, 1, 500.0), Transfer("b", 0, 2, 1500.0)])
        stats = sim.last_calendar_stats
        assert stats is not None
        assert stats.activations == 2
        assert stats.completions == 2
        assert stats.flushes >= 2

    def test_delta_and_full_fluid_runs_identical(self):
        """The delta bridge is bit-exact with per-step full re-queries."""
        from repro.core import GigabitEthernetModel
        from repro.simulator.providers import ModelRateProvider

        transfers = [
            Transfer(i, src=i % 3, dst=(i + 1) % 3 + 3, size=40000.0 + 1000.0 * i,
                     start_time=0.002 * i)
            for i in range(8)
        ]
        results = {}
        for delta in (True, False):
            provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
            sim = FluidTransferSimulator(provider, delta=delta)
            results[delta] = sim.run(transfers)
        assert results[True] == results[False]

    def test_provider_dropping_a_live_transfer_is_detected(self):
        """A full-query provider that omits a previously rated transfer from
        a later map must raise, not silently keep the stale rate."""

        class Forgetful(WholeSetProvider):
            def price(self, active):
                # prices everything on the first call, then drops transfer "a"
                return {t.transfer_id: 100.0 for t in active
                        if t.transfer_id != "a" or len(active) == 1}

        sim = FluidTransferSimulator(Forgetful(), delta=False)
        transfers = [Transfer("a", 0, 1, 1000.0),
                     Transfer("b", 2, 3, 500.0, start_time=1.0)]
        with pytest.raises(SimulationError, match="no rate for"):
            sim.run(transfers)
