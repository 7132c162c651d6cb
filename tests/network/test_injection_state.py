"""The one injection surface both simulation loops drive.

:class:`FluidInjectionState` owns the background flows and the rate-scale
windows over a :class:`TransferCalendar`; the execution engine's state is a
subclass that only adds the compute-scale windows.  These tests drive the
surface directly, the way an injector's ``apply`` does.
"""

from __future__ import annotations

import pytest

from repro.cluster import custom_cluster
from repro.core import GigabitEthernetModel
from repro.exceptions import SimulationError
from repro.network.fluid import (
    FluidInjectionState,
    FluidTransferSimulator,
    Transfer,
    TransferCalendar,
)
from repro.simulator import (
    Application,
    EngineConfig,
    ModelRateProvider,
    NodeSlowdownInjector,
    Simulator,
)
from repro.simulator.interference import make_compute_scale
from repro.trace import MemoryTraceSink
from repro.units import MB


class ConstantRates:
    """Every live transfer moves at 1 MB/s, so a delta re-prices only its arrivals."""

    def update(self, added, removed):
        return {t.transfer_id: 1e6 for t in added}

    def reset(self):
        pass


def make_state(trace=None):
    calendar = TransferCalendar(ConstantRates(), trace=trace)
    return FluidInjectionState(calendar, (0, 1, 2, 3), trace=trace), calendar


def kinds(sink):
    return [record.kind for record in sink.records]


class TestFlows:
    def test_flows_are_named_per_owner_and_join_the_calendar(self):
        state, calendar = make_state()
        first = state.start_flow(0, 1, 1e6)
        second = state.start_flow(2, 3, 1e6, owner="noise")
        third = state.start_flow(1, 0, 1e6)
        # one sequence numbers the flows of every owner
        assert (first, second, third) == ("background#0", "noise#1", "background#2")
        assert state.background == {first, second, third}
        assert state.injected == 3
        assert all(calendar.is_active(tid) for tid in (first, second, third))

    def test_end_flow_cancels_a_live_flow_and_ignores_unknown_ids(self):
        state, calendar = make_state()
        tid = state.start_flow(0, 1, 1e6)
        state.end_flow(tid)
        assert not calendar.is_active(tid)
        assert state.background == set()
        state.end_flow(tid)
        state.end_flow("background#99")
        assert calendar.stats.cancelled == 1

    def test_end_flow_of_a_completed_flow_only_forgets_it(self):
        state, calendar = make_state()
        tid = state.start_flow(0, 1, 1e6)
        calendar.flush(0.0)
        assert calendar.next_time() == 1.0
        assert [t.transfer_id for t in calendar.pop_due(1.0)] == [tid]
        state.now = 1.0
        state.end_flow(tid)
        assert state.background == set()
        assert calendar.stats.cancelled == 0


class TestRateScales:
    def test_scales_compose_and_reprice_in_flight_transfers(self):
        state, calendar = make_state()
        calendar.activate(Transfer("t", 0, 1, 1e6), 0.0)
        calendar.flush(0.0)
        assert calendar.next_time() == 1.0
        half = state.add_rate_scale(lambda transfer: 0.5)
        state.reprice()
        assert calendar.next_time() == 2.0
        quarter = state.add_rate_scale(lambda transfer: 0.5)
        state.reprice()
        assert half != quarter
        assert calendar.next_time() == 4.0
        state.remove_rate_scale(half)
        state.reprice()
        assert calendar.next_time() == 2.0
        state.remove_rate_scale(quarter)
        state.reprice()
        assert calendar.next_time() == 1.0

    def test_removing_no_handle_changes_nothing(self):
        sink = MemoryTraceSink()
        state, calendar = make_state(trace=sink)
        calendar.activate(Transfer("t", 0, 1, 1e6), 0.0)
        state.add_rate_scale(lambda transfer: 0.5)
        state.reprice()
        sink.clear()
        state.remove_rate_scale(None)
        assert kinds(sink) == []
        state.reprice()
        assert calendar.next_time() == 2.0

    def test_compute_scales_are_ignored_without_a_compute_loop(self):
        sink = MemoryTraceSink()
        state, _ = make_state(trace=sink)
        assert state.add_compute_scale(make_compute_scale(0.5)) is None
        state.remove_compute_scale(None)
        assert kinds(sink) == []


class TestFiringAndTrace:
    def test_fire_applies_the_injector_at_the_given_time(self):
        seen = []

        class Probe:
            name = "probe"

            def apply(self, state):
                seen.append(state.now)

            def next_event(self, now):
                return now + 1.0

        sink = MemoryTraceSink()
        state, _ = make_state(trace=sink)
        assert state.fire(Probe(), 3, 0.25) == 1.25
        assert seen == [0.25]
        assert state.now == 0.25
        assert state.fired == 1
        [record] = sink.records
        assert (record.kind, record.subject, record.data) == \
            ("inject.apply", "probe", {"index": 3})

    def test_trace_records_carry_the_replay_payloads(self):
        sink = MemoryTraceSink()
        state, _ = make_state(trace=sink)
        tid = state.start_flow(0, 2, 5e5, owner="noise")
        info = {"factor": 0.5, "hosts": [2]}
        handle = state.add_rate_scale(lambda transfer: 0.5, info=info)
        state.reprice()
        state.remove_rate_scale(handle)
        state.end_flow(tid)
        inject = [r for r in sink.records if r.kind.startswith("inject.")]
        assert [r.kind for r in inject] == [
            "inject.flow_start", "inject.rate_scale_on", "inject.reprice",
            "inject.rate_scale_off", "inject.flow_end",
        ]
        assert inject[0].data == {"src": 0, "dst": 2, "size": 5e5, "owner": "noise"}
        assert inject[1].subject == handle
        assert inject[1].data == info
        assert inject[1].data is not info  # the payload is a copy


def capture_engine_state(num_nodes=4):
    """Run a one-compute application and return the engine's injection state."""
    captured = []

    class Probe:
        name = "probe"

        def reset(self):
            pass

        def next_event(self, now):
            return None if captured else 0.0

        def apply(self, state):
            captured.append(state)

    app = Application(num_tasks=2)
    app.add_compute(0, duration=0.01)
    app.add_compute(1, duration=0.01)
    cluster = custom_cluster(num_nodes=num_nodes, cores_per_node=1,
                             technology="ethernet")
    Simulator.predictive(cluster, config=EngineConfig(injectors=(Probe(),))).run(
        app, placement="RRN")
    [state] = captured
    return state


class TestEngineState:
    def test_engine_state_is_the_fluid_state_over_the_whole_cluster(self):
        state = capture_engine_state(num_nodes=4)
        assert isinstance(state, FluidInjectionState)
        assert state.hosts == (0, 1, 2, 3)
        assert state.fired == 1

    def test_compute_factor_multiplies_the_installed_windows(self):
        state = capture_engine_state()
        slow = state.add_compute_scale(make_compute_scale(0.5, hosts=[1]))
        everywhere = state.add_compute_scale(make_compute_scale(0.25))
        assert slow != everywhere
        assert state.compute_factor(0) == 0.25
        assert state.compute_factor(1) == 0.125
        state.remove_compute_scale(everywhere)
        assert state.compute_factor(0) == 1.0
        assert state.compute_factor(1) == 0.5
        state.remove_compute_scale(slow)
        assert state.compute_factor(1) == 1.0

    def test_non_positive_compute_factor_is_rejected(self):
        state = capture_engine_state()
        state.add_compute_scale(make_compute_scale(0.0, hosts=[2]))
        assert state.compute_factor(1) == 1.0
        with pytest.raises(SimulationError, match="not positive"):
            state.compute_factor(2)


def test_only_the_engine_records_compute_scale_windows():
    slowdown = (NodeSlowdownInjector(factor=0.5, start=0.0, until=0.005),)
    transfers = [Transfer(i, i, (i + 1) % 4, 1 * MB, start_time=0.001 * i)
                 for i in range(4)]

    def fluid_run(injectors, trace=None):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        return FluidTransferSimulator(provider, injectors=injectors,
                                      trace=trace).run(transfers)

    sink = MemoryTraceSink()
    loaded = fluid_run(slowdown, trace=sink)
    assert "inject.apply" in kinds(sink)
    assert not any(kind.startswith("inject.compute_scale") for kind in kinds(sink))
    clean = fluid_run(())
    assert {tid: r.finish_time for tid, r in loaded.items()} == \
        {tid: r.finish_time for tid, r in clean.items()}

    app = Application(num_tasks=2)
    app.add_compute(0, duration=0.01)
    app.add_compute(1, duration=0.01)
    cluster = custom_cluster(num_nodes=4, cores_per_node=1, technology="ethernet")
    engine_sink = MemoryTraceSink()
    config = EngineConfig(injectors=slowdown, trace=engine_sink)
    Simulator.predictive(cluster, config=config).run(app, placement="RRN")
    assert kinds(engine_sink).count("inject.compute_scale_on") == 1
    assert kinds(engine_sink).count("inject.compute_scale_off") == 1
