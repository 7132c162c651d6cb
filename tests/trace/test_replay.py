"""TraceReplayInjector: recorded interference replayed bit-exactly."""

from __future__ import annotations

import pytest

from repro.cluster import custom_cluster
from repro.exceptions import TraceError
from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import FluidTransferSimulator, Transfer
from repro.network.topology import CrossbarTopology
from repro.simulator import (
    BackgroundTrafficInjector,
    EngineConfig,
    LinkDegradationInjector,
    NodeSlowdownInjector,
    Simulator,
)
from repro.trace import MemoryTraceSink, TraceRecord, TraceReplayInjector, replay_events
from repro.units import MB
from repro.workloads import broadcast_application, ring_allgather
from repro.simulator import Application


def cluster(hosts=4):
    return custom_cluster(num_nodes=hosts, cores_per_node=2,
                          technology="ethernet")


def make_application(num_tasks=4):
    app = Application(num_tasks=num_tasks, name="replay-app")
    for rank in range(num_tasks):
        app.add_compute(rank, duration=0.002 * (rank + 1))
    return ring_allgather(app, 512_000)


def run_engine(app, injectors, trace=None, mode="predictive", hosts=4):
    config = EngineConfig(injectors=injectors, trace=trace)
    if mode == "emulated":
        sim = Simulator.emulated(cluster(hosts), config=config)
    else:
        sim = Simulator.predictive(cluster(hosts), config=config)
    report = sim.run(app, placement="RRP", seed=0)
    return report, sim.last_engine_stats


class TestReplayBitExact:
    @pytest.mark.parametrize("mode", ["predictive", "emulated"])
    def test_background_schedule_replays_bit_exactly(self, mode):
        """The acceptance bar: a loaded run's own trace reproduces it."""
        app = make_application()
        original = BackgroundTrafficInjector(rate=250.0, size=2 * MB, seed=3,
                                             max_flows=8)
        sink = MemoryTraceSink()
        loaded_report, loaded_stats = run_engine(app, (original,), trace=sink,
                                                 mode=mode)
        assert loaded_stats.background_flows > 0

        replay = TraceReplayInjector(sink.records)
        assert len(replay.events) == loaded_stats.background_flows
        replay_report, replay_stats = run_engine(app, (replay,), mode=mode)

        # bit-exact: identical per-rank event streams and completion times
        assert replay_report.records == loaded_report.records
        assert replay_report.finish_time_per_task == loaded_report.finish_time_per_task
        assert replay_stats.background_flows == loaded_stats.background_flows

    def test_window_injectors_replay_bit_exactly(self):
        app = make_application()
        injectors = (
            LinkDegradationInjector(factor=0.5, start=0.0, until=0.02,
                                    hosts=[0, 1]),
            NodeSlowdownInjector(factor=0.5, start=0.0, until=0.05),
        )
        sink = MemoryTraceSink()
        loaded_report, _ = run_engine(app, injectors, trace=sink)

        replay = TraceReplayInjector(sink.records)
        kinds = [record.kind for record in replay.events]
        assert "inject.rate_scale_on" in kinds
        assert "inject.compute_scale_on" in kinds
        replay_report, _ = run_engine(app, (replay,))
        assert replay_report.records == loaded_report.records
        assert replay_report.finish_time_per_task == loaded_report.finish_time_per_task

    def test_replay_is_rerunnable_after_reset(self):
        app = make_application()
        sink = MemoryTraceSink()
        loaded_report, _ = run_engine(
            app, (BackgroundTrafficInjector(rate=150.0, size=1 * MB, seed=1,
                                            max_flows=4),), trace=sink)
        replay = TraceReplayInjector(sink.records)
        first, _ = run_engine(app, (replay,))
        second, _ = run_engine(app, (replay,))  # engine calls reset() itself
        assert first.records == second.records == loaded_report.records

    def test_fluid_simulator_replay(self):
        transfers = [
            Transfer(i, src=i % 3, dst=(i + 1) % 3, size=300_000.0,
                     start_time=0.001 * i)
            for i in range(6)
        ]

        def provider():
            spec = cluster(3)
            topology = CrossbarTopology(num_hosts=3, technology=spec.technology)
            return EmulatorRateProvider(spec.technology, topology)

        sink = MemoryTraceSink()
        loaded = FluidTransferSimulator(
            provider(),
            injectors=(BackgroundTrafficInjector(rate=400.0, size=1 * MB,
                                                 seed=5, max_flows=5),),
            trace=sink,
        ).run(transfers)
        replayed = FluidTransferSimulator(
            provider(), injectors=(TraceReplayInjector(sink.records),)
        ).run(transfers)
        assert replayed == loaded


class TestReplayMechanics:
    def test_replay_events_filters_and_keeps_order(self):
        records = [
            TraceRecord(0.0, "calendar.activate", "a", {}),
            TraceRecord(0.1, "inject.flow_start", "bg#0",
                        {"src": 0, "dst": 1, "size": 1e6, "owner": "bg"}),
            TraceRecord(0.2, "inject.apply", "bg", {"index": 0}),
            TraceRecord(0.3, "inject.reprice", None, {}),
            TraceRecord(0.4, "inject.flow_end", "bg#0", {}),
        ]
        events = replay_events(records)
        assert [r.kind for r in events] == ["inject.flow_start", "inject.flow_end"]

    def test_flow_start_payload_is_validated(self):
        with pytest.raises(TraceError):
            replay_events([TraceRecord(0.0, "inject.flow_start", "x",
                                       {"src": 0, "dst": 1})])

    def test_scale_payload_is_validated(self):
        with pytest.raises(TraceError):
            replay_events([TraceRecord(0.0, "inject.rate_scale_on", 0, {})])

    def test_flow_end_uses_the_recorded_to_live_id_mapping(self):
        class FakeState:
            def __init__(self):
                self.now = 0.0
                self.hosts = (0, 1)
                self.started = []
                self.ended = []

            def start_flow(self, src, dst, size, owner="background"):
                tid = f"live#{len(self.started)}"
                self.started.append((src, dst, size, owner))
                return tid

            def end_flow(self, tid):
                self.ended.append(tid)

        replay = TraceReplayInjector([
            TraceRecord(0.0, "inject.flow_start", "recorded#7",
                        {"src": 0, "dst": 1, "size": 1e6, "owner": "bg"}),
            TraceRecord(0.5, "inject.flow_end", "recorded#7", {}),
        ])
        state = FakeState()
        assert replay.next_event(0.0) == 0.0
        replay.apply(state)
        assert replay.next_event(0.0) == 0.5
        replay.apply(state)
        assert replay.next_event(1.0) is None
        assert state.started == [(0, 1, 1e6, "bg")]
        assert state.ended == ["live#0"]

    def test_describe(self):
        replay = TraceReplayInjector([
            TraceRecord(0.25, "inject.flow_start", "a",
                        {"src": 0, "dst": 1, "size": 1.0}),
        ], name="measured")
        info = replay.describe()
        assert info["name"] == "measured"
        assert info["events"] == 1
        assert info["start"] == info["until"] == 0.25

    def test_flow_end_without_a_recorded_start_is_skipped(self):
        """A sliced trace can carry a flow_end whose start fell outside the
        window; the raw recorded id must never alias a replayed flow."""
        class FakeState:
            def __init__(self):
                self.now = 0.0
                self.hosts = (0, 1)
                self.ended = []

            def start_flow(self, src, dst, size, owner="background"):
                return "background#1"  # the id the stray end would alias

            def end_flow(self, tid):
                self.ended.append(tid)

        replay = TraceReplayInjector([
            TraceRecord(0.0, "inject.flow_start", "background#6",
                        {"src": 0, "dst": 1, "size": 1e6}),
            # start of background#1 fell outside the slice
            TraceRecord(0.1, "inject.flow_end", "background#1", {}),
        ])
        state = FakeState()
        replay.apply(state)
        replay.apply(state)
        assert state.ended == []  # the stray end is dropped, nothing aliased

    def test_empty_trace_replays_as_neutral(self):
        app = broadcast_application(4, 1 * MB)
        clean, _ = run_engine(app, ())
        replayed, stats = run_engine(app, (TraceReplayInjector([]),))
        assert replayed.records == clean.records
        assert stats.injected_events == 0
