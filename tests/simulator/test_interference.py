"""Unit tests of the interference injectors and their engine/fluid wiring."""

from __future__ import annotations

import pytest

from repro.cluster import custom_cluster
from repro.core import GigabitEthernetModel
from repro.exceptions import DeadlockError, SimulationError
from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import FluidTransferSimulator, Transfer
from repro.network.technologies import get_technology
from repro.simulator import (
    Application,
    BackgroundTrafficInjector,
    EngineConfig,
    LinkDegradationInjector,
    NodeSlowdownInjector,
    Simulator,
    build_injectors,
)
from repro.simulator.providers import ModelRateProvider
from repro.units import KiB, MB


def ring_app(num_tasks=4, size=2 * MB):
    app = Application(num_tasks=num_tasks, name="ring")
    for rank in range(num_tasks):
        app.add_send(rank, (rank + 1) % num_tasks, size, tag=1)
        app.add_recv((rank + 1) % num_tasks, rank, size, tag=1)
    return app


def run_engine(app, cluster, injectors=(), mode="predictive", seed=0):
    config = EngineConfig(injectors=injectors)
    if mode == "emulated":
        sim = Simulator.emulated(cluster, config=config)
    else:
        sim = Simulator.predictive(cluster, config=config)
    report = sim.run(app, placement="RRN", seed=seed)
    return report, sim.last_engine_stats


@pytest.fixture
def cluster():
    return custom_cluster(num_nodes=4, cores_per_node=1, technology="ethernet")


class TestInjectorContracts:
    def test_neutral_configurations_schedule_no_events(self):
        for injector in (
            BackgroundTrafficInjector(rate=0.0, size=1 * MB),
            BackgroundTrafficInjector(rate=10.0, size=0.0),
            BackgroundTrafficInjector(rate=10.0, size=1 * MB, max_flows=0),
            LinkDegradationInjector(factor=1.0),
            NodeSlowdownInjector(factor=1.0),
        ):
            injector.reset()
            assert injector.next_event(0.0) is None

    def test_background_arrivals_are_deterministic_per_seed(self):
        def arrival_times(seed):
            injector = BackgroundTrafficInjector(rate=100.0, size=1 * MB,
                                                 seed=seed, max_flows=5)

            class Recorder:
                hosts = (0, 1, 2, 3)

                def __init__(self):
                    self.flows = []
                    self.now = 0.0

                def start_flow(self, src, dst, size, owner="background"):
                    self.flows.append((self.now, src, dst, size))
                    return len(self.flows)

            recorder = Recorder()
            injector.reset()
            times = []
            while True:
                when = injector.next_event(recorder.now)
                if when is None:
                    break
                recorder.now = when
                times.append(when)
                injector.apply(recorder)
            return times, recorder.flows

        assert arrival_times(7) == arrival_times(7)
        assert arrival_times(7) != arrival_times(8)

    def test_background_window_and_flow_cap(self):
        injector = BackgroundTrafficInjector(rate=1000.0, size=1 * MB, seed=0,
                                             start=1.0, until=1.01)

        class Sink:
            hosts = (0, 1)
            now = 0.0

            def start_flow(self, *a, **k):
                return 0

        injector.reset()
        first = injector.next_event(0.0)
        assert first is not None and first >= 1.0
        sink = Sink()
        fired = 0
        while True:
            when = injector.next_event(sink.now)
            if when is None:
                break
            assert 1.0 <= when < 1.01
            sink.now = when
            injector.apply(sink)
            fired += 1
        assert fired >= 1

    def test_injector_validation(self):
        with pytest.raises(SimulationError):
            BackgroundTrafficInjector(rate=-1.0, size=1.0)
        with pytest.raises(SimulationError):
            LinkDegradationInjector(factor=0.0)
        with pytest.raises(SimulationError):
            NodeSlowdownInjector(factor=0.5, start=2.0, until=1.0)
        with pytest.raises(SimulationError):
            BackgroundTrafficInjector(rate=1.0, size=1.0, pairs=[(2, 2)])

    def test_build_injectors_drops_neutral_sections(self):
        assert build_injectors() == ()
        assert build_injectors(background={"rate": 0.0, "size": 1e6}) == ()
        assert build_injectors(link_degradation={"factor": 1.0}) == ()
        built = build_injectors(
            background={"rate": 10.0, "size": 1e6},
            node_slowdown={"factor": 0.5},
            seed=3,
        )
        assert [type(i).__name__ for i in built] == [
            "BackgroundTrafficInjector", "NodeSlowdownInjector",
        ]
        assert built[0].seed == 3  # campaign seed offsets the injector seed


class TestEngineInjection:
    def test_background_flows_slow_the_foreground_but_stay_invisible(self, cluster):
        app = ring_app()
        clean, clean_stats = run_engine(app, cluster)
        injectors = (BackgroundTrafficInjector(rate=300.0, size=4 * MB, seed=1,
                                               max_flows=20),)
        loaded, stats = run_engine(app, cluster, injectors)
        assert loaded.total_time > clean.total_time
        assert stats.background_flows == 20
        assert stats.injected_events >= 20
        # the records describe exactly the same foreground events (per rank,
        # in program order — interference may reorder completions across ranks)
        assert sorted((r.rank, r.index, r.kind, r.size) for r in loaded.records) \
            == sorted((r.rank, r.index, r.kind, r.size) for r in clean.records)

    def test_emulated_provider_contends_with_background_traffic(self, cluster):
        app = ring_app()
        clean, _ = run_engine(app, cluster, mode="emulated")
        injectors = (BackgroundTrafficInjector(rate=300.0, size=4 * MB, seed=1,
                                               max_flows=20),)
        loaded, _ = run_engine(app, cluster, injectors, mode="emulated")
        assert loaded.total_time > clean.total_time

    def test_link_degradation_window_slows_covered_transfers(self, cluster):
        app = ring_app()
        clean, _ = run_engine(app, cluster)
        halved = (LinkDegradationInjector(factor=0.5, start=0.0),)
        loaded, _ = run_engine(app, cluster, halved)
        # every transfer runs at half rate for the whole run: the makespan
        # is bounded below by the clean one and above by its double
        assert clean.total_time < loaded.total_time <= 2.0 * clean.total_time + 1e-9
        # a window that closes before any data flows is invisible... but the
        # reprice churn must not change the outcome either
        noop = (LinkDegradationInjector(factor=0.5, start=0.0, until=1e-9),)
        unharmed, _ = run_engine(app, cluster, noop)
        assert unharmed.total_time == pytest.approx(clean.total_time)

    def test_degradation_scoped_to_hosts_spares_other_traffic(self, cluster):
        app = Application(num_tasks=2)
        app.add_send(0, 1, 2 * MB, tag=1)
        app.add_recv(1, 0, 2 * MB, tag=1)
        clean, _ = run_engine(app, cluster)
        elsewhere = (LinkDegradationInjector(factor=0.25, hosts=[3]),)
        untouched, _ = run_engine(app, cluster, elsewhere)
        # RRN places ranks 0/1 on nodes 0/1: degrading node 3 changes nothing
        assert untouched.total_time == pytest.approx(clean.total_time)

    def test_node_slowdown_scales_compute_durations(self, cluster):
        app = Application(num_tasks=2)
        app.add_compute(0, duration=0.1)
        app.add_compute(1, duration=0.1)
        slowdown = (NodeSlowdownInjector(factor=0.5, start=0.0),)
        report, _ = run_engine(app, cluster, slowdown)
        assert report.total_time == pytest.approx(0.2)
        # the scale applies to computes *starting* inside the window: these
        # start at t=0, before the window opens, and keep full speed
        later = (NodeSlowdownInjector(factor=0.5, start=0.05),)
        report, _ = run_engine(app, cluster, later)
        assert report.total_time == pytest.approx(0.1, rel=1e-3)

    def test_deadlock_is_still_detected_under_interference(self, cluster):
        app = Application(num_tasks=2)
        # classic recv-before-send cycle: both ranks block on their receive
        app.add_recv(0, 1, 1 * MB, tag=9)
        app.add_send(0, 1, 1 * MB, tag=9)
        app.add_recv(1, 0, 1 * MB, tag=9)
        app.add_send(1, 0, 1 * MB, tag=9)
        injectors = (BackgroundTrafficInjector(rate=1000.0, size=1 * MB, seed=0),)
        with pytest.raises(DeadlockError):
            run_engine(app, cluster, injectors)

    def test_eager_messages_survive_interference(self, cluster):
        app = Application(num_tasks=2)
        app.add_send(0, 1, 4 * KiB, tag=1)
        app.add_recv(1, 0, 4 * KiB, tag=1)
        injectors = (BackgroundTrafficInjector(rate=500.0, size=2 * MB, seed=2,
                                               max_flows=10),)
        report, _ = run_engine(app, cluster, injectors)
        kinds = {(r.rank, r.kind) for r in report.records}
        assert (0, "send") in kinds and (1, "recv") in kinds


class TestFluidInjection:
    def transfers(self):
        return [Transfer(i, i % 4, (i + 1) % 4, 1 * MB, start_time=0.005 * i)
                for i in range(8)]

    @pytest.mark.parametrize("provider_factory", [
        lambda: ModelRateProvider(GigabitEthernetModel(), "ethernet"),
        lambda: EmulatorRateProvider(get_technology("ethernet"), num_hosts=4),
    ], ids=["model", "emulator"])
    def test_background_flows_excluded_from_results(self, provider_factory):
        injectors = (BackgroundTrafficInjector(rate=200.0, size=2 * MB, seed=4,
                                               max_flows=12),)
        clean = FluidTransferSimulator(provider_factory()).run(self.transfers())
        sim = FluidTransferSimulator(provider_factory(), injectors=injectors)
        loaded = sim.run(self.transfers())
        assert set(loaded) == set(clean)  # only foreground ids come back
        assert sim.last_calendar_stats.activations > len(self.transfers())
        assert max(r.finish_time for r in loaded.values()) > \
            max(r.finish_time for r in clean.values())

    def test_degradation_window_reprices_in_flight_transfers(self):
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
        single = [Transfer("t", 0, 1, 10 * MB)]
        clean = FluidTransferSimulator(
            ModelRateProvider(GigabitEthernetModel(), "ethernet")
        ).run(single)["t"]
        window = clean.finish_time / 2
        sim = FluidTransferSimulator(
            provider,
            injectors=(LinkDegradationInjector(factor=0.5, start=0.0,
                                               until=window),),
        )
        loaded = sim.run(single)["t"]
        # at half rate for T/2 only a quarter of the bytes move, leaving
        # 3T/4 at full rate: the makespan is exactly 1.25x the clean one
        assert loaded.finish_time == pytest.approx(1.25 * clean.finish_time,
                                                   rel=1e-6)
