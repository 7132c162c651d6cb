"""Property-based tests: the event-calendar engine is bit-exact.

The execution engine advances in-flight transfers through a lazy calendar
of predicted completions, re-timing only the transfers whose rate value
changed — fed either by the provider's delta ``update`` API
(``EngineConfig(delta_rates=True)``, the default) or by re-pricing the
full active set from a reset provider every step (``delta_rates=False``,
the reference).  The two must produce **identical** ``EventRecord`` streams and
finish times for any application, placement and technology, under every
provider (incremental model, full-recompute model, calibrated emulator) —
the delta path is an optimisation, never an approximation.  The same holds
under interference (background flows entering and leaving the rate set, a
link-degradation window re-pricing every incumbent) and for the standalone
fluid simulator, and a traced run is reproducible record for record.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cluster import custom_cluster, make_placement
from repro.core import GigabitEthernetModel, MyrinetModel
from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import FluidTransferSimulator, Transfer
from repro.network.topology import CrossbarTopology
from repro.simulator import (
    ANY_SOURCE,
    Application,
    BackgroundTrafficInjector,
    EngineConfig,
    LinkDegradationInjector,
    Simulator,
)
from repro.simulator.providers import ModelRateProvider
from repro.trace import MemoryTraceSink, assert_traces_equal
from repro.units import KiB, MB

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# loaded runs simulate the injected flows too: fewer examples per case
loaded_settings = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# one round = an anti-deadlock matching: every task is endpoint of at most
# one message, so all sends of a round can only pair with recvs of the same
# round (tags disambiguate rounds for wildcard receives, and an eager
# message from a future round can never satisfy an earlier wildcard)
round_strategy = st.fixed_dictionaries({
    "pairs": st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans(),
                  st.booleans()),
        min_size=1, max_size=3,
    ),
    "computes": st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 40)), max_size=3
    ),
    "barrier": st.booleans(),
})
workload_strategy = st.fixed_dictionaries({
    "num_tasks": st.integers(2, 6),
    "rounds": st.lists(round_strategy, min_size=1, max_size=5),
    "policy": st.sampled_from(["RRN", "RRP", "random"]),
    "seed": st.integers(0, 3),
})


def build_application(spec) -> Application:
    num_tasks = spec["num_tasks"]
    app = Application(num_tasks=num_tasks, name="calendar-prop")
    for round_no, round_spec in enumerate(spec["rounds"]):
        tag = round_no + 1
        busy = set()
        for rank, ticks in round_spec["computes"]:
            app.add_compute(rank % num_tasks, duration=ticks * 0.0125)
        for a, b, large, wildcard in round_spec["pairs"]:
            src, dst = a % num_tasks, b % num_tasks
            if src == dst:
                dst = (dst + 1) % num_tasks
            if src in busy or dst in busy:
                continue
            busy.update((src, dst))
            size = 2 * MB if large else 4 * KiB
            app.add_send(src, dst, size, tag=tag)
            app.add_recv(dst, ANY_SOURCE if wildcard else src, size, tag=tag)
        if round_spec["barrier"]:
            app.add_barrier()
    return app


def run_engine(app, cluster, provider, policy, seed, delta: bool,
               injectors=(), trace=None):
    sim = Simulator(cluster, provider,
                    config=EngineConfig(delta_rates=delta, injectors=injectors,
                                        trace=trace))
    placement = make_placement(policy, cluster, app.num_tasks, seed=seed)
    report = sim.run(app, placement=placement)
    return report.records, report.finish_time_per_task


PROVIDER_KINDS = ("model", "emulator")
LOADS = ("background", "degradation")


def make_provider(kind, cluster):
    if kind == "model":
        return ModelRateProvider(GigabitEthernetModel(), cluster.technology)
    topology = CrossbarTopology(num_hosts=cluster.num_nodes,
                                technology=cluster.technology)
    return EmulatorRateProvider(cluster.technology, topology)


def make_load(load, seed):
    """Fresh injectors for one run: seeded background flows, or two
    overlapping degradation windows whose edges fall while early messages
    are in flight (compute phases last multiples of 12.5 ms, a 2 MB message
    takes ~17 ms)."""
    if load == "background":
        return (BackgroundTrafficInjector(rate=200.0, size=1 * MB, seed=seed,
                                          max_flows=6),)
    return (LinkDegradationInjector(0.5, start=0.002, until=0.02),
            LinkDegradationInjector(0.25, start=0.014, until=0.04, hosts=(1, 2)))


class TestCalendarEngineBitExact:
    @common_settings
    @given(spec=workload_strategy)
    def test_delta_and_full_requery_identical_model_provider(self, spec):
        cluster = custom_cluster(num_nodes=3, cores_per_node=2, technology="ethernet")
        app = build_application(spec)
        outcomes = {}
        for delta in (True, False):
            provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
            outcomes[delta] = run_engine(
                app, cluster, provider, spec["policy"], spec["seed"], delta
            )
        assert outcomes[True] == outcomes[False]

    @common_settings
    @given(spec=workload_strategy)
    def test_incremental_and_full_recompute_providers_identical(self, spec):
        """Across providers *and* across loop modes: all four agree."""
        cluster = custom_cluster(num_nodes=4, cores_per_node=2, technology="myrinet")
        app = build_application(spec)
        outcomes = []
        for delta in (True, False):
            for incremental in (True, False):
                provider = ModelRateProvider(
                    MyrinetModel(), "myrinet", incremental=incremental
                )
                outcomes.append(run_engine(
                    app, cluster, provider, spec["policy"], spec["seed"], delta
                ))
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])

    @common_settings
    @given(spec=workload_strategy)
    def test_delta_and_full_requery_identical_emulator_provider(self, spec):
        cluster = custom_cluster(num_nodes=3, cores_per_node=2, technology="ethernet")
        app = build_application(spec)
        outcomes = {}
        for delta in (True, False):
            topology = CrossbarTopology(num_hosts=cluster.num_nodes,
                                        technology=cluster.technology)
            provider = EmulatorRateProvider(cluster.technology, topology)
            outcomes[delta] = run_engine(
                app, cluster, provider, spec["policy"], spec["seed"], delta
            )
        assert outcomes[True] == outcomes[False]


class TestLoadedEngineBitExact:
    @pytest.mark.parametrize("load", LOADS)
    @pytest.mark.parametrize("kind", PROVIDER_KINDS)
    @loaded_settings
    @given(spec=workload_strategy)
    def test_delta_and_full_requery_identical(self, kind, load, spec):
        """Background flows join and leave the provider's rate set between
        foreground events, and both edges of a degradation window re-price
        every incumbent (provider reset + re-add): the delta-fed run still
        matches the full re-query run exactly."""
        cluster = custom_cluster(num_nodes=3, cores_per_node=2, technology="ethernet")
        app = build_application(spec)
        outcomes = {}
        for delta in (True, False):
            outcomes[delta] = run_engine(
                app, cluster, make_provider(kind, cluster), spec["policy"],
                spec["seed"], delta, injectors=make_load(load, spec["seed"]),
            )
        assert outcomes[True] == outcomes[False]

    @loaded_settings
    @given(spec=workload_strategy, kind=st.sampled_from(PROVIDER_KINDS),
           load=st.sampled_from(LOADS))
    def test_traced_runs_reproduce_record_for_record(self, spec, kind, load):
        """Two traced runs of one loaded workload emit the same trace —
        flush, stall and retime interleaving included — so a trace diff of
        two runs only ever shows a real change."""
        cluster = custom_cluster(num_nodes=3, cores_per_node=2, technology="ethernet")
        app = build_application(spec)
        sinks, outcomes = [], []
        for _ in range(2):
            sink = MemoryTraceSink()
            outcomes.append(run_engine(
                app, cluster, make_provider(kind, cluster), spec["policy"],
                spec["seed"], True, injectors=make_load(load, spec["seed"]),
                trace=sink,
            ))
            sinks.append(sink)
        assert outcomes[0] == outcomes[1]
        assert sinks[0].emitted > 0
        assert_traces_equal(sinks[0].log(), sinks[1].log(),
                            label_a="first", label_b="second")


class TestFluidSimulatorBitExact:
    @pytest.mark.parametrize("loaded", [False, True], ids=["clean", "loaded"])
    @pytest.mark.parametrize("kind", PROVIDER_KINDS)
    @common_settings
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 40)),
            min_size=1, max_size=12,
        ),
    )
    def test_delta_and_full_requery_identical(self, kind, loaded, entries):
        """The standalone fluid loop: staggered arrivals (intra-node ones
        included), optionally under background traffic, complete at the
        same instants whether the calendar is fed deltas or re-queries."""
        transfers = [
            Transfer(i, src, dst, 100_000.0 * ticks, start_time=0.001 * i)
            for i, (src, dst, ticks) in enumerate(entries)
        ]
        cluster = custom_cluster(num_nodes=4, cores_per_node=1, technology="ethernet")
        results = {}
        for delta in (True, False):
            injectors = ()
            if loaded:
                injectors = (BackgroundTrafficInjector(
                    rate=2000.0, size=200_000.0, seed=len(entries), max_flows=4),)
            sim = FluidTransferSimulator(make_provider(kind, cluster),
                                         delta=delta, injectors=injectors)
            results[delta] = sim.run(transfers)
        assert results[True] == results[False]
        assert set(results[True]) == {t.transfer_id for t in transfers}


class TestMinimalProvider:
    @pytest.mark.parametrize("delta", [True, False], ids=["delta", "full"])
    def test_engine_runs_on_an_update_reset_provider(self, delta):
        """A third-party provider needs nothing beyond ``update`` and ``reset``."""

        class FairSplit:
            def __init__(self):
                self.active = {}

            def reset(self):
                self.active = {}

            def update(self, added, removed):
                for tid in removed:
                    del self.active[tid]
                for transfer in added:
                    self.active[transfer.transfer_id] = transfer
                return {tid: 1e8 / len(self.active) for tid in self.active}

        cluster = custom_cluster(num_nodes=4, cores_per_node=1, technology="ethernet")
        app = Application(num_tasks=4)
        for src, dst in ((0, 1), (2, 3)):
            app.add_send(src, dst, 1 * MB)
            app.add_recv(dst, src, 1 * MB)
        sim = Simulator(cluster, FairSplit(), config=EngineConfig(delta_rates=delta))
        report = sim.run(app, placement="RRN")
        # both messages are in flight together, each at half the rate
        expected = cluster.technology.latency + (
            1 * MB + cluster.technology.mpi_envelope
        ) / 5e7
        assert report.total_time == pytest.approx(expected, rel=1e-6)
