"""Property-based tests: disabled interference is bit-exact.

The acceptance bar of the interference subsystem: with every injector in
its neutral configuration (zero background intensity, scaling factors of
exactly 1.0) — or with no injectors at all — the execution engine and the
fluid simulator must produce **bit-for-bit** the results of a run that
never heard of injection, over random applications, placements and both
provider families.  Loaded runs must still execute every foreground event
and can only be slower.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.cluster import custom_cluster, make_placement
from repro.core import GigabitEthernetModel
from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import FluidTransferSimulator, Transfer
from repro.network.topology import CrossbarTopology
from repro.simulator import (
    ANY_SOURCE,
    Application,
    BackgroundTrafficInjector,
    EngineConfig,
    LinkDegradationInjector,
    NodeSlowdownInjector,
    Simulator,
)
from repro.simulator.providers import ModelRateProvider
from repro.units import KiB, MB

common_settings = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# the same anti-deadlock round structure the calendar-engine properties use
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
    "rounds": st.lists(round_strategy, min_size=1, max_size=4),
    "policy": st.sampled_from(["RRN", "RRP", "random"]),
    "seed": st.integers(0, 3),
    "provider": st.sampled_from(["model", "emulator"]),
})


def build_application(spec) -> Application:
    num_tasks = spec["num_tasks"]
    app = Application(num_tasks=num_tasks, name="interference-prop")
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


def make_provider(kind, cluster):
    if kind == "model":
        return ModelRateProvider(GigabitEthernetModel(), "ethernet")
    topology = CrossbarTopology(num_hosts=cluster.num_nodes,
                                technology=cluster.technology)
    return EmulatorRateProvider(cluster.technology, topology)


def neutral_injectors(seed=0):
    return (
        BackgroundTrafficInjector(rate=0.0, size=4 * MB, seed=seed),
        BackgroundTrafficInjector(rate=50.0, size=0.0, seed=seed),
        LinkDegradationInjector(factor=1.0, start=0.0, until=10.0),
        NodeSlowdownInjector(factor=1.0, start=0.0, until=10.0),
    )


def run_engine(app, cluster, provider, policy, seed, injectors):
    sim = Simulator(cluster, provider, config=EngineConfig(injectors=injectors))
    placement = make_placement(policy, cluster, app.num_tasks, seed=seed)
    report = sim.run(app, placement=placement)
    return report.records, report.finish_time_per_task, sim.last_engine_stats


class TestZeroIntensityBitExact:
    @common_settings
    @given(spec=workload_strategy)
    def test_neutral_injectors_are_bit_exact_in_the_engine(self, spec):
        cluster = custom_cluster(num_nodes=3, cores_per_node=2,
                                 technology="ethernet")
        app = build_application(spec)
        clean = run_engine(
            app, cluster, make_provider(spec["provider"], cluster),
            spec["policy"], spec["seed"], injectors=(),
        )
        neutral = run_engine(
            app, cluster, make_provider(spec["provider"], cluster),
            spec["policy"], spec["seed"], injectors=neutral_injectors(spec["seed"]),
        )
        assert neutral == clean
        assert neutral[2].injected_events == 0

    @common_settings
    @given(spec=workload_strategy)
    def test_loaded_runs_execute_every_foreground_event(self, spec):
        """Interference may reorder time but never the foreground work."""
        cluster = custom_cluster(num_nodes=3, cores_per_node=2,
                                 technology="ethernet")
        app = build_application(spec)
        clean_records, clean_finish, _ = run_engine(
            app, cluster, make_provider(spec["provider"], cluster),
            spec["policy"], spec["seed"], injectors=(),
        )
        injectors = (
            BackgroundTrafficInjector(rate=150.0, size=2 * MB,
                                      seed=spec["seed"], max_flows=10),
            LinkDegradationInjector(factor=0.5, start=0.0, until=0.05),
        )
        loaded_records, loaded_finish, stats = run_engine(
            app, cluster, make_provider(spec["provider"], cluster),
            spec["policy"], spec["seed"], injectors=injectors,
        )

        # interference legitimately reorders completion *times* across ranks,
        # but each rank must still execute exactly its program, in program
        # order — compare the per-rank event streams, not the global one
        def per_rank(records):
            return sorted((r.rank, r.index, r.kind, r.size, r.peer)
                          for r in records)

        assert per_rank(loaded_records) == per_rank(clean_records)
        # note: no makespan monotonicity assert — max-min schedules are not
        # monotone (slowing one flow can reorder completions and finish a
        # staggered workload marginally earlier), so "loaded >= clean" is
        # not an invariant; the deterministic benchmark ladder covers the
        # expected slowdown on realistic intensities instead
        assert set(loaded_finish) == set(clean_finish)
        assert max(loaded_finish.values()) > 0.0
        assert stats.background_flows <= 10


class TestZeroIntensityFluid:
    transfers_strategy = st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 40)),
        min_size=1, max_size=10,
    )

    @common_settings
    @given(entries=transfers_strategy,
           provider=st.sampled_from(["model", "emulator"]))
    def test_neutral_injectors_are_bit_exact_in_the_fluid_simulator(
        self, entries, provider
    ):
        transfers = [
            Transfer(i, src, dst, 100_000.0 * ticks, start_time=0.001 * i)
            for i, (src, dst, ticks) in enumerate(entries)
        ]
        cluster = custom_cluster(num_nodes=4, cores_per_node=1,
                                 technology="ethernet")
        clean = FluidTransferSimulator(make_provider(provider, cluster)).run(transfers)
        sim = FluidTransferSimulator(make_provider(provider, cluster),
                                     injectors=neutral_injectors())
        neutral = sim.run(transfers)
        assert neutral == clean
