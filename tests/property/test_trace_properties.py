"""Property-based tests: tracing never perturbs the simulation.

The acceptance bar of the trace pipeline: attaching a sink (memory or
JSONL) must produce **bit-for-bit** the results of an untraced run — over
random applications, placements, both provider families and both loops
(execution engine and fluid simulator) — and a disabled sink must behave
exactly like no sink at all.  Tracing is observability, never physics.
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
    Simulator,
)
from repro.simulator.providers import ModelRateProvider
from repro.trace import MemoryTraceSink, NullTraceSink
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
    "loaded": st.booleans(),
})


def build_application(spec) -> Application:
    num_tasks = spec["num_tasks"]
    app = Application(num_tasks=num_tasks, name="trace-prop")
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


def run_engine(spec, app, cluster, trace):
    injectors = ()
    if spec["loaded"]:
        injectors = (BackgroundTrafficInjector(
            rate=200.0, size=1 * MB, seed=spec["seed"], max_flows=6),)
    sim = Simulator(cluster, make_provider(spec["provider"], cluster),
                    config=EngineConfig(injectors=injectors, trace=trace))
    placement = make_placement(spec["policy"], cluster, app.num_tasks,
                               seed=spec["seed"])
    report = sim.run(app, placement=placement)
    return report.records, report.finish_time_per_task, sim.last_engine_stats


class TestTraceOffBitExact:
    @common_settings
    @given(spec=workload_strategy)
    def test_tracing_is_bit_exact_in_the_engine(self, spec):
        """Untraced, null-sink and memory-sink runs are identical — for the
        model and the emulator provider, clean and loaded fabrics."""
        cluster = custom_cluster(num_nodes=3, cores_per_node=2,
                                 technology="ethernet")
        app = build_application(spec)
        untraced = run_engine(spec, app, cluster, trace=None)
        null_sink = run_engine(spec, app, cluster, trace=NullTraceSink())
        memory = MemoryTraceSink()
        traced = run_engine(spec, app, cluster, trace=memory)
        assert null_sink == untraced
        assert traced == untraced
        # the trace actually observed the run it did not perturb
        assert memory.emitted > 0
        kinds = memory.log().kinds()
        assert kinds["task.event"] == len(untraced[0])
        assert kinds["calendar.complete"] == untraced[2].calendar.completions

    @common_settings
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 40)),
            min_size=1, max_size=10,
        ),
        provider=st.sampled_from(["model", "emulator"]),
    )
    def test_tracing_is_bit_exact_in_the_fluid_simulator(self, entries, provider):
        transfers = [
            Transfer(i, src, dst, 100_000.0 * ticks, start_time=0.001 * i)
            for i, (src, dst, ticks) in enumerate(entries)
        ]
        cluster = custom_cluster(num_nodes=4, cores_per_node=1,
                                 technology="ethernet")
        untraced_sim = FluidTransferSimulator(make_provider(provider, cluster))
        untraced = untraced_sim.run(transfers)
        memory = MemoryTraceSink()
        traced_sim = FluidTransferSimulator(make_provider(provider, cluster),
                                            trace=memory)
        traced = traced_sim.run(transfers)
        assert traced == untraced
        assert traced_sim.last_calendar_stats == untraced_sim.last_calendar_stats
        assert memory.emitted > 0
