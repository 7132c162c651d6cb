"""Application-level bit-exactness of the emulator's water-filling.

The unit-level suites pin the emulator's solver against the reference
freeze loop; this one closes the loop end to end: simulating a random MPI
application with :class:`~repro.network.allocator.EmulatorRateProvider`
must produce **identical** per-rank event streams and finish times as with
``FlowSpecOracleProvider`` (``test_emulator_oracle.py``), which rebuilds
every solve from FlowSpecs — under both engine loops (delta-fed calendar
and full re-query), for all three technologies, on a crossbar with
intra-node copies and on an oversubscribed fat tree whose fabric links
bind, with warm starts on and off and the emulator's situation memo on
and off (the oracle never memoizes).
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings
from test_emulator_oracle import FlowSpecOracleProvider

from repro.cluster import custom_cluster, make_placement
from repro.network.allocator import EmulatorRateProvider
from repro.network.topology import CrossbarTopology, FatTreeTopology
from repro.simulator import ANY_SOURCE, Application, EngineConfig, Simulator
from repro.units import KiB, MB

common_settings = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

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
})


def build_application(spec) -> Application:
    num_tasks = spec["num_tasks"]
    app = Application(num_tasks=num_tasks, name="emulator-prop")
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


def run_engine(app, cluster, provider, policy, seed, delta: bool):
    sim = Simulator(cluster, provider, config=EngineConfig(delta_rates=delta))
    placement = make_placement(policy, cluster, app.num_tasks, seed=seed)
    report = sim.run(app, placement=placement)
    return report.records, report.finish_time_per_task


def make_cluster_and_topology(technology, fabric):
    """A crossbar with two cores per node (intra-node copies use the memory
    bus), or a 3:1 oversubscribed fat tree of single-core nodes."""
    if fabric == "crossbar":
        cluster = custom_cluster(num_nodes=3, cores_per_node=2, technology=technology)
        return cluster, CrossbarTopology(num_hosts=cluster.num_nodes,
                                         technology=cluster.technology)
    cluster = custom_cluster(num_nodes=6, cores_per_node=1, technology=technology)
    return cluster, FatTreeTopology(num_hosts=cluster.num_nodes,
                                    technology=cluster.technology,
                                    hosts_per_edge=3, uplinks_per_edge=1)


class TestEmulatorEngineMatchesOracle:
    @pytest.mark.parametrize("technology", ["ethernet", "myrinet", "infiniband"])
    @pytest.mark.parametrize("fabric", ["crossbar", "oversubscribed-fat-tree"])
    @pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm-start"])
    @pytest.mark.parametrize("cache_size", [0, 64], ids=["memo-off", "memo-on"])
    @common_settings
    @given(spec=workload_strategy)
    def test_emulator_runs_identical(self, technology, fabric, warm_start, cache_size, spec):
        app = build_application(spec)
        outcomes = []
        for delta in (True, False):
            for cls, memo in ((EmulatorRateProvider, cache_size), (FlowSpecOracleProvider, 0)):
                cluster, topology = make_cluster_and_topology(technology, fabric)
                provider = cls(cluster.technology, topology, warm_start=warm_start,
                               cache_size=memo)
                outcomes.append(run_engine(
                    app, cluster, provider, spec["policy"], spec["seed"], delta
                ))
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])
