"""Property-based tests on the sharing solver, the fluid simulator, placements
and the scheme language round-trip."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cluster import custom_cluster, make_placement
from repro.core.graph import CommunicationGraph
from repro.network import FlowSpec, FluidTransferSimulator, Transfer, max_min_allocation
from repro.scheme import format_scheme, parse_scheme
from repro.units import MB

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestMaxMinProperties:
    @common_settings
    @given(
        num_flows=st.integers(1, 8),
        capacity=st.floats(1.0, 1e9, allow_nan=False, allow_infinity=False),
        caps=st.lists(st.floats(0.5, 1e9), min_size=8, max_size=8),
    )
    def test_feasibility_and_cap_respect(self, num_flows, capacity, caps):
        flows = [FlowSpec(i, ("r",), cap=caps[i]) for i in range(num_flows)]
        rates = max_min_allocation(flows, {"r": capacity})
        assert sum(rates.values()) <= capacity * (1 + 1e-9)
        for flow in flows:
            assert rates[flow.flow_id] <= flow.cap * (1 + 1e-9)
            assert rates[flow.flow_id] >= 0.0

    @common_settings
    @given(num_flows=st.integers(1, 8), capacity=st.floats(1.0, 1e9))
    def test_uncapped_flows_share_equally(self, num_flows, capacity):
        flows = [FlowSpec(i, ("r",)) for i in range(num_flows)]
        rates = max_min_allocation(flows, {"r": capacity})
        expected = capacity / num_flows
        for value in rates.values():
            assert value == pytest.approx(expected, rel=1e-6)

    @common_settings
    @given(
        num_flows=st.integers(2, 6),
        capacity=st.floats(10.0, 1e6),
        seed=st.integers(0, 100),
    )
    def test_work_conservation_on_the_bottleneck(self, num_flows, capacity, seed):
        """If no flow is cap-limited, the bottleneck resource is fully used."""
        flows = [FlowSpec(i, ("r",)) for i in range(num_flows)]
        rates = max_min_allocation(flows, {"r": capacity})
        assert sum(rates.values()) == pytest.approx(capacity, rel=1e-9)


class _FairShare:
    """Splits 100 B/s equally: every delta re-prices the whole tracked set."""

    def __init__(self):
        self.active = set()

    def reset(self):
        self.active = set()

    def update(self, added, removed):
        self.active.difference_update(removed)
        self.active.update(t.transfer_id for t in added)
        return {tid: 100.0 / len(self.active) for tid in self.active}


class TestFluidSimulatorProperties:
    @common_settings
    @given(
        sizes=st.lists(st.floats(1.0, 1e4), min_size=1, max_size=6),
        latency=st.floats(0.0, 1.0),
    )
    def test_all_transfers_finish_and_conserve_bytes(self, sizes, latency):
        sim = FluidTransferSimulator(_FairShare(), latency=latency)
        transfers = [Transfer(i, 0, i + 1, s) for i, s in enumerate(sizes)]
        results = sim.run(transfers)
        assert set(results) == {t.transfer_id for t in transfers}
        for transfer in transfers:
            result = results[transfer.transfer_id]
            assert result.duration >= latency - 1e-12
            # a transfer can never beat the full-capacity lower bound
            assert result.duration >= transfer.size / 100.0 + latency - 1e-9

    @common_settings
    @given(sizes=st.lists(st.floats(1.0, 1e4), min_size=2, max_size=6))
    def test_makespan_at_least_total_work_over_capacity(self, sizes):
        sim = FluidTransferSimulator(_FairShare())
        transfers = [Transfer(i, 0, i + 1, s) for i, s in enumerate(sizes)]
        makespan = sim.makespan(transfers)
        assert makespan >= sum(sizes) / 100.0 - 1e-9


class TestPlacementProperties:
    @common_settings
    @given(
        num_nodes=st.integers(1, 10),
        cores=st.integers(1, 4),
        tasks=st.integers(1, 30),
        policy=st.sampled_from(["RRN", "RRP", "random"]),
        seed=st.integers(0, 50),
    )
    def test_placements_are_total_and_within_bounds(self, num_nodes, cores, tasks, policy, seed):
        cluster = custom_cluster(num_nodes=num_nodes, cores_per_node=cores)
        if tasks > num_nodes * cores:
            return  # capacity errors are tested elsewhere
        placement = make_placement(policy, cluster, tasks, seed=seed)
        assert placement.num_tasks == tasks
        assert all(0 <= n < num_nodes for n in placement.node_of_rank)
        counts = placement.tasks_per_node()
        assert sum(counts.values()) == tasks

    @common_settings
    @given(
        num_nodes=st.integers(2, 10),
        cores=st.integers(1, 4),
        tasks=st.integers(2, 30),
    )
    def test_rrp_fills_nodes_contiguously(self, num_nodes, cores, tasks):
        cluster = custom_cluster(num_nodes=num_nodes, cores_per_node=cores)
        if tasks > num_nodes * cores:
            return
        placement = make_placement("RRP", cluster, tasks)
        nodes = placement.node_of_rank
        assert all(nodes[i] <= nodes[i + 1] for i in range(len(nodes) - 1))


class TestSchemeLanguageProperties:
    @common_settings
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
            min_size=1, max_size=12, unique=True,
        ),
        size=st.sampled_from([1 * MB, 4 * MB, 20 * MB]),
    )
    def test_format_parse_round_trip(self, edges, size):
        graph = CommunicationGraph.from_edges(list(edges), size=size, name="prop")
        again = parse_scheme(format_scheme(graph))
        assert again.to_edge_list() == graph.to_edge_list()
        assert again.names == graph.names
