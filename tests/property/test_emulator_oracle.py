"""Property tests: the emulator's water-filling is bit-exact with the reference.

:func:`repro.network.sharing.water_fill_arrays` prices unit-weight flows
over an incidence its caller keeps between calls; the dict-walking freeze
loop of :func:`~repro.network.sharing.weighted_max_min_allocation` is the
reference it must equal bit for bit (see the module docstring of
:mod:`repro.network.sharing` for why the float operations match).  These
tests assert that over random unit-weight instances — shared resources,
zero capacities and simultaneous saturations included, and with the
resources :func:`~repro.network.sharing.can_bind` rejects left out of the
solve but handed to the reference — and, one level up,
over random delta sequences through the calibrated
:class:`~repro.network.allocator.EmulatorRateProvider`, against
:class:`FlowSpecOracleProvider`, which prices every solve by rebuilding one
:class:`~repro.network.sharing.FlowSpec` per transfer and running the
reference loop: on a clean crossbar and on an oversubscribed fat tree whose
fabric links actually bind, with warm starts on and off.
"""

from __future__ import annotations

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import Transfer
from repro.network.sharing import (
    FlowSpec,
    can_bind,
    water_fill_arrays,
    weighted_max_min_allocation,
)
from repro.network.technologies import get_technology
from repro.network.topology import FatTreeTopology

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class FlowSpecOracleProvider(EmulatorRateProvider):
    """The emulator priced the slow way: the test oracle of the provider.

    Every solve rebuilds, from the transfers it is handed alone, the per-host
    directional counts, the topology's capacities with the income/outgo
    degradations applied and one :class:`FlowSpec` per transfer, then runs
    the reference loop.  Nothing is kept between solves.
    """

    def _solve_impl(self, active):
        sharing = self.technology.sharing
        counts = {}
        for transfer in active:
            if transfer.is_intra_node:
                continue
            counts.setdefault(transfer.src, {"tx": 0, "rx": 0})["tx"] += 1
            counts.setdefault(transfer.dst, {"tx": 0, "rx": 0})["rx"] += 1
        capacities = self.topology.capacities()
        for host, c in counts.items():
            tx_key, rx_key = self.topology.nic_resources(host)
            if c["rx"] >= sharing.reverse_threshold and c["tx"] >= 1:
                capacities[tx_key] *= 1.0 - sharing.tx_capacity_loss
                capacities[rx_key] *= 1.0 - sharing.rx_capacity_loss
        specs = []
        for transfer in active:
            if transfer.is_intra_node:
                specs.append(FlowSpec(
                    transfer.transfer_id,
                    (self.topology.memory_resource(transfer.src),),
                    cap=self.technology.memory_bandwidth,
                ))
                continue
            cap = self.technology.single_stream_bandwidth
            if counts.get(transfer.dst, {}).get("tx", 0) >= 1:
                cap *= 1.0 - sharing.duplex_flow_slowdown
            tx_key, _ = self.topology.nic_resources(transfer.src)
            _, rx_key = self.topology.nic_resources(transfer.dst)
            resources = (tx_key, rx_key) + tuple(
                self.topology.fabric_route(transfer.src, transfer.dst)
            )
            specs.append(FlowSpec(transfer.transfer_id, resources, cap=cap))
        return weighted_max_min_allocation(specs, capacities)


def solver_input(flows, capacities):
    """The emulator solver's arguments for unit-weight FlowSpecs (no flow
    lists a resource twice)."""
    resource_flows = {}
    for flow in flows:
        for resource in flow.resources:
            resource_flows.setdefault(resource, set()).add(flow.flow_id)
    return (
        {flow.flow_id: flow.cap for flow in flows},
        {flow.flow_id: flow.resources for flow in flows},
        resource_flows,
        {resource: capacities[resource] for resource in resource_flows},
    )


def assert_solver_matches_reference(flows, capacities):
    rates = water_fill_arrays(*solver_input(flows, capacities))
    assert rates == weighted_max_min_allocation(flows, capacities)
    assert all(type(r) is float for r in rates.values())


capacity_strategy = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e9, allow_nan=False),
)
cap_strategy = st.one_of(
    st.just(float("inf")),
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
)
#: few distinct values, so constraints tie and saturate in the same round
tied_capacity_strategy = st.sampled_from([0.0, 10.0, 30.0, 60.0, 90.0])
tied_cap_strategy = st.sampled_from([float("inf"), 5.0, 10.0, 15.0])


def instances(capacity, cap):
    return st.fixed_dictionaries({
        "capacities": st.lists(capacity, min_size=0, max_size=10),
        "flows": st.lists(
            st.tuples(st.lists(st.integers(0, 9), max_size=4, unique=True), cap),
            min_size=1, max_size=24,
        ),
    })


def build_instance(spec):
    """Unit-weight FlowSpecs over ``r0..r(k-1)``; a flow's ids map onto the
    resources modulo ``k``, duplicates folded so no flow repeats one."""
    capacities = {f"r{i}": c for i, c in enumerate(spec["capacities"])}
    flows = []
    for index, (resources, cap) in enumerate(spec["flows"]):
        names = tuple(dict.fromkeys(
            f"r{r % len(capacities)}" for r in resources
        )) if capacities else ()
        flows.append(FlowSpec(f"f{index}", names, cap=cap))
    return flows, capacities


#: capacity of an added resource over (its flows) x (their largest cap):
#: binding, the boundary (kept), just inside and just outside the slack
#: margin, and far outside it
slack_factor_strategy = st.one_of(
    st.sampled_from([0.5, 0.9, 1.0, 1.0 + 2.0 ** -21, 1.0 + 2.0 ** -19, 1.5, 4.0]),
    st.floats(min_value=0.25, max_value=100.0, allow_nan=False),
)
slack_instances = st.fixed_dictionaries({
    "capacities": st.lists(st.one_of(tied_capacity_strategy, capacity_strategy),
                           max_size=6),
    "flows": st.lists(
        st.tuples(st.lists(st.integers(0, 5), max_size=3, unique=True),
                  st.one_of(tied_cap_strategy.filter(lambda c: c < float("inf")),
                            st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))),
        min_size=1, max_size=16,
    ),
    "slack": st.lists(
        st.tuples(st.lists(st.integers(0, 15), min_size=1, max_size=6, unique=True),
                  slack_factor_strategy),
        min_size=1, max_size=4,
    ),
})


def build_slack_instance(spec):
    """``build_instance`` with finite caps plus resources ``s0..`` sized at a
    factor of (their flow count) x (their flows' largest cap)."""
    flows, capacities = build_instance(spec)
    resources = {flow.flow_id: list(flow.resources) for flow in flows}
    for index, (members, factor) in enumerate(spec["slack"]):
        chosen = [flows[i] for i in sorted({m % len(flows) for m in members})]
        ceiling = max(flow.cap for flow in chosen)
        capacities[f"s{index}"] = len(chosen) * ceiling * factor
        for flow in chosen:
            resources[flow.flow_id].append(f"s{index}")
    flows = [FlowSpec(flow.flow_id, tuple(resources[flow.flow_id]), cap=flow.cap)
             for flow in flows]
    return flows, capacities


def assert_binding_resources_suffice(flows, capacities):
    """Given only the resources ``can_bind`` keeps (judged with each
    resource's flow count and its flows' largest cap), the solver rates
    every flow as the reference does given all of them.  Returns the kept
    resources."""
    caps, flow_resources, resource_flows, occupied = solver_input(flows, capacities)
    binding = {
        resource: capacity for resource, capacity in occupied.items()
        if can_bind(capacity, len(resource_flows[resource]),
                    max(caps[f] for f in resource_flows[resource]))
    }
    rates = water_fill_arrays(caps, flow_resources, resource_flows, binding)
    assert rates == weighted_max_min_allocation(flows, capacities)
    return binding


class TestWaterFillingBitExact:
    @common_settings
    @given(spec=instances(capacity_strategy, cap_strategy))
    def test_solver_matches_reference(self, spec):
        assert_solver_matches_reference(*build_instance(spec))

    @common_settings
    @given(spec=instances(tied_capacity_strategy, tied_cap_strategy))
    def test_solver_matches_reference_under_ties(self, spec):
        assert_solver_matches_reference(*build_instance(spec))

    @settings(common_settings, max_examples=200)
    @given(spec=slack_instances)
    def test_resources_that_cannot_bind_are_left_out_exactly(self, spec):
        assert_binding_resources_suffice(*build_slack_instance(spec))

    def test_slack_resource_left_out_and_boundary_kept(self):
        """A resource at 4 x (flows) x (largest cap) goes, one at exactly
        (flows) x (largest cap) stays, and the rates still match."""
        binding = assert_binding_resources_suffice(*build_slack_instance({
            "capacities": [10.0], "flows": [([0], 5.0), ([0], 10.0)],
            "slack": [([0, 1], 4.0), ([0, 1], 1.0)],
        }))
        assert binding == {"r0": 10.0, "s1": 20.0}

    @common_settings
    @given(spec=instances(capacity_strategy, cap_strategy))
    def test_solver_leaves_its_inputs_untouched(self, spec):
        arguments = solver_input(*build_instance(spec))
        snapshot = copy.deepcopy(arguments)
        water_fill_arrays(*arguments)
        assert arguments == snapshot


# --------- emulator level: the provider against the FlowSpec oracle -------
step_strategy = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 11), st.integers(0, 11)),
    st.tuples(st.just("del"), st.integers(0, 30), st.integers(0, 0)),
)
sequence_strategy = st.lists(step_strategy, min_size=1, max_size=30)


def deltas(steps, max_live=10):
    live = {}
    counter = 0
    out = []
    for kind, x, y in steps:
        if kind == "add" and len(live) < max_live:
            transfer = Transfer(transfer_id=counter, src=x, dst=y, size=1000.0)
            live[counter] = transfer
            counter += 1
            out.append(([transfer], [], dict(live)))
        elif kind == "del" and live:
            tid = list(live)[x % len(live)]
            del live[tid]
            out.append(([], [tid], dict(live)))
    return out


def make_provider(cls, technology, loaded_fabric, warm_start):
    topology = None
    if loaded_fabric:
        # 4:1 oversubscription on 12 hosts: the shared uplinks genuinely bind
        topology = FatTreeTopology(
            num_hosts=12, technology=technology,
            hosts_per_edge=4, uplinks_per_edge=1,
        )
    return cls(technology, topology=topology, num_hosts=12, warm_start=warm_start)


class TestEmulatorMatchesOracle:
    @pytest.mark.parametrize("technology", ["ethernet", "myrinet", "infiniband"])
    def test_intra_node_copies_share_the_memory_bus(self, technology):
        """Copies on one host split its memory bus (a memory slot's cap
        ceiling is the memory bandwidth, not the single-stream bandwidth,
        so the bus is never taken for slack)."""
        tech = get_technology(technology)
        provider = EmulatorRateProvider(tech, num_hosts=4, warm_start=False)
        oracle = FlowSpecOracleProvider(tech, num_hosts=4, warm_start=False)
        steps = [
            ([Transfer(0, 1, 1, 1000.0)], []),
            ([Transfer(1, 1, 1, 1000.0)], []),
            ([Transfer(2, 1, 2, 1000.0), Transfer(3, 2, 2, 1000.0)], []),
            ([], [0]),
        ]
        for added, removed in steps:
            assert provider.update(added, removed) == oracle.update(added, removed)
        assert provider.rates([Transfer(1, 1, 1, 1000.0), Transfer(2, 1, 2, 1000.0),
                               Transfer(3, 2, 2, 1000.0)])[1] == tech.memory_bandwidth
        provider.update([Transfer(4, 1, 1, 1000.0)], [])
        rates = provider.rates([Transfer(1, 1, 1, 1000.0), Transfer(4, 1, 1, 1000.0)])
        assert rates == {1: tech.memory_bandwidth / 2, 4: tech.memory_bandwidth / 2}

    @pytest.mark.parametrize("technology", ["ethernet", "myrinet", "infiniband"])
    @pytest.mark.parametrize("loaded_fabric", [False, True],
                             ids=["crossbar", "oversubscribed-fat-tree"])
    @pytest.mark.parametrize("warm_start", [False, True],
                             ids=["cold", "warm-start"])
    @common_settings
    @given(steps=sequence_strategy)
    def test_update_streams_identical(
        self, technology, loaded_fabric, warm_start, steps
    ):
        tech = get_technology(technology)
        provider = make_provider(EmulatorRateProvider, tech, loaded_fabric, warm_start)
        oracle = make_provider(FlowSpecOracleProvider, tech, loaded_fabric, warm_start)
        for added, removed, _live in deltas(steps):
            changed = provider.update(added, removed)
            assert changed == oracle.update(added, removed)
            assert all(type(r) is float for r in changed.values())
