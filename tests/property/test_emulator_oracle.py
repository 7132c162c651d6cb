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
fabric links actually bind, with warm starts on and off and the emulator's
situation memo on and off.

A solve handed a :class:`~repro.network.sharing.FillLog` resumes the
previous one from the first round its reported changes can touch; the
resumed rates must equal a cold solve's bit for bit, after random chains of
changes (flows arriving, departing and re-capped, capacities changing to
zero and back, resources joining and leaving the solve, unchanged items
reported too), and flows with one resource tuple and one cap must share
one rate.
"""

from __future__ import annotations

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import Transfer
from repro.network.sharing import (
    FillLog,
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
    st.tuples(st.just("bounce"), st.integers(0, 30), st.integers(0, 11)),
)
sequence_strategy = st.lists(step_strategy, min_size=1, max_size=30)


def deltas(steps, max_live=10):
    """The deltas of ``steps``: ``add`` a flow from ``x`` to ``y``, ``del``
    the ``x``-th live flow, or ``bounce`` it: it leaves, comes back under
    a new id (the situation before: a memo hit right after a solve), and
    leaves again in the delta that brings an intra-node copy on host
    ``y``, whose memory-bus cap lets the next solve resume late."""
    live = {}
    counter = 0
    out = []

    def arrive(src, dst):
        nonlocal counter
        transfer = live[counter] = Transfer(transfer_id=counter, src=src, dst=dst, size=1000.0)
        counter += 1
        return transfer

    for kind, x, y in steps:
        if kind == "add" and len(live) < max_live:
            out.append(([arrive(x, y)], [], dict(live)))
        elif kind == "del" and live:
            tid = list(live)[x % len(live)]
            del live[tid]
            out.append(([], [tid], dict(live)))
        elif kind == "bounce" and live:
            gone = live.pop(list(live)[x % len(live)])
            out.append(([], [gone.transfer_id], dict(live)))
            back = arrive(gone.src, gone.dst)
            out.append(([back], [], dict(live)))
            del live[back.transfer_id]
            out.append(([arrive(y, y)], [back.transfer_id], dict(live)))
    return out


def make_provider(cls, technology, loaded_fabric, warm_start, cache_size=0):
    topology = None
    if loaded_fabric:
        # 4:1 oversubscription on 12 hosts: the shared uplinks genuinely bind
        topology = FatTreeTopology(
            num_hosts=12, technology=technology,
            hosts_per_edge=4, uplinks_per_edge=1,
        )
    return cls(technology, topology=topology, num_hosts=12, warm_start=warm_start,
               cache_size=cache_size)


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
        rates = {}

        def apply(added, removed):
            changed = provider.update(added, removed)
            for tid in removed:
                del rates[tid]
            rates.update(changed)
            return changed

        for added, removed in steps:
            assert apply(added, removed) == oracle.update(added, removed)
        assert rates[1] == tech.memory_bandwidth
        apply([Transfer(4, 1, 1, 1000.0)], [])
        apply([], [2, 3])
        assert rates == {1: tech.memory_bandwidth / 2, 4: tech.memory_bandwidth / 2}

    @pytest.mark.parametrize("technology", ["ethernet", "myrinet", "infiniband"])
    @pytest.mark.parametrize("loaded_fabric", [False, True],
                             ids=["crossbar", "oversubscribed-fat-tree"])
    @pytest.mark.parametrize("warm_start", [False, True],
                             ids=["cold", "warm-start"])
    @pytest.mark.parametrize("cache_size", [0, 64], ids=["memo-off", "memo-on"])
    @common_settings
    @given(steps=sequence_strategy)
    def test_update_streams_identical(
        self, technology, loaded_fabric, warm_start, cache_size, steps
    ):
        """The oracle never memoizes; the emulator runs with its memo off and on."""
        tech = get_technology(technology)
        provider = make_provider(EmulatorRateProvider, tech, loaded_fabric, warm_start,
                                 cache_size)
        oracle = make_provider(FlowSpecOracleProvider, tech, loaded_fabric, warm_start)
        for added, removed, _live in deltas(steps):
            changed = provider.update(added, removed)
            assert changed == oracle.update(added, removed)
            assert all(type(r) is float for r in changed.values())

    def test_the_oracle_keeps_no_round_log(self):
        """The oracle prices every solve from scratch: it never builds the
        round log the tracked deltas report to, so it keeps no changed
        items between solves."""
        tech = get_technology("ethernet")
        provider = make_provider(EmulatorRateProvider, tech, True, False)
        oracle = make_provider(FlowSpecOracleProvider, tech, True, False)
        steps = [("add", 0, 5), ("add", 1, 5), ("add", 5, 0), ("del", 0, 0), ("add", 4, 9)]
        for added, removed, _live in deltas(steps):
            assert provider.update(added, removed) == oracle.update(added, removed)
        assert provider._fill_log is not None
        assert oracle._fill_log is None


# ---------------- resumed solves: the round log against a cold solve ------
class Incidence:
    """A unit-weight instance kept between solves the way the emulator keeps
    it: caps in arrival order, the incidence both ways, every resource's
    capacity and the set of resources handed to the solve (when occupied).
    Every mutation reports the items it changes to a :class:`FillLog`."""

    def __init__(self, capacities, flows, log):
        self.capacity = {f"r{i}": c for i, c in enumerate(capacities)}
        self.given = set(self.capacity)
        self.caps = {}
        self.flow_resources = {}
        self.resource_flows = {resource: set() for resource in self.capacity}
        self.log = log
        self.added = 0
        for resources, cap in flows:
            self.add(resources, cap)

    def arguments(self):
        capacities = {
            resource: capacity for resource, capacity in self.capacity.items()
            if resource in self.given and self.resource_flows[resource]
        }
        return self.caps, self.flow_resources, self.resource_flows, capacities

    def report(self, flows=(), resources=()):
        self.log.changed_flows.update(dict.fromkeys(flows))
        self.log.changed_resources.update(dict.fromkeys(resources))

    def flow(self, index):
        return list(self.caps)[index % len(self.caps)] if self.caps else None

    def resource(self, index):
        return f"r{index % len(self.capacity)}"

    def add(self, resources, cap):
        flow = f"f{self.added}"
        self.added += 1
        names = tuple(dict.fromkeys(self.resource(r) for r in resources))
        self.caps[flow] = cap
        self.flow_resources[flow] = names
        for resource in names:
            self.resource_flows[resource].add(flow)
        self.report((flow,), names)

    def apply(self, op):
        kind = op[0]
        if kind == "add":
            self.add(op[1], op[2])
            return
        if kind in ("remove", "recap"):
            flow = self.flow(op[1])
            if flow is None:
                return
            if kind == "recap":
                self.caps[flow] = op[2]
                self.report((flow,))
                return
            del self.caps[flow]
            names = self.flow_resources.pop(flow)
            for resource in names:
                self.resource_flows[resource].discard(flow)
            self.report((flow,), names)
            return
        resource = self.resource(op[1])
        if kind == "capacity":
            self.capacity[resource] = op[2]
        else:  # "toggle": the resource joins or leaves the solve
            self.given ^= {resource}
        self.report((), (resource,))


def bits(rates):
    """Rates as exact strings, so -0.0, inf and every last bit count."""
    return {flow: float(rate).hex() for flow, rate in rates.items()}


def op_strategy(capacity, cap):
    return st.one_of(
        st.tuples(st.just("add"), st.lists(st.integers(0, 9), max_size=4, unique=True), cap),
        st.tuples(st.just("remove"), st.integers(0, 63)),
        st.tuples(st.just("recap"), st.integers(0, 63), cap),
        st.tuples(st.just("capacity"), st.integers(0, 9), capacity),
        st.tuples(st.just("toggle"), st.integers(0, 9)),
    )


def resume_instances(capacity, cap):
    """An instance, then batches of changes, each batch followed by one
    solve, with unchanged flows and resources also reported per batch."""
    return st.fixed_dictionaries({
        "capacities": st.lists(capacity, min_size=1, max_size=8),
        "flows": st.lists(
            st.tuples(st.lists(st.integers(0, 9), max_size=4, unique=True), cap),
            min_size=1, max_size=16,
        ),
        "batches": st.lists(
            st.tuples(
                st.lists(op_strategy(capacity, cap), min_size=1, max_size=3),
                st.lists(st.integers(0, 63), max_size=2),
                st.lists(st.integers(0, 9), max_size=2),
            ),
            min_size=1, max_size=8,
        ),
    })


def assert_resumes_like_cold(spec, twins=1):
    """Every solve of a chain of changes, resumed from the log, equals a
    cold solve of the same arguments bit for bit and modifies none of
    them; flows with one resource tuple and one cap share one rate."""
    log = FillLog()
    instance = Incidence(
        spec["capacities"],
        [flow for flow in spec["flows"] for _ in range(twins)],
        log,
    )
    log.clear()
    for position in range(len(spec["batches"]) + 1):
        if position:
            ops, extra_flows, extra_resources = spec["batches"][position - 1]
            for op in ops:
                for _ in range(twins if op[0] == "add" else 1):
                    instance.apply(op)
            instance.report(
                [f for f in map(instance.flow, extra_flows) if f is not None],
                map(instance.resource, extra_resources),
            )
        arguments = instance.arguments()
        snapshot = copy.deepcopy(arguments)
        resumed = water_fill_arrays(*arguments, log)
        assert arguments == snapshot
        cold = water_fill_arrays(*arguments)
        assert bits(resumed) == bits(cold)
        assert 0 <= log.resume_round <= len(log.frozen)
        assert not log.changed_flows and not log.changed_resources
        by_twin = {}
        for flow, rate in resumed.items():
            key = (instance.flow_resources[flow], instance.caps[flow])
            assert by_twin.setdefault(key, float(rate).hex()) == float(rate).hex()


class TestResumedSolves:
    @settings(common_settings, max_examples=150)
    @given(spec=resume_instances(capacity_strategy, cap_strategy))
    def test_resumed_equals_cold(self, spec):
        assert_resumes_like_cold(spec)

    @settings(common_settings, max_examples=150)
    @given(spec=resume_instances(tied_capacity_strategy, tied_cap_strategy))
    def test_resumed_equals_cold_under_ties(self, spec):
        """Zero capacities, resources that saturate together and caps
        that tie with shares."""
        assert_resumes_like_cold(spec)

    @common_settings
    @given(spec=resume_instances(tied_capacity_strategy, tied_cap_strategy),
           twins=st.integers(2, 3))
    def test_same_resources_and_cap_give_one_rate(self, spec, twins):
        """Same-endpoint symmetry: flows with one resource tuple and one cap
        freeze in one round, cold and resumed, because only a
        numerical-safety round freezes one flow of a tie alone."""
        assert_resumes_like_cold(spec, twins=twins)

    def test_a_delta_resumes_after_the_rounds_it_cannot_touch(self):
        """Two disjoint resources saturate in rounds 0 and 1; a flow joining
        the second leaves round 0 to the log."""
        log = FillLog()
        instance = Incidence([10.0, 100.0], [([0], 10.0), ([0], 10.0), ([1], 80.0)], log)
        log.clear()
        water_fill_arrays(*instance.arguments(), log)
        assert len(log.frozen) == 2
        instance.add([1], 80.0)
        resumed = water_fill_arrays(*instance.arguments(), log)
        assert log.resume_round == 1
        assert bits(resumed) == bits(water_fill_arrays(*instance.arguments()))
        assert resumed == {"f0": 5.0, "f1": 5.0, "f2": 50.0, "f3": 50.0}

    def test_no_resume_past_a_numerical_safety_round(self):
        """37,616 unit flows on a resource of capacity 0.999 leave it
        1.017e-12 after round 0, above its tolerance of 1e-12, so nothing
        freezes and the safety freeze takes the first flow in caps order
        alone: it is the one way a tie breaks.  A later change resumes from
        round 0, not from the round the change could touch."""
        many = 37616
        order = list(range(many - 1, -1, -1))  # caps order is not id order
        flows = [FlowSpec(f"t{i}", ("crowded",)) for i in order]
        flows += [FlowSpec("a", ("spare",)), FlowSpec("b", ("spare",))]
        capacities = {"crowded": 0.999, "spare": 1.0}
        caps, flow_resources, resource_flows, given_capacities = solver_input(flows, capacities)
        log = FillLog()
        rates = water_fill_arrays(caps, flow_resources, resource_flows, given_capacities, log)
        assert rates == weighted_max_min_allocation(flows, capacities)
        assert log.safety == 0
        first = f"t{order[0]}"
        assert rates[first] != rates[f"t{order[1]}"]
        assert len({rate for flow, rate in rates.items() if flow.startswith("t")}) == 2
        # the spare resource saturates after round 0; changing it would
        # otherwise resume at round 1
        given_capacities["spare"] = 2.0
        log.changed_resources["spare"] = None
        resumed = water_fill_arrays(caps, flow_resources, resource_flows, given_capacities, log)
        assert log.resume_round == 0
        capacities["spare"] = 2.0
        assert resumed == weighted_max_min_allocation(flows, capacities)
        assert bits(resumed) == bits(
            water_fill_arrays(caps, flow_resources, resource_flows, given_capacities)
        )

    @pytest.mark.parametrize("before, after", [(9000, 9001), (9001, 9000)],
                             ids=["grows-past", "shrinks-from-past"])
    def test_a_changed_resource_beyond_the_tie_bound_resumes_from_round_0(
        self, before, after
    ):
        """Past 9,000 flows a share can set an increment without saturating
        its resource, so the round it saturates in no longer bounds the
        rounds it decided: a delta that leaves or puts more than 9,000
        flows on a resource solves from round 0, though the resource
        saturates in round 1 either way."""
        flows = [FlowSpec(f"t{i}", ("crowded",)) for i in range(before)]
        flows.append(FlowSpec("a", ("other",)))
        capacities = {"crowded": 1e6, "other": 1.0}
        caps, flow_resources, resource_flows, given = solver_input(flows, capacities)
        log = FillLog()
        water_fill_arrays(caps, flow_resources, resource_flows, given, log)
        assert [len(frozen) for frozen in log.frozen] == [1, before]
        if after > before:
            caps["t-new"] = float("inf")
            flow_resources["t-new"] = ("crowded",)
            resource_flows["crowded"].add("t-new")
            log.changed_flows["t-new"] = None
        else:
            del caps["t0"], flow_resources["t0"]
            resource_flows["crowded"].discard("t0")
            log.changed_flows["t0"] = None
        log.changed_resources["crowded"] = None
        resumed = water_fill_arrays(caps, flow_resources, resource_flows, given, log)
        assert log.resume_round == 0
        assert bits(resumed) == bits(
            water_fill_arrays(caps, flow_resources, resource_flows, given)
        )
