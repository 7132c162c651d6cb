"""Degenerate-input tests for the emulator's water-filling.

:func:`~repro.network.sharing.water_fill_arrays` must agree bit for bit
with the reference loop of :func:`weighted_max_min_allocation` on the edge
cases a common-level formulation is most likely to get wrong: empty inputs,
single flows, all-infinite caps (an unbounded allocation), one resource
shared by every flow, zero capacities and several constraints saturating
in the same round.  Inputs outside the solver's contract (weights other
than 1, a flow listing one resource twice) pin the reference alone.
"""

from __future__ import annotations

import math

import pytest

from repro.network.sharing import (
    FlowSpec,
    max_min_allocation,
    water_fill_arrays,
    weighted_max_min_allocation,
)


def both_solvers(flows, capacities):
    resource_flows = {}
    for flow in flows:
        for resource in flow.resources:
            resource_flows.setdefault(resource, set()).add(flow.flow_id)
    rates = water_fill_arrays(
        {flow.flow_id: flow.cap for flow in flows},
        {flow.flow_id: flow.resources for flow in flows},
        resource_flows,
        {resource: capacities[resource] for resource in resource_flows},
    )
    assert rates == weighted_max_min_allocation(flows, capacities)
    assert all(type(r) is float for r in rates.values())
    return rates


class TestDegenerateInputs:
    def test_zero_flows(self):
        assert water_fill_arrays({}, {}, {}, {}) == {}
        assert weighted_max_min_allocation([], {"r": 100.0}) == {}

    def test_single_capped_flow(self):
        flows = [FlowSpec("only", ("link",), cap=30.0)]
        rates = both_solvers(flows, {"link": 100.0})
        assert rates == {"only": 30.0}

    def test_single_flow_resource_bound(self):
        flows = [FlowSpec("only", ("link",), cap=500.0)]
        rates = both_solvers(flows, {"link": 100.0})
        assert rates == {"only": 100.0}

    def test_all_infinite_caps_no_resources(self):
        """Flows with no constraints at all grow without bound."""
        flows = [FlowSpec(f"f{i}", ()) for i in range(5)]
        rates = both_solvers(flows, {})
        assert all(math.isinf(r) for r in rates.values())

    def test_all_infinite_caps_resource_bound(self):
        """Infinite per-flow caps: only the shared capacity binds."""
        flows = [FlowSpec(f"f{i}", ("link",)) for i in range(4)]
        rates = both_solvers(flows, {"link": 100.0})
        assert rates == {f"f{i}": pytest.approx(25.0) for i in range(4)}

    def test_mixed_unbounded_and_resource_bound_flows(self):
        flows = [
            FlowSpec("free", ()),
            FlowSpec("bound", ("link",)),
        ]
        rates = both_solvers(flows, {"link": 80.0})
        assert rates["bound"] == pytest.approx(80.0)
        assert math.isinf(rates["free"])

    def test_resource_shared_by_every_flow(self):
        flows = [
            FlowSpec(f"f{i}", ("shared", f"own{i}"), cap=1000.0)
            for i in range(16)
        ]
        capacities = {"shared": 160.0}
        capacities.update({f"own{i}": 1e6 for i in range(16)})
        rates = both_solvers(flows, capacities)
        assert all(r == pytest.approx(10.0) for r in rates.values())

    def test_zero_capacity_resource_freezes_its_flows(self):
        flows = [FlowSpec("dead", ("off",)), FlowSpec("live", ("on",))]
        rates = both_solvers(flows, {"off": 0.0, "on": 50.0})
        assert rates == {"dead": 0.0, "live": 50.0}

    def test_zero_capacity_shared_with_a_live_resource(self):
        """A flow on a dead and a live resource freezes at 0 and releases
        its share of the live one to the others."""
        flows = [FlowSpec("both", ("off", "on")), FlowSpec("live", ("on",))]
        rates = both_solvers(flows, {"off": 0.0, "on": 50.0})
        assert rates == {"both": 0.0, "live": 50.0}

    def test_simultaneous_saturations_freeze_in_one_round(self):
        """Two resources and a cap all bind at the same level."""
        flows = [
            FlowSpec("a", ("r1",)), FlowSpec("b", ("r1",)),
            FlowSpec("c", ("r2",)), FlowSpec("d", ("r2",), cap=30.0),
            FlowSpec("e", ("r1", "r3")),
        ]
        rates = both_solvers(flows, {"r1": 90.0, "r2": 60.0, "r3": 1000.0})
        assert rates == {name: 30.0 for name in "abcde"}

    def test_cap_and_resource_tie(self):
        flows = [FlowSpec(f"f{i}", ("link",), cap=25.0) for i in range(4)]
        rates = both_solvers(flows, {"link": 100.0})
        assert rates == {f"f{i}": 25.0 for i in range(4)}

    def test_levels_that_do_not_round_evenly(self):
        """Thirds and sevenths: the charge is three and seven subtractions,
        not one multiplication."""
        flows = [FlowSpec(f"t{i}", ("thirds",)) for i in range(3)]
        flows += [FlowSpec(f"s{i}", ("sevenths", "thirds" if i == 0 else "own"))
                  for i in range(7)]
        capacities = {"thirds": 1.0, "sevenths": 0.1, "own": 1e9}
        both_solvers(flows, capacities)

    def test_weights_spanning_six_orders_of_magnitude(self):
        weights = [1e-3, 1e-1, 1.0, 1e1, 1e2, 1e3]
        flows = [
            FlowSpec(f"f{i}", ("link",), weight=w) for i, w in enumerate(weights)
        ]
        rates = weighted_max_min_allocation(flows, {"link": 1000.0})
        # weighted max-min with one shared bottleneck: rate proportional to weight
        total = sum(weights)
        for i, w in enumerate(weights):
            assert rates[f"f{i}"] == pytest.approx(1000.0 * w / total)

    def test_duplicate_resource_in_one_flow_charges_twice(self):
        flows = [FlowSpec("loop", ("link", "link"))]
        rates = weighted_max_min_allocation(flows, {"link": 100.0})
        assert rates == {"loop": pytest.approx(50.0)}

    def test_unweighted_wrapper_matches_weighted(self):
        flows = [FlowSpec("a", ("r",)), FlowSpec("b", ("r",))]
        rates = max_min_allocation(flows, {"r": 10.0})
        assert rates == weighted_max_min_allocation(flows, {"r": 10.0})
        assert rates == {"a": pytest.approx(5.0), "b": pytest.approx(5.0)}
