"""Bandwidth sharing solvers.

The cluster emulator allocates an instantaneous rate to every in-flight flow
by **progressive filling** (max-min fairness) over a set of capacity
constraints: each flow consumes capacity on a set of *resources* (source NIC
TX port, destination NIC RX port, intermediate links, the memory bus for
intra-node copies) and may additionally be limited by a per-flow cap (the
single-stream efficiency of the protocol).

The solver is deliberately generic — resources are opaque hashable
identifiers — so the same code serves the per-technology allocators of
:mod:`repro.network.ethernet` / ``myrinet`` / ``infiniband`` and the
fat-tree link sharing of :mod:`repro.network.topology`.

The reference implementation, :func:`weighted_max_min_allocation`, is the
textbook water-filling loop over Python dicts:

1. every unfrozen flow grows at the same rate (scaled by its weight);
2. the first constraint to saturate (a resource whose remaining capacity
   divided by its weight pressure is minimal, or a per-flow cap) freezes
   the flows it limits;
3. repeat until every flow is frozen.

Each round recomputes every resource's pressure from the unfrozen flows
and charges every (flow, resource) entry.

The emulator prices its flows through :func:`water_fill_arrays`, which runs
the same rounds for **unit weights** over an incidence that
:class:`~repro.network.allocator.EmulatorRateProvider` keeps between calls.
With every weight 1, every unfrozen flow sits at one common *level*: its
rate is the running sum of the round increments, computed by the same
additions for all of them.  Three consequences make a round cheap:

* the cap headroom is ``min(unfrozen caps) - level`` — subtracting one
  value preserves order under round-to-nearest, so this is the minimum of
  the per-flow headrooms the reference computes;
* a resource's pressure is the number of unfrozen flows on it, kept as a
  count that a freezing flow decrements, so a round visits only the
  occupied resources;
* charging a resource repeats ``remaining -= increment`` once per unfrozen
  flow on it — the very subtractions the reference performs, whose order
  cannot matter because every operand is equal.

Every quotient, threshold and comparison therefore sees the reference's
operands, and the rates are **bit-identical** to
:func:`weighted_max_min_allocation` on any unit-weight instance, which
``tests/property/test_emulator_oracle.py`` and
``tests/network/test_sharing_degenerate.py`` assert.

Most of a loaded fabric's resources can never bind, and the caller may
leave those out of ``capacities`` (:func:`can_bind` is the test).  Let a
resource have capacity C, n flows and a largest possible cap K among
them, and let it be left out only if C - n·K > δ·max(1, C) with
δ = 2⁻²⁰.  While one of its flows is unfrozen the common level L is at
most K, and no flow on it runs faster than L, so its exact remaining
capacity is at least C - n·L ≥ (C - n·K) + (K - L).  That is far above
the saturation tolerance ε·max(1, C), as ε = 1e-12 ≪ δ, and above the cap
headroom of each of its flows, the other term of the numerical-safety
key.  With m ≤ n of its flows unfrozen its share is at least
(C - n·L) / m ≥ (K - L) + (C - n·K) / m, above the round's increment,
which is at most the smallest cap headroom.  N float subtractions move
its remaining capacity by at most N·2⁻⁵³·C, which stays ≪ δ·max(1, C)
for N < 2³⁰.  So it never sets the increment, never saturates and never
decides the safety freeze: no quotient, threshold or comparison that
decides the rates changes when it is left out, and the rates stay
bit-identical to the reference given every resource.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import truediv
from typing import Collection, Dict, Hashable, List, Mapping, Sequence, Tuple

from ..exceptions import SimulationError

__all__ = [
    "FlowSpec",
    "can_bind",
    "max_min_allocation",
    "weighted_max_min_allocation",
    "water_fill_arrays",
]

ResourceId = Hashable

#: saturation tolerance of the freeze rounds (both solvers)
_EPS = 1e-12
_INF = float("inf")
#: relative margin by which a resource's capacity must exceed what its
#: flows can ever take before :func:`can_bind` lets a caller leave it out
_SLACK = 2.0 ** -20


@dataclass(frozen=True)
class FlowSpec:
    """One flow handed to the sharing solver.

    ``resources`` is the collection of capacity constraints the flow consumes
    (its rate counts against each of them); ``cap`` is an optional individual
    rate ceiling; ``weight`` scales the flow's share in the weighted variant.
    """

    flow_id: Hashable
    resources: Tuple[ResourceId, ...]
    cap: float = float("inf")
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.cap <= 0:
            raise SimulationError(f"flow {self.flow_id!r} has non-positive cap {self.cap}")
        if self.weight <= 0:
            raise SimulationError(f"flow {self.flow_id!r} has non-positive weight {self.weight}")


def max_min_allocation(
    flows: Sequence[FlowSpec],
    capacities: Mapping[ResourceId, float],
) -> Dict[Hashable, float]:
    """Max-min fair rates for ``flows`` under ``capacities``.

    Flows that reference a resource missing from ``capacities`` raise
    :class:`SimulationError` (it is always a programming error in the
    emulator).  Flows with no resources are only limited by their cap.

    >>> flows = [FlowSpec("a", ("tx0",)), FlowSpec("b", ("tx0",))]
    >>> rates = max_min_allocation(flows, {"tx0": 100.0})
    >>> rates["a"] == rates["b"] == 50.0
    True
    """
    return weighted_max_min_allocation(flows, capacities)


def weighted_max_min_allocation(
    flows: Sequence[FlowSpec],
    capacities: Mapping[ResourceId, float],
) -> Dict[Hashable, float]:
    """Weighted max-min fair allocation (weights scale each flow's share).

    The reference water-filling loop (see the module docstring).
    """
    if not flows:
        return {}

    seen_ids = set()
    for flow in flows:
        if flow.flow_id in seen_ids:
            raise SimulationError(f"duplicate flow id {flow.flow_id!r}")
        seen_ids.add(flow.flow_id)
        for resource in flow.resources:
            if resource not in capacities:
                raise SimulationError(
                    f"flow {flow.flow_id!r} uses unknown resource {resource!r}"
                )
    for resource, capacity in capacities.items():
        if capacity < 0:
            raise SimulationError(f"resource {resource!r} has negative capacity {capacity}")

    return _allocate_reference(flows, capacities)


# ---------------------------------------------------------- emulator solver
def can_bind(capacity: float, flows: int, ceiling: float) -> bool:
    """Whether a resource may still bind :func:`water_fill_arrays`.

    ``False`` only when ``flows`` flows, none of which can have a cap above
    ``ceiling``, leave more than ``2**-20 * max(1, capacity)`` of
    ``capacity`` unused at their caps: the solver then rates them
    bit-identically without the resource (see the module docstring).
    Infinite or NaN operands keep the resource.

    >>> can_bind(100.0, 2, 50.0), can_bind(101.0, 2, 50.0)
    (True, False)
    """
    return not capacity - flows * ceiling > _SLACK * max(1.0, capacity)


def water_fill_arrays(
    caps: Mapping[Hashable, float],
    flow_resources: Mapping[Hashable, Sequence[ResourceId]],
    resource_flows: Mapping[ResourceId, Collection[Hashable]],
    capacities: Mapping[ResourceId, float],
) -> Dict[Hashable, float]:
    """Unit-weight water-filling over a flow–resource incidence kept by the caller.

    ``caps`` maps every flow to its rate ceiling (``inf`` for none), in the
    order that breaks ties in the numerical-safety freeze;
    ``flow_resources`` lists each flow's resources (no repeats) and
    ``resource_flows`` the flows on each resource; ``capacities`` holds the
    capacity of the resources the solve must respect.  A resource the flows
    use but ``capacities`` omits is ignored, which is exact when
    :func:`can_bind` says it cannot bind.  The incidence must be closed on
    the given resources: every flow that ``resource_flows`` lists on one of
    them is a flow of ``caps``.  No argument is modified, so the caller
    keeps its incidence between calls.

    Returns ``{flow: rate}``, bit-identical to
    :func:`weighted_max_min_allocation` with unit weights over every
    resource the flows use (see the module docstring for why).
    """
    active = dict(caps)
    # the reference's thresholds: cap - eps * max(1, cap) per flow (1 for an
    # infinite cap) and eps * max(1, capacity) per resource.  The flow
    # threshold never decreases as the cap grows, so walking the flows in
    # cap order meets the smallest unfrozen cap and every cap that binds.
    freeze_at = {
        flow: cap - (_EPS * cap if 1.0 < cap < _INF else _EPS)
        for flow, cap in active.items()
    }
    by_cap = sorted(active, key=active.__getitem__)
    first = 0  # every flow before by_cap[first] is frozen
    # the occupied resources: remaining capacity and unfrozen-flow count,
    # two dicts with one key order (a resource leaves both when it empties)
    remaining = dict(capacities)
    pressure = {resource: len(resource_flows[resource]) for resource in remaining}
    saturation = {resource: _EPS * c if c > 1.0 else _EPS for resource, c in remaining.items()}
    rates: Dict[Hashable, float] = {}
    level = 0.0
    while active:
        # how far the common level can rise before a resource or a cap binds
        while by_cap[first] not in active:
            first += 1
        increment = active[by_cap[first]] - level
        if pressure:
            share = min(map(truediv, remaining.values(), pressure.values()))
            if share < increment:
                increment = share
        if increment < 0.0:
            increment = 0.0
        level += increment

        # charge every occupied resource once per unfrozen flow on it
        saturated = []
        for resource, count in pressure.items():
            left = remaining[resource] - increment
            while count > 1:
                left -= increment
                count -= 1
            remaining[resource] = left
            if left <= saturation[resource]:
                saturated.append(resource)

        # freeze the flows at their cap or on a saturated resource
        frozen: Dict[Hashable, None] = {}
        while first < len(by_cap) and level >= freeze_at[by_cap[first]]:
            if by_cap[first] in active:
                frozen[by_cap[first]] = None
            first += 1
        for resource in saturated:
            for flow in resource_flows[resource]:
                if flow in active:
                    frozen[flow] = None
        if not frozen:
            # numerical safety: freeze the tightest flow to guarantee progress
            tightest = min(active, key=lambda f: min(
                [remaining[r] for r in flow_resources[f] if r in remaining]
                + [active[f] - level]
            ))
            frozen[tightest] = None
        for flow in frozen:
            del active[flow]
            rates[flow] = level
            for resource in flow_resources[flow]:
                count = pressure.get(resource, 0) - 1  # -1: not given
                if count > 0:
                    pressure[resource] = count
                elif count == 0:
                    del pressure[resource]
                    del remaining[resource]
    return rates


# ---------------------------------------------------------- reference loop
def _allocate_reference(
    flows: Sequence[FlowSpec],
    capacities: Mapping[ResourceId, float],
) -> Dict[Hashable, float]:
    """The dict-walking freeze loop that :func:`water_fill_arrays` must equal."""
    rates: Dict[Hashable, float] = {flow.flow_id: 0.0 for flow in flows}
    remaining: Dict[ResourceId, float] = dict(capacities)
    active: Dict[Hashable, FlowSpec] = {flow.flow_id: flow for flow in flows}
    # current normalised fill level: every active flow has rate = level * weight
    level = 0.0

    max_iterations = len(flows) + len(capacities) + 1
    for _ in range(max_iterations):
        if not active:
            break

        # weight pressure on every resource from the still-active flows
        pressure: Dict[ResourceId, float] = {}
        for flow in active.values():
            for resource in flow.resources:
                pressure[resource] = pressure.get(resource, 0.0) + flow.weight

        # how much further the common level can rise before a constraint binds
        candidates: List[Tuple[float, str, Hashable]] = []
        for resource, weight_sum in pressure.items():
            if weight_sum <= 0:
                continue
            candidates.append((remaining[resource] / weight_sum, "resource", resource))
        for flow in active.values():
            headroom = (flow.cap - rates[flow.flow_id]) / flow.weight
            candidates.append((headroom, "cap", flow.flow_id))

        if not candidates:
            # every remaining flow has no resources and an infinite cap
            for flow_id in list(active):
                rates[flow_id] = float("inf")
            break

        increment = min(c[0] for c in candidates)
        increment = max(increment, 0.0)

        # raise every active flow by increment * weight and charge resources
        for flow in active.values():
            delta = increment * flow.weight
            rates[flow.flow_id] += delta
            for resource in flow.resources:
                remaining[resource] -= delta
        level += increment

        # freeze flows limited by a saturated constraint
        eps = _EPS
        saturated_resources = {
            resource for resource, weight_sum in pressure.items()
            if remaining[resource] <= eps * max(1.0, capacities[resource])
        }
        to_freeze = []
        for flow_id, flow in active.items():
            cap_hit = rates[flow_id] >= flow.cap - eps * max(1.0, flow.cap if flow.cap != float("inf") else 1.0)
            resource_hit = any(r in saturated_resources for r in flow.resources)
            if cap_hit or resource_hit:
                to_freeze.append(flow_id)
        if not to_freeze:
            # numerical safety: freeze the tightest flow to guarantee progress
            tightest = min(
                active.values(),
                key=lambda f: min(
                    [remaining[r] for r in f.resources] + [f.cap - rates[f.flow_id]]
                ),
            )
            to_freeze.append(tightest.flow_id)
        for flow_id in to_freeze:
            active.pop(flow_id, None)
    else:  # pragma: no cover - the loop always terminates within the bound
        raise SimulationError("max-min allocation did not converge")

    # clamp tiny negative numerical noise
    return {flow_id: max(0.0, rate) for flow_id, rate in rates.items()}
