"""Bandwidth sharing solvers.

The cluster emulator allocates an instantaneous rate to every in-flight flow
by **progressive filling** (max-min fairness) over a set of capacity
constraints: each flow consumes capacity on a set of *resources* (source NIC
TX port, destination NIC RX port, intermediate links, the memory bus for
intra-node copies) and may additionally be limited by a per-flow cap (the
single-stream efficiency of the protocol).

The solver is deliberately generic — resources are opaque hashable
identifiers — so the same code serves the NIC, memory-bus and switch
resources of every technology (:mod:`repro.network.allocator`) and the
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

Consecutive solves of one caller differ in a few *changed items*: the
flows that arrived, departed or changed cap, and the resources whose
capacity, flow set or presence in ``capacities`` changed.  Handed a
:class:`FillLog`, :func:`water_fill_arrays` logs every round (the level
and each occupied resource's remaining capacity and unfrozen count at the
round's start, the increment, the flows frozen and the resources
saturated in it), and the next solve resumes at the first round k that a
changed item can touch.  A round is decided by the minimum of the cap
headrooms and the resources' shares, by the thresholds the level and
each remaining capacity are tested against, and, when nothing freezes,
by the numerical-safety freeze.  Rounds 0..k−1 of the new instance see
exactly the old operands when

* no changed flow froze in them before: a flow whose cap headroom set an
  increment froze in that round (the level then reaches its cap), so a
  departed or re-capped flow took part in no minimum before its freeze;
* no new or re-capped flow's threshold is met by a level they log, which
  also keeps its headroom above each of their increments;
* no changed resource saturated in them before, and none would now: its
  remaining capacity, replayed from its new capacity with the same
  sequential subtractions of the logged increments and its new unfrozen
  counts, never falls to its saturation threshold (which a share below
  a round's increment also makes it do in that round);
* none of them was a numerical-safety round, whose tie-break walks every
  unfrozen flow.

The third rule takes an old resource's saturation round for the first
round it decided, which holds because a resource whose share set an
increment saturates in that round: with c unfrozen flows, c subtractions
of ``remaining / c`` leave at most (c + 1)·2⁻⁵³·remaining, below the
tolerance ε·max(1, C) for c ≤ 9000.  A changed resource with more flows
makes the solve start from round 0.  Under these rules the changed flows
stay unfrozen through round k−1 in both instances, so every unchanged
resource keeps its counts, its subtractions and its saturation round,
every unchanged flow freezes in the same round at the same level, and a
changed resource's count moves only by its arrivals and departures.  The
solve writes the changed resources' replayed values into the logged
state of rounds 0..k and runs the ordinary loop from round k, walking
the unfrozen flows in cap order and the safety tie-break in ``caps``
order like a cold solve: the rates are the bits a cold solve computes.
The thresholds, the cap order and each flow's resources in
``capacities`` are kept between solves and updated for the changed
items, so a resumed solve costs the delta plus the rounds from k.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import truediv
from typing import Collection, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import SimulationError

__all__ = [
    "FillLog",
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
#: a changed resource with more unfrozen flows than this could set a round's
#: increment without saturating in it, so a delta touching one re-solves
#: from round 0 (see the module docstring)
_TIE_FLOWS = 9000


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


class FillLog:
    """The rounds of the last solve :func:`water_fill_arrays` logged, kept so
    the next solve can resume from the first round a delta can touch.

    The caller reports every flow and resource that changed since that
    solve in :attr:`changed_flows` and :attr:`changed_resources` (dicts
    used as ordered sets): a flow that arrived, departed or changed cap,
    and a resource whose capacity, flow set or presence in ``capacities``
    changed.  Reporting an unchanged item costs only speed; leaving a
    changed one out gives wrong rates.  The solve clears both.

    Per round the log keeps the level, the remaining capacities and the
    unfrozen-flow counts at the round's start, the increment, the flows
    frozen in it (with their rates) and the resources that saturated in
    it.  Between solves it keeps what only a delta changes: the flows in
    cap order, each flow's freeze threshold and resources in
    ``capacities``, and each resource's saturation threshold.
    :attr:`resume_round` is the round the last solve resumed from (0 for
    a cold one) and ``len(frozen)`` the number of rounds it ended with.

    Every flow in ``frozen[:resume_round]`` froze in the same round of the
    solve before, at the same level: it kept its previous rate bit for
    bit.  So the flows whose rate the last solve can have changed are
    those of ``frozen[resume_round:]``, which hold every flow that arrived
    since.
    """

    __slots__ = ("changed_flows", "changed_resources", "by_cap", "freeze_at",
                 "binding", "saturation", "levels", "remaining", "pressure",
                 "increments", "frozen", "saturated", "safety", "resume_round")

    def __init__(self) -> None:
        self.changed_flows: Dict[Hashable, None] = {}
        self.changed_resources: Dict[ResourceId, None] = {}
        self.clear()

    def clear(self) -> None:
        """Forget the logged solve, so the next one starts from round 0."""
        self.changed_flows.clear()
        self.changed_resources.clear()
        self.by_cap: List[Hashable] = []
        self.freeze_at: Dict[Hashable, float] = {}
        self.binding: Dict[Hashable, Tuple[ResourceId, ...]] = {}
        self.saturation: Dict[ResourceId, float] = {}
        #: per round, and one more entry for the state after the last round
        self.levels: List[float] = []
        self.remaining: List[Dict[ResourceId, float]] = []
        self.pressure: List[Dict[ResourceId, int]] = []
        #: per round
        self.increments: List[float] = []
        self.frozen: List[Dict[Hashable, float]] = []
        self.saturated: List[List[ResourceId]] = []
        #: the first numerical-safety round, None while there is none
        self.safety: Optional[int] = None
        self.resume_round = 0


def _freeze_threshold(cap: float) -> float:
    """The reference's cap test: cap - eps * max(1, cap), eps for an infinite cap."""
    return cap - (_EPS * cap if 1.0 < cap < _INF else _EPS)


def _saturation_threshold(capacity: float) -> float:
    """The reference's saturation test: eps * max(1, capacity)."""
    return _EPS * capacity if capacity > 1.0 else _EPS


def water_fill_arrays(
    caps: Mapping[Hashable, float],
    flow_resources: Mapping[Hashable, Sequence[ResourceId]],
    resource_flows: Mapping[ResourceId, Collection[Hashable]],
    capacities: Mapping[ResourceId, float],
    log: Optional[FillLog] = None,
) -> Dict[Hashable, float]:
    """Unit-weight water-filling over a flow–resource incidence kept by the caller.

    ``caps`` maps every flow to its rate ceiling (``inf`` for none), in the
    order that breaks ties in the numerical-safety freeze;
    ``flow_resources`` lists each flow's resources (no repeats) and
    ``resource_flows`` the flows on each resource; ``capacities`` holds the
    capacity of the resources the solve must respect, each used by at
    least one flow.  A resource the flows use but ``capacities`` omits is
    ignored, which is exact when :func:`can_bind` says it cannot bind.  The
    incidence must be closed on the given resources: every flow that
    ``resource_flows`` lists on one of them is a flow of ``caps``.  No
    argument is modified, so the caller keeps its incidence between calls.

    With a ``log`` the solve is recorded in it, and a solve handed a log
    that holds a previous one resumes from the first round that the items
    in its ``changed_flows``/``changed_resources`` can touch (see the
    module docstring); the rates are the same bits either way.

    Returns ``{flow: rate}``, bit-identical to
    :func:`weighted_max_min_allocation` with unit weights over every
    resource the flows use (see the module docstring for why).
    """
    try:
        if log is not None and log.levels:
            return _resume(caps, flow_resources, resource_flows, capacities, log)
        # the tests of _freeze_threshold and _saturation_threshold, inlined
        freeze_at = {
            flow: cap - (_EPS * cap if 1.0 < cap < _INF else _EPS) for flow, cap in caps.items()
        }
        saturation = {r: _EPS * c if c > 1.0 else _EPS for r, c in capacities.items()}
        by_cap = sorted(caps, key=caps.__getitem__)
        pressure = {resource: len(resource_flows[resource]) for resource in capacities}
        if log is None:
            return _fill(caps, flow_resources, resource_flows, freeze_at, saturation,
                         by_cap, 0.0, dict(capacities), pressure, {}, None)
        log.clear()
        log.freeze_at, log.saturation, log.by_cap = freeze_at, saturation, by_cap
        log.binding = binding = {
            flow: tuple(filter(capacities.__contains__, flow_resources[flow])) for flow in caps
        }
        log.levels.append(0.0)
        log.remaining.append(dict(capacities))
        log.pressure.append(pressure)
        return _fill(caps, binding, resource_flows, freeze_at, saturation,
                     by_cap, 0.0, log.remaining[0], pressure, {}, log)
    except BaseException:
        if log is not None:
            log.clear()  # a half-written log must not seed the next solve
        raise


def _resume(
    caps: Mapping[Hashable, float],
    flow_resources: Mapping[Hashable, Sequence[ResourceId]],
    resource_flows: Mapping[ResourceId, Collection[Hashable]],
    capacities: Mapping[ResourceId, float],
    log: FillLog,
) -> Dict[Hashable, float]:
    """Re-solve from the first round the reported changes can touch."""
    levels, increments, frozen = log.levels, log.increments, log.frozen
    by_cap, freeze_at, binding = log.by_cap, log.freeze_at, log.binding
    saturation, saturated = log.saturation, log.saturated
    k = len(frozen) if log.safety is None else min(log.safety, len(frozen))
    # a changed flow: the round it froze in before, and the first round
    # whose level meets its new threshold
    for flow in log.changed_flows:
        if flow in freeze_at:
            for j in range(k):
                if flow in frozen[j]:
                    k = j
                    break
            by_cap.remove(flow)
            del freeze_at[flow], binding[flow]
    for flow in log.changed_flows:
        cap = caps.get(flow)
        if cap is None:
            continue
        insort(by_cap, flow, key=caps.__getitem__)
        threshold = freeze_at[flow] = _freeze_threshold(cap)
        binding[flow] = tuple(filter(capacities.__contains__, flow_resources[flow]))
        j = bisect_left(levels, threshold, 1, k + 1) - 1
        if j < k:
            k = j
    # a changed resource: the round it saturated in before, then (once
    # every such bound is in) its new remaining replayed through the
    # logged increments with its new counts until it would saturate
    remaining_log, pressure_log = log.remaining, log.pressure
    replays = []
    for resource in log.changed_resources:
        old = resource in saturation
        capacity = capacities.get(resource)
        if old != (capacity is not None):
            # it joined or left the solve, and so it did for its flows
            for flow in resource_flows.get(resource, ()):
                if flow in caps:
                    binding[flow] = tuple(
                        filter(capacities.__contains__, flow_resources[flow])
                    )
        if old:
            if pressure_log[0][resource] > _TIE_FLOWS:
                k = 0
            for j in range(k):
                if resource in saturated[j]:
                    k = j
                    break
            if capacity is None:
                del saturation[resource]
                replays.append((resource, (), ()))
                continue
        elif capacity is None:
            continue  # left out of both solves
        saturation[resource] = _saturation_threshold(capacity)
        replays.append((resource, [capacity], [len(resource_flows[resource])]))
    for resource, values, counts in replays:
        if not values:
            continue
        flows = resource_flows[resource]
        left, count = values[0], counts[0]
        if count > _TIE_FLOWS:
            k = 0
        threshold = saturation[resource]
        old = resource in pressure_log[0]
        # an old resource's counts move by the flows that arrived or
        # departed, which stay unfrozen before round k in both solves
        offset = count - pressure_log[0][resource] if old else 0
        for j in range(k):
            increment = increments[j]
            after = left - increment
            n = count
            while n > 1:
                after -= increment
                n -= 1
            if after <= threshold:
                k = j
                break
            left = after
            if old:
                count = pressure_log[j + 1].get(resource, 0) + offset
            else:
                count -= len(frozen[j].keys() & flows)
            values.append(left)
            counts.append(count)
            if not count:
                break
    # patch the kept rounds and the state at round k for those resources
    for resource, values, counts in replays:
        for j in range(k + 1):
            if j < len(counts) and counts[j]:
                remaining_log[j][resource] = values[j]
                pressure_log[j][resource] = counts[j]
            elif resource in pressure_log[j]:
                del remaining_log[j][resource], pressure_log[j][resource]
            else:
                break  # and absent from every later round
    rates: Dict[Hashable, float] = {}
    for j in range(k):
        rates.update(frozen[j])
    del levels[k + 1:], remaining_log[k + 1:], pressure_log[k + 1:]
    del increments[k:], frozen[k:], saturated[k:]
    log.changed_flows.clear()
    log.changed_resources.clear()
    log.safety = None  # none before round k
    log.resume_round = k
    return _fill(caps, binding, resource_flows, freeze_at, saturation, by_cap,
                 levels[k], remaining_log[k], pressure_log[k], rates, log)


def _fill(
    caps: Mapping[Hashable, float],
    flow_resources: Mapping[Hashable, Sequence[ResourceId]],
    resource_flows: Mapping[ResourceId, Collection[Hashable]],
    freeze_at: Mapping[Hashable, float],
    saturation: Mapping[ResourceId, float],
    by_cap: List[Hashable],
    level: float,
    remaining: Dict[ResourceId, float],
    pressure: Dict[ResourceId, int],
    rates: Dict[Hashable, float],
    log: Optional[FillLog],
) -> Dict[Hashable, float]:
    """The freeze rounds from a given state and the rates they end with.

    ``rates`` holds the flows frozen so far (every other flow of ``caps``
    is unfrozen) and ``by_cap`` every flow in cap order;
    ``remaining``/``pressure`` hold the occupied resources' remaining
    capacity and unfrozen-flow count, two dicts with one key order (a
    resource leaves both when it empties).  Without a ``log`` both are
    updated in place; with one, whose last state entry is this one, every
    round is appended to it and no logged dict is written again.
    """
    # the flow threshold never decreases as the cap grows, so walking the
    # flows in cap order meets the smallest unfrozen cap and every cap
    # that binds
    first = 0  # every flow before by_cap[first] is frozen
    end = len(by_cap)
    while len(rates) < end:
        # how far the common level can rise before a resource or a cap
        # binds; by_cap[first]'s cap is at most the smallest unfrozen one,
        # so a share below its headroom is the increment
        increment = caps[by_cap[first]] - level
        share = min(map(truediv, remaining.values(), pressure.values())) if pressure else _INF
        if not share < increment:
            while by_cap[first] in rates:
                first += 1
            increment = caps[by_cap[first]] - level
        if share < increment:
            increment = share
        if increment < 0.0:
            increment = 0.0
        level += increment

        # charge every occupied resource once per unfrozen flow on it
        charged = {} if log is not None else remaining
        saturated = []
        for resource, count in pressure.items():
            left = remaining[resource] - increment
            while count > 1:
                left -= increment
                count -= 1
            charged[resource] = left
            if left <= saturation[resource]:
                saturated.append(resource)

        # freeze the flows at their cap or on a saturated resource
        frozen: Dict[Hashable, float] = {}
        while first < end and level >= freeze_at[by_cap[first]]:
            if by_cap[first] not in rates:
                frozen[by_cap[first]] = level
            first += 1
        for resource in saturated:
            for flow in resource_flows[resource]:
                if flow not in rates:
                    frozen[flow] = level
        if not frozen:
            # numerical safety: freeze the tightest flow to guarantee
            # progress, the first of the tightest in caps order
            tightest = min((flow for flow in caps if flow not in rates), key=lambda f: min(
                [charged[r] for r in flow_resources[f] if r in charged]
                + [caps[f] - level]
            ))
            frozen[tightest] = level
            if log is not None and log.safety is None:
                log.safety = len(log.frozen)
        remaining = charged
        if log is not None:
            # the round's counts stay logged; the next round's are a copy,
            # logged with the next round's remaining capacities once the
            # frozen flows leave both
            pressure = dict(pressure)
            log.increments.append(increment)
            log.frozen.append(frozen)
            log.saturated.append(saturated)
            log.levels.append(level)
            log.remaining.append(remaining)
            log.pressure.append(pressure)
        for flow in frozen:
            for resource in flow_resources[flow]:
                count = pressure.get(resource, 0) - 1  # -1: not given
                if count > 0:
                    pressure[resource] = count
                elif count == 0:
                    del pressure[resource]
                    del remaining[resource]
        rates.update(frozen)
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
