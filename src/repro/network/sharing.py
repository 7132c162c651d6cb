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

The implementation follows the textbook water-filling algorithm:

1. every unfrozen flow grows at the same rate;
2. the first constraint to saturate (a resource whose remaining capacity
   divided by its weight pressure is minimal, or a per-flow cap) freezes
   the flows it limits;
3. repeat until every flow is frozen.

Two implementations share that freeze-round structure:

* the **scalar reference** (``vectorized=False``) walks Python dicts — one
  loop iteration per flow and per resource touched, the historical code;
* the **array path** (``vectorized=True``) operates on a flow×resource
  incidence matrix in CSR style: two parallel index arrays ``(entry →
  flow, entry → resource)`` plus per-flow weight/cap and per-resource
  capacity vectors.  Each freeze round reduces over those arrays (weight
  pressure via ``np.add.at``, the binding constraint via array minima, the
  capacity charge via ``np.subtract.at``, the numerical-safety "tightest
  flow" via a masked ``argmin``) — no per-flow Python in the inner
  iteration.

**Bit-exactness contract**: the array path replicates the scalar loop
operation for operation — the per-entry accumulations of ``np.add.at`` /
``np.subtract.at`` apply in entry order, which is exactly the scalar
flow-major iteration order; every quotient, threshold and comparison uses
the same operands in the same association order; and ``np.argmin`` breaks
ties like the scalar first-minimum scan.  The two paths therefore return
**bit-identical** rates for any input, which
``tests/property/test_vectorized_sharing.py`` and
``tests/network/test_sharing_degenerate.py`` assert (including degenerate
inputs and weights spanning six orders of magnitude).  ``vectorized=None``
(the default) auto-dispatches by problem size — safe precisely because the
two paths cannot disagree.

Downstream, :class:`~repro.network.allocator.EmulatorRateProvider` prices
cache-miss situations through the array path and hands the changed-value
diff to the calendar through the one ``update()`` delta contract of
:mod:`repro.network.fluid`; because the solver is bit-exact across its own
paths, the size dispatch never leaks into simulated results.  This is the
one array twin kept beside its scalar reference on end-to-end evidence: on
the loaded fat-tree emulator workload, switching it off made the whole run
about twice as slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from .._numpy import np
from ..exceptions import SimulationError

__all__ = [
    "FlowSpec",
    "max_min_allocation",
    "weighted_max_min_allocation",
    "water_fill_arrays",
]

ResourceId = Hashable

#: saturation tolerance of the freeze rounds (both implementations)
_EPS = 1e-12

#: below this many flows the scalar loop wins on constant factors; the
#: dispatch is a pure performance choice because the paths are bit-exact
_VECTORIZED_MIN_FLOWS = 12


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
    vectorized: Optional[bool] = None,
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
    return weighted_max_min_allocation(flows, capacities, vectorized=vectorized)


def weighted_max_min_allocation(
    flows: Sequence[FlowSpec],
    capacities: Mapping[ResourceId, float],
    vectorized: Optional[bool] = None,
) -> Dict[Hashable, float]:
    """Weighted max-min fair allocation (weights scale each flow's share).

    ``vectorized`` selects the implementation: ``True`` forces the array
    path, ``False`` the scalar reference loop, ``None`` (default) picks by
    problem size.  The two are bit-exact (see the module docstring).
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

    if vectorized is None:
        vectorized = len(flows) >= _VECTORIZED_MIN_FLOWS
    if vectorized:
        return _allocate_arrays(flows, capacities)
    return _allocate_scalar(flows, capacities)


# --------------------------------------------------------------- array path
def _allocate_arrays(
    flows: Sequence[FlowSpec],
    capacities: Mapping[ResourceId, float],
) -> Dict[Hashable, float]:
    """Build the CSR-style incidence arrays and run the array water-filling."""
    res_index: Dict[ResourceId, int] = {}
    ent_flow: List[int] = []
    ent_res: List[int] = []
    # flow-major entry order: this is what makes the np.add.at/subtract.at
    # accumulations replicate the scalar loop's float operation order
    for position, flow in enumerate(flows):
        for resource in flow.resources:
            ent_flow.append(position)
            ent_res.append(res_index.setdefault(resource, len(res_index)))
    num_flows = len(flows)
    weights = np.fromiter((f.weight for f in flows), dtype=np.float64, count=num_flows)
    caps = np.fromiter((f.cap for f in flows), dtype=np.float64, count=num_flows)
    resource_caps = np.fromiter(
        (capacities[r] for r in res_index), dtype=np.float64, count=len(res_index)
    )
    rates = water_fill_arrays(
        weights,
        caps,
        np.asarray(ent_flow, dtype=np.int64),
        np.asarray(ent_res, dtype=np.int64),
        resource_caps,
        max_iterations=len(flows) + len(capacities) + 1,
    )
    return dict(zip((f.flow_id for f in flows), rates.tolist()))


def water_fill_arrays(
    weights: "np.ndarray",
    caps: "np.ndarray",
    ent_flow: "np.ndarray",
    ent_res: "np.ndarray",
    resource_caps: "np.ndarray",
    max_iterations: Optional[int] = None,
) -> "np.ndarray":
    """Water-filling freeze loop over a flow×resource incidence matrix.

    ``weights``/``caps`` are per-flow (length n); ``resource_caps`` is the
    per-resource capacity vector (length m); ``ent_flow``/``ent_res`` are
    the parallel entry arrays of the incidence matrix in flow-major order.
    Returns the per-flow rate vector (clamped at 0).  Bit-exact with the
    scalar loop of :func:`weighted_max_min_allocation` — see the module
    docstring for why the operation order matches.
    """
    num_flows = weights.shape[0]
    num_resources = resource_caps.shape[0]
    if max_iterations is None:
        max_iterations = num_flows + num_resources + 1
    rates = np.zeros(num_flows, dtype=np.float64)
    remaining = resource_caps.astype(np.float64, copy=True)
    # saturation threshold per resource: eps * max(1, original capacity)
    saturation = _EPS * np.maximum(1.0, resource_caps)
    # per-flow freeze threshold: cap - eps * max(1, cap) (1 for infinite caps)
    cap_freeze = caps - _EPS * np.maximum(1.0, np.where(np.isinf(caps), 1.0, caps))
    active = np.ones(num_flows, dtype=bool)

    for _ in range(max_iterations):
        if not active.any():
            break

        live = active[ent_flow]
        e_flow = ent_flow[live]
        e_res = ent_res[live]

        # weight pressure on every resource from the still-active flows
        pressure = np.zeros(num_resources, dtype=np.float64)
        np.add.at(pressure, e_res, weights[e_flow])
        touched = np.zeros(num_resources, dtype=bool)
        touched[e_res] = True

        # how much further the common level can rise before a constraint
        # binds: resource ratios and per-flow cap headrooms
        increment = np.inf
        if e_res.size:
            increment = float(np.min(remaining[touched] / pressure[touched]))
        headroom = (caps[active] - rates[active]) / weights[active]
        if headroom.size:
            increment = min(increment, float(np.min(headroom)))
        increment = max(increment, 0.0)

        # raise every active flow by increment * weight and charge resources
        delta = increment * weights
        rates[active] += delta[active]
        if e_res.size:
            np.subtract.at(remaining, e_res, delta[e_flow])

        # freeze flows limited by a saturated constraint
        saturated = touched & (remaining <= saturation)
        freeze = active & (rates >= cap_freeze)
        if saturated.any():
            freeze[e_flow[saturated[e_res]]] = True
        if not freeze.any():
            # numerical safety: freeze the tightest flow to guarantee progress
            tightness = np.where(active, caps - rates, np.inf)
            if e_res.size:
                np.minimum.at(tightness, e_flow, remaining[e_res])
            freeze[int(np.argmin(tightness))] = True
        active &= ~freeze
    if active.any():  # pragma: no cover - the loop always terminates within the bound
        raise SimulationError("max-min allocation did not converge")

    # clamp tiny negative numerical noise
    return np.maximum(0.0, rates)


# -------------------------------------------------------------- scalar path
def _allocate_scalar(
    flows: Sequence[FlowSpec],
    capacities: Mapping[ResourceId, float],
) -> Dict[Hashable, float]:
    """The historical dict-walking loop, kept as the bit-exact reference."""
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
