"""Cluster network topologies.

All three clusters of the paper use a fat-tree interconnect (§IV.C).  The
emulator mostly exercises the end-point NICs (the fat trees of the paper are
non-blocking, so switch links never become the bottleneck in its schemes),
but the topology layer is implemented for completeness: it provides the
shared-link resources used by the max-min solver, which enables
oversubscription ablations that the paper's clusters could not run.

Resource identifiers handed to :mod:`repro.network.sharing` are tuples:

* ``("tx", host)`` — transmit port of a host NIC,
* ``("rx", host)`` — receive port of a host NIC,
* ``("mem", host)`` — memory bus used by intra-node copies,
* ``("up", switch)`` / ``("down", switch)`` — aggregated up/down links of an
  edge switch towards the core level (perfect multipath balancing across the
  physical uplinks is assumed, which matches adaptive/dispersive routing on
  Myrinet and standard fat-tree routing on IB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Tuple

from ..exceptions import TopologyError
from .technologies import NetworkTechnology

__all__ = [
    "ResourceKind",
    "Topology",
    "CrossbarTopology",
    "FatTreeTopology",
    "build_topology",
]


class ResourceKind:
    """String constants for the resource-id tuples."""

    TX = "tx"
    RX = "rx"
    MEMORY = "mem"
    UPLINK = "up"
    DOWNLINK = "down"


@dataclass
class Topology:
    """Base class: hosts connected by an abstract non-blocking fabric."""

    num_hosts: int
    technology: NetworkTechnology

    def __post_init__(self) -> None:
        if self.num_hosts < 1:
            raise TopologyError(f"a topology needs at least one host, got {self.num_hosts}")

    # ------------------------------------------------------------------ hosts
    @property
    def hosts(self) -> range:
        return range(self.num_hosts)

    def check_host(self, host: int) -> None:
        if not (0 <= host < self.num_hosts):
            raise TopologyError(f"host {host} outside topology of {self.num_hosts} hosts")

    # -------------------------------------------------------------- resources
    def nic_resources(self, host: int) -> Tuple[Hashable, Hashable]:
        """(TX, RX) resource identifiers of a host NIC."""
        self.check_host(host)
        return (ResourceKind.TX, host), (ResourceKind.RX, host)

    def memory_resource(self, host: int) -> Hashable:
        self.check_host(host)
        return (ResourceKind.MEMORY, host)

    def fabric_route(self, src: int, dst: int) -> Tuple[Hashable, ...]:
        """Shared fabric resources crossed between two hosts (excluding NICs)."""
        self.check_host(src)
        self.check_host(dst)
        return ()

    def capacities(self) -> Dict[Hashable, float]:
        """Capacity of every resource of the topology, in bytes per second."""
        caps: Dict[Hashable, float] = {}
        for host in self.hosts:
            tx, rx = self.nic_resources(host)
            caps[tx] = self.technology.link_bandwidth
            caps[rx] = self.technology.link_bandwidth
            caps[self.memory_resource(host)] = self.technology.memory_bandwidth
        return caps

    def resource_capacity(self, resource: Hashable) -> float:
        """Capacity of one resource identifier, in bytes per second.

        Point lookup equivalent of ``capacities()[resource]`` — lets the
        allocator price a sharing situation touching k resources in O(k)
        instead of materialising the O(num_hosts) full dictionary.
        """
        if isinstance(resource, tuple) and len(resource) == 2:
            kind, owner = resource
            if kind in (ResourceKind.TX, ResourceKind.RX):
                self.check_host(owner)
                return self.technology.link_bandwidth
            if kind == ResourceKind.MEMORY:
                self.check_host(owner)
                return self.technology.memory_bandwidth
        raise TopologyError(f"unknown resource {resource!r}")

    def describe(self) -> str:
        return f"{type(self).__name__}: {self.num_hosts} hosts on {self.technology.name}"


@dataclass
class CrossbarTopology(Topology):
    """Single non-blocking switch: only the NICs can be bottlenecks.

    This matches the behaviour of the paper's (non-oversubscribed) fat trees
    for the scheme sizes it measures and is the default fabric of the
    emulator.
    """

    def fabric_route(self, src: int, dst: int) -> Tuple[Hashable, ...]:
        self.check_host(src)
        self.check_host(dst)
        return ()


@dataclass
class FatTreeTopology(Topology):
    """Two-level fat tree with configurable oversubscription.

    ``hosts_per_edge`` hosts attach to each edge switch; each edge switch has
    ``uplinks_per_edge`` links towards the core.  The aggregated uplink (and
    downlink) of an edge switch is modelled as a single resource of capacity
    ``uplinks_per_edge × link_bandwidth`` — i.e. perfect balancing across the
    physical uplinks, the best case for the fabric.
    """

    hosts_per_edge: int = 8
    uplinks_per_edge: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.hosts_per_edge < 1:
            raise TopologyError(f"hosts_per_edge must be >= 1, got {self.hosts_per_edge}")
        if self.uplinks_per_edge < 1:
            raise TopologyError(f"uplinks_per_edge must be >= 1, got {self.uplinks_per_edge}")

    @property
    def num_edge_switches(self) -> int:
        return math.ceil(self.num_hosts / self.hosts_per_edge)

    @property
    def oversubscription(self) -> float:
        """Host bandwidth divided by uplink bandwidth of an edge switch (1 = non blocking)."""
        return self.hosts_per_edge / self.uplinks_per_edge

    def edge_switch_of(self, host: int) -> int:
        self.check_host(host)
        return host // self.hosts_per_edge

    def fabric_route(self, src: int, dst: int) -> Tuple[Hashable, ...]:
        self.check_host(src)
        self.check_host(dst)
        if src == dst:
            return ()
        edge_src = self.edge_switch_of(src)
        edge_dst = self.edge_switch_of(dst)
        if edge_src == edge_dst:
            return ()
        return (
            (ResourceKind.UPLINK, edge_src),
            (ResourceKind.DOWNLINK, edge_dst),
        )

    def capacities(self) -> Dict[Hashable, float]:
        caps = super().capacities()
        uplink_capacity = self.uplinks_per_edge * self.technology.link_bandwidth
        for switch in range(self.num_edge_switches):
            caps[(ResourceKind.UPLINK, switch)] = uplink_capacity
            caps[(ResourceKind.DOWNLINK, switch)] = uplink_capacity
        return caps

    def resource_capacity(self, resource: Hashable) -> float:
        if isinstance(resource, tuple) and len(resource) == 2:
            kind, owner = resource
            if kind in (ResourceKind.UPLINK, ResourceKind.DOWNLINK):
                if not (0 <= owner < self.num_edge_switches):
                    raise TopologyError(f"unknown resource {resource!r}")
                return self.uplinks_per_edge * self.technology.link_bandwidth
        return super().resource_capacity(resource)

    def describe(self) -> str:
        return (
            f"FatTreeTopology: {self.num_hosts} hosts, {self.num_edge_switches} edge switches, "
            f"{self.hosts_per_edge} hosts/switch, {self.uplinks_per_edge} uplinks/switch "
            f"(oversubscription {self.oversubscription:.2f}:1) on {self.technology.name}"
        )


def build_topology(
    technology: NetworkTechnology,
    num_hosts: int,
    kind: str = "crossbar",
    **kwargs,
) -> Topology:
    """Factory: build a topology by name (``"crossbar"`` or ``"fat-tree"``)."""
    key = kind.lower()
    if key in ("crossbar", "star", "non-blocking"):
        return CrossbarTopology(num_hosts=num_hosts, technology=technology)
    if key in ("fat-tree", "fattree", "fat_tree"):
        return FatTreeTopology(num_hosts=num_hosts, technology=technology, **kwargs)
    raise TopologyError(f"unknown topology kind {kind!r}")
