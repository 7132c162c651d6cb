"""Cluster emulator facade.

:class:`ClusterEmulator` plays the role of the paper's physical clusters: it
"measures" the duration and the penalty of every communication of a scheme.
It combines

* a :class:`~repro.network.technologies.NetworkTechnology` (link speed,
  latency, calibrated sharing behaviour),
* a :class:`~repro.network.topology.Topology` (NIC and fabric capacities),
* the :class:`~repro.network.allocator.EmulatorRateProvider`, and
* the :class:`~repro.network.fluid.FluidTransferSimulator`,

and exposes the same quantities the paper's measurement software reports
(§IV.B): the referential time of a 20 MB transfer, per-communication times
and penalties ``P_i = T_i / T_ref``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.graph import CommunicationGraph
from ..exceptions import SimulationError
from ..units import MB
from .allocator import EmulatorRateProvider
from .fluid import FluidTransferSimulator, Transfer
from .technologies import NetworkTechnology, get_technology
from .topology import CrossbarTopology, Topology

__all__ = ["ClusterEmulator"]


class ClusterEmulator:
    """Emulated cluster that measures communication schemes.

    Parameters
    ----------
    technology:
        A :class:`NetworkTechnology` instance or a name/alias
        (``"ethernet"``, ``"myrinet"``, ``"infiniband"``).
    topology:
        Optional explicit topology; defaults to a non-blocking crossbar with
        ``num_hosts`` hosts (the paper's fat trees are non-blocking at the
        measured scales).
    num_hosts:
        Number of hosts of the default crossbar topology.
    """

    def __init__(
        self,
        technology: NetworkTechnology | str,
        topology: Optional[Topology] = None,
        num_hosts: int = 64,
    ) -> None:
        if isinstance(technology, str):
            technology = get_technology(technology)
        self.technology = technology
        self.topology = topology or CrossbarTopology(num_hosts=num_hosts, technology=technology)
        self.rate_provider = EmulatorRateProvider(technology, self.topology)
        self.simulator = FluidTransferSimulator(self.rate_provider, latency=technology.latency)

    # ----------------------------------------------------------------- basics
    def reference_time(self, size: int = 20 * MB) -> float:
        """Duration of one isolated ``size``-byte transfer (the paper's T_ref)."""
        return self.technology.reference_time(size)

    def _transfers(self, graph: CommunicationGraph) -> Sequence[Transfer]:
        hosts = self.topology.num_hosts
        for comm in graph:
            if comm.src >= hosts or comm.dst >= hosts:
                raise SimulationError(
                    f"communication {comm.name!r} references host beyond the "
                    f"{hosts}-host topology; pass a larger topology"
                )
        return [
            Transfer(
                transfer_id=comm.name,
                src=comm.src,
                dst=comm.dst,
                size=comm.size + self.technology.mpi_envelope,
            )
            for comm in graph
        ]

    # ------------------------------------------------------------ measurement
    def measure_times(self, graph: CommunicationGraph) -> Dict[str, float]:
        """Measured duration (seconds) of every communication of ``graph``.

        All communications start simultaneously, as enforced by the paper's
        synchronisation barrier before each scheme (§IV.B).
        """
        results = self.simulator.run(self._transfers(graph))
        return {str(name): result.duration for name, result in results.items()}

    def measure_penalties(self, graph: CommunicationGraph) -> Dict[str, float]:
        """Measured penalties ``P_i = T_i / T_ref`` for every communication."""
        times = self.measure_times(graph)
        penalties: Dict[str, float] = {}
        for comm in graph:
            reference = self.reference_time(comm.size)
            penalties[comm.name] = times[comm.name] / reference
        return penalties

    # --------------------------------------------------------------- reporting
    def describe(self) -> str:
        tech = self.technology
        return (
            f"ClusterEmulator[{tech.name}]: link {tech.link_bandwidth / 1e6:.0f} MB/s, "
            f"single stream {tech.single_stream_bandwidth / 1e6:.0f} MB/s, "
            f"latency {tech.latency * 1e6:.1f} us, flow control {tech.flow_control}, "
            f"{self.topology.num_hosts} hosts"
        )
