"""Network technology descriptions for the cluster emulator.

The paper measures three interconnects (§IV.C): Gigabit Ethernet with TCP
(IBM e326, BCM5704), Myrinet 2000 with MX (IBM e325) and InfiniBand
InfiniHost III (BULL Novascale).  We do not have that hardware, so the
*measured* side of every experiment is produced by an emulator whose sharing
behaviour is **calibrated on the penalties the paper publishes in Figure 2**
(checked by ``benchmarks/bench_fig2_penalty_ladder.py``).

A :class:`NetworkTechnology` bundles:

* the raw link speed and latency,
* the single-stream efficiency (fraction of the link one ``MPI_Send``
  achieves on an idle network — TCP reaches only ≈75 % of a GigE link, MX
  ≈93 % of 2 Gb/s Myrinet, a single IB QP ≈87 % of the HCA),
* a :class:`SharingBehaviour` describing how concurrent flows degrade each
  other (fair NIC sharing plus income/outgo interference), and
* the flow-control mechanism name, used by the packet-level models in
  :mod:`repro.network.packet`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict

from ..exceptions import TopologyError
from ..units import GBIT, MB, USEC

__all__ = [
    "SharingBehaviour",
    "NetworkTechnology",
    "GIGABIT_ETHERNET",
    "MYRINET_2000",
    "INFINIBAND_INFINIHOST3",
    "TECHNOLOGIES",
    "get_technology",
]


@dataclass(frozen=True)
class SharingBehaviour:
    """How concurrent flows at a NIC degrade each other.

    The fields are calibration constants fitted against the Figure 2 penalty
    ladder of the paper (see the module doc string and
    ``benchmarks/bench_fig2_penalty_ladder.py``).

    Parameters
    ----------
    single_stream_efficiency:
        Fraction of the link bandwidth achieved by one isolated flow.
    duplex_flow_slowdown:
        Per-flow rate reduction applied to a flow whose **destination** node
        is simultaneously transmitting (the income/outgo coupling observed on
        a single reverse stream: 1.15 on GigE, 1.45 on Myrinet, 1.14 on IB).
    reverse_threshold:
        Number of incoming flows at a node from which the stronger capacity
        degradations below start to apply (the paper's measurements show the
        second reverse stream is the expensive one).
    tx_capacity_loss:
        Fraction of the node's transmit capacity lost once it receives at
        least ``reverse_threshold`` flows.
    rx_capacity_loss:
        Fraction of the node's receive capacity lost once it receives at
        least ``reverse_threshold`` flows *and* transmits at least one.
    """

    single_stream_efficiency: float
    duplex_flow_slowdown: float = 0.0
    reverse_threshold: int = 2
    tx_capacity_loss: float = 0.0
    rx_capacity_loss: float = 0.0

    def __post_init__(self) -> None:
        if not (0 < self.single_stream_efficiency <= 1):
            raise TopologyError(
                f"single_stream_efficiency must be in (0, 1], got {self.single_stream_efficiency}"
            )
        for label in ("duplex_flow_slowdown", "tx_capacity_loss", "rx_capacity_loss"):
            value = getattr(self, label)
            if not (0 <= value < 1):
                raise TopologyError(f"{label} must be in [0, 1), got {value}")
        if self.reverse_threshold < 1:
            raise TopologyError(f"reverse_threshold must be >= 1, got {self.reverse_threshold}")


@dataclass(frozen=True)
class NetworkTechnology:
    """A cluster interconnect as seen by the emulator."""

    name: str
    #: raw link speed in bytes per second (full duplex: per direction)
    link_bandwidth: float
    #: one-way small-message latency in seconds
    latency: float
    sharing: SharingBehaviour
    #: flow control mechanism: "tcp-pause", "stop-and-go" or "credit"
    flow_control: str = "generic"
    #: memory (intra-node) copy bandwidth in bytes per second
    memory_bandwidth: float = 1_500 * MB
    #: MPI envelope added to every message, bytes
    mpi_envelope: int = 64

    def __post_init__(self) -> None:
        if self.link_bandwidth <= 0:
            raise TopologyError(f"link_bandwidth must be positive, got {self.link_bandwidth}")
        if self.latency < 0:
            raise TopologyError(f"latency must be non-negative, got {self.latency}")
        if self.memory_bandwidth <= 0:
            raise TopologyError(f"memory_bandwidth must be positive, got {self.memory_bandwidth}")

    @cached_property
    def single_stream_bandwidth(self) -> float:
        """Bandwidth one isolated MPI flow achieves, bytes per second.

        Computed on the first read and kept, since the engine and the rate
        providers read it for every message.  The kept value is not a field:
        equality, hashing and ``dataclasses.fields`` ignore it.
        """
        return self.link_bandwidth * self.sharing.single_stream_efficiency

    def reference_time(self, size: int = 20 * MB) -> float:
        """Duration of a contention-free ``size``-byte transfer (the paper's T_ref)."""
        return self.latency + (size + self.mpi_envelope) / self.single_stream_bandwidth

    def with_sharing(self, **changes) -> "NetworkTechnology":
        """Copy of the technology with some sharing parameters changed (for ablations)."""
        return replace(self, sharing=replace(self.sharing, **changes))


#: IBM eServer 326 cluster: Broadcom BCM5704 Gigabit Ethernet, MPICH over TCP.
GIGABIT_ETHERNET = NetworkTechnology(
    name="gigabit-ethernet",
    link_bandwidth=1.0 * GBIT,
    latency=45 * USEC,
    sharing=SharingBehaviour(
        single_stream_efficiency=0.75,
        duplex_flow_slowdown=0.13,
        reverse_threshold=2,
        tx_capacity_loss=0.30,
        rx_capacity_loss=0.42,
    ),
    flow_control="tcp-pause",
    memory_bandwidth=1_400 * MB,
)

#: IBM eServer 325 cluster: Myrinet 2000 (2 Gb/s), MPI-MX, Stop & Go flow control.
MYRINET_2000 = NetworkTechnology(
    name="myrinet-2000",
    link_bandwidth=2.0 * GBIT,
    latency=7 * USEC,
    sharing=SharingBehaviour(
        single_stream_efficiency=0.93,
        duplex_flow_slowdown=0.31,
        reverse_threshold=2,
        tx_capacity_loss=0.35,
        rx_capacity_loss=0.26,
    ),
    flow_control="stop-and-go",
    memory_bandwidth=1_300 * MB,
)

#: BULL Novascale cluster: Mellanox InfiniHost III (SDR 4x, 8 Gb/s effective),
#: MPIBULL2/MVAPICH, credit-based flow control.
INFINIBAND_INFINIHOST3 = NetworkTechnology(
    name="infiniband-infinihost3",
    link_bandwidth=8.0 * GBIT,
    latency=4 * USEC,
    sharing=SharingBehaviour(
        single_stream_efficiency=0.87,
        duplex_flow_slowdown=0.123,
        reverse_threshold=2,
        tx_capacity_loss=0.287,
        rx_capacity_loss=0.145,
    ),
    flow_control="credit",
    memory_bandwidth=2_500 * MB,
)

TECHNOLOGIES: Dict[str, NetworkTechnology] = {
    "gigabit-ethernet": GIGABIT_ETHERNET,
    "ethernet": GIGABIT_ETHERNET,
    "gige": GIGABIT_ETHERNET,
    "myrinet": MYRINET_2000,
    "myrinet-2000": MYRINET_2000,
    "infiniband": INFINIBAND_INFINIHOST3,
    "ib": INFINIBAND_INFINIHOST3,
    "infinihost3": INFINIBAND_INFINIHOST3,
}


def get_technology(name: str) -> NetworkTechnology:
    """Look a technology preset up by name or alias.

    >>> get_technology("myrinet").flow_control
    'stop-and-go'
    """
    key = name.lower()
    if key not in TECHNOLOGIES:
        raise TopologyError(
            f"unknown network technology {name!r}; known: "
            f"{', '.join(sorted(set(TECHNOLOGIES)))}"
        )
    return TECHNOLOGIES[key]
