"""Cluster network emulator — the "measured" substrate of the reproduction.

The paper measures penalties on three physical clusters; this subpackage
replaces them with an emulator whose sharing behaviour is calibrated against
the penalties published in Figure 2 (fluid flow simulation + technology
specific rate allocation), complemented by packet-level models of the Stop &
Go and credit-based flow controls for mechanism-level studies.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".emulator": ["ClusterEmulator"],
    ".allocator": ["EmulatorRateProvider"],
    ".fluid": ["CalendarStats", "FluidTransferSimulator", "RateProvider", "Transfer",
               "TransferCalendar", "TransferResult"],
    ".packet": ["PacketLevelNetwork", "StopAndGoNetwork", "CreditBasedNetwork"],
    ".sharing": ["FlowSpec", "max_min_allocation", "weighted_max_min_allocation"],
    ".technologies": ["NetworkTechnology", "SharingBehaviour", "GIGABIT_ETHERNET",
                      "MYRINET_2000", "INFINIBAND_INFINIHOST3", "TECHNOLOGIES",
                      "get_technology"],
    ".topology": ["Topology", "CrossbarTopology", "FatTreeTopology", "ResourceKind",
                  "build_topology"],
})
