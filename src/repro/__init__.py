"""repro — reproduction of *Predictive models for bandwidth sharing in high
performance clusters* (Vienne, Martinasso, Vincent, Méhaut — IEEE Cluster 2008).

The package provides:

* the paper's contention models (Gigabit Ethernet, Myrinet, plus the
  InfiniBand extension and related-work baselines) in :mod:`repro.core`;
* a calibrated cluster emulator standing in for the paper's three physical
  clusters in :mod:`repro.network`;
* cluster descriptions and task placement in :mod:`repro.cluster`;
* a simulated MPI layer in :mod:`repro.mpi`;
* the predictive simulator (applications as event traces) in
  :mod:`repro.simulator`;
* the communication-scheme language and the paper's schemes in
  :mod:`repro.scheme`;
* workload generators (HPL/Linpack, synthetic graphs, collectives) in
  :mod:`repro.workloads`;
* the penalty measurement tool in :mod:`repro.benchmark`;
* the evaluation metrics and the paper's published values in
  :mod:`repro.analysis`;
* the structured per-event trace pipeline (records, sinks, trace-driven
  replay) in :mod:`repro.trace`.

Quick start
-----------

.. code-block:: python

    from repro import CommunicationGraph, GigabitEthernetModel, MyrinetModel

    graph = CommunicationGraph.from_edges([(0, 1), (0, 2), (0, 3)])
    GigabitEthernetModel().penalties(graph)   # {'a': 2.25, 'b': 2.25, 'c': 2.25}
    MyrinetModel().penalties(graph)           # {'a': 3.0, 'b': 3.0, 'c': 3.0}

Imports
-------
Names are exported lazily: ``import repro`` (or any subpackage) loads only
:mod:`repro._exports`, and each exported name is imported from its defining
module on first use (:func:`repro._exports.lazy_exports`).  One rule keeps
start-up short: a module's top level imports only what every caller runs,
and an optional path (the emulator, a process pool, tracing, metrics, a
persistent cache, a table or CSV export) imports what it needs where it
runs.  ``tests/test_startup.py`` pins what ``import repro``, a predictive
run, an inline campaign and ``python -m repro --help`` load.
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    # core
    ".core.graph": ["Communication", "CommunicationGraph", "ConflictRule"],
    ".core.conflicts": ["ConflictKind", "classify_graph"],
    ".core.penalty": ["ContentionModel", "LinearCostModel", "PenaltyPrediction"],
    ".core.ethernet_model": ["EthernetParameters", "GigabitEthernetModel"],
    ".core.myrinet_model": ["MyrinetModel"],
    ".core.infiniband_model": ["InfinibandModel", "InfinibandParameters"],
    ".core.baselines": ["NoContentionModel", "FairShareModel", "KimLeeModel",
                        "LogPCostModel", "LogGPCostModel"],
    ".core.registry": ["get_model", "model_for_network"],
    # cluster
    ".cluster.spec": ["ClusterSpec", "custom_cluster", "get_cluster", "IBM_E326_GIGE",
                      "IBM_E325_MYRINET", "BULL_NOVASCALE_IB"],
    ".cluster.placement": ["Placement", "make_placement"],
    # network
    ".network.emulator": ["ClusterEmulator"],
    ".network.technologies": ["NetworkTechnology", "get_technology", "GIGABIT_ETHERNET",
                              "MYRINET_2000", "INFINIBAND_INFINIHOST3"],
    # tools
    ".benchmark.penalty_tool": ["PenaltyTool"],
    ".benchmark.runner": ["ExperimentRunner"],
    ".mpi.runtime": ["MpiRuntime"],
    ".mpi.api": ["Rank"],
    # schemes & workloads
    ".scheme.language": ["parse_scheme"],
    ".scheme.library": ["figure2_schemes", "figure4_scheme", "figure5_graph", "mk1_tree",
                        "mk2_complete"],
    ".workloads.linpack": ["LinpackParameters", "generate_linpack"],
    # simulator
    ".simulator.application": ["Application"],
    ".simulator.simulator": ["Simulator"],
    # campaigns
    ".campaign.spec": ["CampaignSpec"],
    ".campaign.runner": ["CampaignRunner"],
    ".campaign.results": ["CampaignResultStore"],
    ".campaign.persistence": ["PersistentPenaltyCache"],
})
__all__.insert(0, "__version__")
