"""Core contention models — the paper's primary contribution.

This subpackage contains the communication-graph data structure, the conflict
taxonomy (§IV.A), the Gigabit Ethernet model (§V.A), the Myrinet state-set
model (§V.B), the InfiniBand extension (§VII future work), the related-work
baselines (§II) and the parameter-estimation utilities.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".graph": ["Communication", "CommunicationGraph", "ConflictRule"],
    ".conflicts": ["ConflictKind", "CommunicationConflicts", "ConflictReport",
                   "classify_communication", "classify_graph"],
    ".penalty": ["ContentionModel", "LinearCostModel", "PenaltyPrediction"],
    ".incremental": ["EngineStats", "IncrementalPenaltyEngine", "PenaltyCache",
                     "cached_penalties", "cached_predict"],
    ".ethernet_model": ["EthernetParameters", "GigabitEthernetModel"],
    ".myrinet_model": ["MyrinetModel", "StateSetAnalysis", "maximal_independent_sets"],
    ".infiniband_model": ["InfinibandModel", "InfinibandParameters"],
    ".baselines": ["NoContentionModel", "FairShareModel", "KimLeeModel", "LogPCostModel",
                   "LogGPCostModel", "LogGPContentionAdapter"],
    ".calibration": ["CalibrationMeasurement", "estimate_beta", "estimate_beta_from_times",
                     "estimate_gammas", "fit_ethernet_parameters",
                     "fit_infiniband_parameters", "calibrate_from_measurer"],
    ".registry": ["register_model", "get_model", "available_models", "available_networks",
                  "model_for_network", "resolve_model"],
})
