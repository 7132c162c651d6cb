"""Penalty measurement tooling (the paper's benchmark software) and sweeps."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".penalty_tool": ["PenaltyTool", "PenaltyMeasurement"],
    ".runner": ["ExperimentRunner", "SchemeResult", "SweepResult"],
})
