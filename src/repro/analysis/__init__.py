"""Evaluation metrics, the paper's published reference values and table rendering."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".errors": ["relative_error", "relative_errors", "absolute_error", "GraphErrorReport",
                "TaskErrorReport", "compare_times", "compare_reports"],
    ".reference": ["FIGURE2_PENALTIES", "FIGURE4_TIMES", "FIGURE6_TABLE",
                   "FIGURE6_NUM_STATE_SETS", "FIGURE7_MYRINET", "FIGURE7_EABS",
                   "ETHERNET_PAPER_PARAMETERS", "paper_penalties"],
    ".tables": ["render_table", "penalty_ladder_table", "measured_vs_predicted_table",
                "per_task_error_table"],
    ".interference": ["interference_slowdowns", "interference_slowdown_table"],
    ".placement": ["placement_robustness", "placement_robustness_table"],
    ".timeline": ["records_from_trace", "timeline_bins", "timeline_record",
                  "timeline_summary", "timeline_summary_table", "StreamingTimeline"],
})
