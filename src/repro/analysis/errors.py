"""Error metrics of the evaluation methodology (§VI.B of the paper).

Two metrics are used throughout the paper:

* the **relative error** of one communication,
  ``E_rel(c_k) = (T_p - T_m) / T_m × 100`` — its sign shows whether the model
  is optimistic (negative) or pessimistic (positive);
* the **average absolute error** of a graph,
  ``E_abs(G) = (1/N) Σ |E_rel(c_k)|`` — compensation-free accuracy summary.

For application traces, the per-task sums ``S_m = Σ T_m`` and ``S_p = Σ T_p``
of the communications of a task are compared instead:
``E_abs(t_i) = |(S_p - S_m) / S_m| × 100``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

import numpy as np

from ..exceptions import ReproError
from ..simulator.report import SimulationReport

__all__ = [
    "relative_error",
    "relative_errors",
    "absolute_error",
    "GraphErrorReport",
    "compare_times",
    "TaskErrorReport",
    "compare_reports",
]


def relative_error(predicted: float, measured: float) -> float:
    """``E_rel`` in percent; raises when the measured value is zero."""
    if measured == 0:
        raise ReproError("cannot compute a relative error against a zero measurement")
    return (predicted - measured) / measured * 100.0


def relative_errors(
    predicted: Mapping[str, float], measured: Mapping[str, float]
) -> Dict[str, float]:
    """Per-communication relative errors; keys must match."""
    missing = set(measured) - set(predicted)
    if missing:
        raise ReproError(f"missing predictions for {sorted(missing)}")
    return {name: relative_error(predicted[name], measured[name]) for name in measured}


def absolute_error(relative: Iterable[float]) -> float:
    """``E_abs``: mean of the absolute relative errors, in percent."""
    values = np.asarray(list(relative), dtype=float)
    if values.size == 0:
        return 0.0
    return float(np.mean(np.abs(values)))


@dataclass
class GraphErrorReport:
    """Figure 7 style error report for one communication graph."""

    graph_name: str
    measured: Dict[str, float]
    predicted: Dict[str, float]
    relative: Dict[str, float]

    @property
    def absolute(self) -> float:
        """``E_abs(G)`` in percent."""
        return absolute_error(self.relative.values())

    @property
    def mean_relative(self) -> float:
        """Signed mean of the relative errors (optimism/pessimism indicator)."""
        values = list(self.relative.values())
        return float(np.mean(values)) if values else 0.0

    @property
    def is_pessimistic(self) -> bool:
        """True when the model over-predicts on average (positive mean error)."""
        return self.mean_relative > 0

    def table(self) -> str:
        header = f"{'com.':>6s} {'Tm [s]':>10s} {'Tp [s]':>10s} {'Erel [%]':>10s}"
        lines = [f"graph {self.graph_name}", header, "-" * len(header)]
        for name in self.measured:
            lines.append(
                f"{name:>6s} {self.measured[name]:>10.4f} {self.predicted[name]:>10.4f} "
                f"{self.relative[name]:>10.1f}"
            )
        lines.append(f"Average of absolute errors Eabs = {self.absolute:.1f}")
        return "\n".join(lines)


def compare_times(
    measured: Mapping[str, float],
    predicted: Mapping[str, float],
    graph_name: str = "",
) -> GraphErrorReport:
    """Build the Figure 7 style error report for one graph."""
    relative = relative_errors(predicted, measured)
    return GraphErrorReport(
        graph_name=graph_name,
        measured=dict(measured),
        predicted=dict(predicted),
        relative=relative,
    )


@dataclass
class TaskErrorReport:
    """Figures 8/9 style per-task error report for an application run."""

    application_name: str
    #: per-task measured sum of communication times (S_m)
    measured: Dict[int, float]
    #: per-task predicted sum of communication times (S_p)
    predicted: Dict[int, float]

    @property
    def per_task_error(self) -> Dict[int, float]:
        """``E_abs(t_i) = |(S_p - S_m)/S_m| × 100`` per task."""
        errors = {}
        for rank in self.measured:
            measured = self.measured[rank]
            predicted = self.predicted.get(rank, 0.0)
            if measured == 0:
                errors[rank] = 0.0 if predicted == 0 else float("inf")
            else:
                errors[rank] = abs((predicted - measured) / measured) * 100.0
        return errors

    @property
    def mean_error(self) -> float:
        finite = [e for e in self.per_task_error.values() if np.isfinite(e)]
        return float(np.mean(finite)) if finite else 0.0

    @property
    def max_error(self) -> float:
        finite = [e for e in self.per_task_error.values() if np.isfinite(e)]
        return float(max(finite)) if finite else 0.0

    def table(self) -> str:
        header = f"{'task':>5s} {'Sm [s]':>12s} {'Sp [s]':>12s} {'Eabs [%]':>10s}"
        lines = [f"application {self.application_name}", header, "-" * len(header)]
        errors = self.per_task_error
        for rank in sorted(self.measured):
            lines.append(
                f"{rank:>5d} {self.measured[rank]:>12.4f} "
                f"{self.predicted.get(rank, 0.0):>12.4f} {errors[rank]:>10.1f}"
            )
        lines.append(f"mean Eabs = {self.mean_error:.1f} %, max = {self.max_error:.1f} %")
        return "\n".join(lines)


def compare_reports(
    measured: SimulationReport, predicted: SimulationReport
) -> TaskErrorReport:
    """Compare two simulation reports task by task (measured vs predicted)."""
    if measured.num_tasks != predicted.num_tasks:
        raise ReproError(
            f"reports have different task counts: {measured.num_tasks} vs "
            f"{predicted.num_tasks}"
        )
    return TaskErrorReport(
        application_name=measured.application_name or predicted.application_name,
        measured=measured.communication_times(),
        predicted=predicted.communication_times(),
    )
