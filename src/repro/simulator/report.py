"""Simulation reports.

The paper's simulator outputs, "for each task, the duration of all events and
total time, the kind of conflicts, the average penalty, the size of
communication etc." (§VI.A).  :class:`SimulationReport` carries exactly those
quantities; :mod:`repro.analysis` turns pairs of reports (predicted vs
measured) into the error tables of Figures 7, 8 and 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..units import format_size, format_time

__all__ = ["EventRecord", "SimulationReport"]


class EventRecord(NamedTuple):
    """Timing record of one executed event.

    An immutable tuple type: the engine builds one per executed event, so
    construction cost is per-event cost.  The engine therefore builds it as
    ``tuple.__new__(EventRecord, (rank, index, kind, start, end, size, peer,
    label, penalty))``, every field given in declaration order, which skips
    the generated ``__new__`` and its argument parsing; everything else may
    build records positionally or by keyword.  Fields are read by name;
    records compare and hash by value and can be rebuilt by keyword
    (:func:`repro.analysis.timeline.records_from_trace`).
    """

    rank: int
    index: int
    kind: str                      # "compute" | "send" | "recv" | "barrier"
    start: float
    end: float
    size: int = 0
    peer: Optional[int] = None     # destination (send) or source (recv) rank
    label: str = ""
    #: observed penalty of a send (duration / contention-free duration)
    penalty: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _total_duration(records: Iterable[EventRecord], kind: str) -> float:
    """Sum of the durations of the ``kind`` records, in record order.

    The same ``sum(..., 0.0)`` over the same durations in the same order as
    the per-rank methods, so the totals are equal bit for bit; a running
    ``+=`` would not be on Python 3.12, whose float ``sum`` is compensated.
    """
    return sum((r.duration for r in records if r.kind == kind), 0.0)


@dataclass
class SimulationReport:
    """Full outcome of one simulation run."""

    application_name: str
    model_name: str
    placement_policy: str
    num_tasks: int
    records: List[EventRecord] = field(default_factory=list)
    finish_time_per_task: Dict[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------ aggregates
    @property
    def total_time(self) -> float:
        """Completion time of the whole application (makespan)."""
        return max(self.finish_time_per_task.values(), default=0.0)

    def records_for(self, rank: int, kind: str | None = None) -> List[EventRecord]:
        return [
            r for r in self.records
            if r.rank == rank and (kind is None or r.kind == kind)
        ]

    def task_time(self, rank: int) -> float:
        return self.finish_time_per_task.get(rank, 0.0)

    def communication_time(self, rank: int) -> float:
        """Sum of the durations of the send events of ``rank``.

        This matches the paper's measurement methodology: "Measured time is
        done at the source task, starting before the MPI send and ending when
        the MPI send method terminates."  A rank with no send records (or a
        rank outside the task range) contributes ``0.0`` — a float, so the
        no-communication case aggregates like every other.
        """
        return sum((r.duration for r in self.records_for(rank, "send")), 0.0)

    def receive_time(self, rank: int) -> float:
        return sum((r.duration for r in self.records_for(rank, "recv")), 0.0)

    def compute_time(self, rank: int) -> float:
        return sum((r.duration for r in self.records_for(rank, "compute")), 0.0)

    def communication_times(self) -> Dict[int, float]:
        """Per-task sum of send durations (the S_m / S_p quantities of §VI.B).

        One pass over the records; each rank's value is
        :meth:`communication_time`, bit for bit.
        """
        by_rank = self._records_by_rank()
        return {rank: _total_duration(by_rank.get(rank, ()), "send")
                for rank in range(self.num_tasks)}

    def _records_by_rank(self) -> Dict[int, List[EventRecord]]:
        """Every rank's records, in record order, grouped in one pass."""
        by_rank: Dict[int, List[EventRecord]] = {}
        for record in self.records:
            by_rank.setdefault(record.rank, []).append(record)
        return by_rank

    def bytes_sent(self, rank: int) -> int:
        return sum(r.size for r in self.records_for(rank, "send"))

    @property
    def send_records(self) -> List[EventRecord]:
        return [r for r in self.records if r.kind == "send"]

    @property
    def average_penalty(self) -> float:
        """Mean observed penalty over all sends (1.0 means no contention)."""
        penalties = [r.penalty for r in self.send_records if r.penalty is not None]
        if not penalties:
            return 1.0
        return float(np.mean(penalties))

    @property
    def max_penalty(self) -> float:
        penalties = [r.penalty for r in self.send_records if r.penalty is not None]
        return float(max(penalties)) if penalties else 1.0

    def penalty_histogram(self, bins: int = 10) -> Tuple[np.ndarray, np.ndarray]:
        """Histogram (counts, bin edges) of observed send penalties.

        With no penalised sends (empty report, compute-only workload, or a
        trace-backed record set without penalties) the counts are all zero
        over a nominal ``[1.0, 2.0]`` range — ``bins + 1`` edges either way,
        so downstream plotting never special-cases the empty report.
        ``bins`` must be at least 1 (validated here so the empty path and
        the numpy path reject it identically).
        """
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        penalties = np.array(
            [r.penalty for r in self.send_records if r.penalty is not None], dtype=float
        )
        if penalties.size == 0:
            return np.zeros(bins, dtype=int), np.linspace(1.0, 2.0, bins + 1)
        return np.histogram(penalties, bins=bins)

    # ------------------------------------------------------------- reporting
    def per_task_table(self) -> str:
        """Paper-style per-task summary table."""
        header = (
            f"{'task':>5s} {'total [s]':>12s} {'comm [s]':>12s} {'recv [s]':>12s} "
            f"{'compute [s]':>12s} {'sent':>10s}"
        )
        lines = [header, "-" * len(header)]
        by_rank = self._records_by_rank()
        for rank in range(self.num_tasks):
            records = by_rank.get(rank, ())
            sent = sum(r.size for r in records if r.kind == "send")
            lines.append(
                f"{rank:>5d} {self.task_time(rank):>12.4f} "
                f"{_total_duration(records, 'send'):>12.4f} "
                f"{_total_duration(records, 'recv'):>12.4f} "
                f"{_total_duration(records, 'compute'):>12.4f} "
                f"{format_size(sent):>10s}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        return (
            f"SimulationReport[{self.application_name} | {self.model_name} | "
            f"{self.placement_policy}]: {self.num_tasks} tasks, "
            f"total time {format_time(self.total_time)}, "
            f"average penalty {self.average_penalty:.2f}, "
            f"max penalty {self.max_penalty:.2f}"
        )
