"""Live campaign progress from the per-scenario trace files.

A traced campaign writes one JSONL file per application scenario
(``<trace_dir>/<scenario_id>.jsonl``) *while the scenarios run*.
:class:`CampaignProgress` tails every file with a
:class:`~repro.trace.StreamingTraceReader` and folds what it sees into a
per-scenario :class:`ScenarioProgress`: records seen, task completion
(``task.state`` records with status ``"done"`` against the task count the
``run.meta`` header announces), and the latest ``metrics.sample`` payload
when the runner was started with ``metrics_every > 0``.  ``repro campaign
--progress`` runs the campaign on its own thread, polls this from the main
thread and prints :meth:`~CampaignProgress.format_line` between poll
intervals.

Purely observational: the readers only ever *read* the trace files the
campaign is writing, so polling cannot perturb the runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..exceptions import TraceError
from ..trace.records import TraceRecord
from ..trace.stream import StreamingTraceReader

__all__ = ["ScenarioProgress", "CampaignProgress"]


@dataclass
class ScenarioProgress:
    """What the trace of one scenario has revealed so far."""

    scenario: str
    records: int = 0
    #: task count announced by the run.meta header (None until seen)
    tasks_total: Optional[int] = None
    #: ranks whose latest task.state is "done"
    tasks_done: int = 0
    started: bool = False
    #: payload of the most recent metrics.sample record (empty = none yet)
    sample: Dict[str, Any] = field(default_factory=dict)
    _done_ranks: set = field(default_factory=set, repr=False)

    @property
    def complete(self) -> bool:
        """Every announced task has reached the ``done`` state."""
        return (self.tasks_total is not None and self.tasks_total > 0
                and self.tasks_done >= self.tasks_total)

    def feed(self, records: Sequence[TraceRecord]) -> None:
        for record in records:
            self.records += 1
            self.started = True
            if record.kind == "task.state":
                if record.data.get("status") == "done":
                    self._done_ranks.add(record.subject)
                    self.tasks_done = len(self._done_ranks)
            elif record.kind == "run.meta":
                tasks = record.data.get("tasks")
                if tasks is not None:
                    self.tasks_total = int(tasks)
            elif record.kind == "metrics.sample":
                self.sample = dict(record.data)


class CampaignProgress:
    """Tail every per-scenario trace of a running campaign.

    Construct with the runner's :meth:`~repro.campaign.CampaignRunner.
    trace_paths` *before* starting the campaign (the files need not exist
    yet), then :meth:`poll` periodically.
    """

    def __init__(self, trace_paths: Sequence[Union[str, Path]]) -> None:
        self.scenarios: List[ScenarioProgress] = []
        self._readers: List[StreamingTraceReader] = []
        for path in trace_paths:
            path = Path(path)
            self._readers.append(StreamingTraceReader(path))
            self.scenarios.append(ScenarioProgress(scenario=path.stem))

    def poll(self) -> int:
        """Drain every reader; returns how many new records were absorbed.

        A scenario whose trace turns unreadable mid-campaign (rotated,
        truncated) stops advancing but never kills the watcher — progress
        reporting must not take the campaign down.
        """
        absorbed = 0
        for reader, progress in zip(self._readers, self.scenarios):
            try:
                records = reader.poll()
            except TraceError:
                continue
            if records:
                progress.feed(records)
                absorbed += len(records)
        return absorbed

    # ------------------------------------------------------------------ views
    @property
    def total_records(self) -> int:
        return sum(progress.records for progress in self.scenarios)

    @property
    def completed(self) -> int:
        return sum(1 for progress in self.scenarios if progress.complete)

    def rollup(self) -> Dict[str, Any]:
        """One flat summary dict (the ``--progress`` machine view)."""
        tasks_done = sum(progress.tasks_done for progress in self.scenarios)
        tasks_total = sum(progress.tasks_total or 0 for progress in self.scenarios)
        return {
            "scenarios": len(self.scenarios),
            "started": sum(1 for p in self.scenarios if p.started),
            "completed": self.completed,
            "records": self.total_records,
            "tasks_done": tasks_done,
            "tasks_total": tasks_total,
        }

    def format_line(self) -> str:
        """The one-line progress report ``repro campaign --progress`` prints."""
        rollup = self.rollup()
        line = (
            f"progress: {rollup['completed']}/{rollup['scenarios']} scenarios "
            f"complete | records: {rollup['records']} | "
            f"tasks: {rollup['tasks_done']}/{rollup['tasks_total']}"
        )
        samples = [p.sample for p in self.scenarios if p.sample]
        if samples:
            flushes = sum(s.get("calendar.flushes", 0) for s in samples)
            flush_s = sum(s.get("calendar.flush_s.total", 0.0) for s in samples)
            line += (f" | flushes: {int(flushes)}"
                     f" | flush time: {flush_s * 1000.0:.1f}ms")
        return line
