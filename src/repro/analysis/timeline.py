"""Timeline analysis of structured simulation traces.

The end-of-run aggregates (:class:`~repro.simulator.report.SimulationReport`,
the typed stats snapshots) answer "how much happened"; this module answers
"what happened *when*" by consuming the :mod:`repro.trace` record stream of
a run — the ROADMAP's "calendar-level tracing" consumer.

Three views:

* :func:`timeline_summary` — scalar facts of one trace: time span, record
  mix, peak concurrency, background-flow and stall counts;
* :func:`timeline_bins` — the trace bucketed into fixed-width time bins with
  per-bin activation/completion/flush/injection counts and the active
  transfer count at each bin edge (a text-mode Gantt substitute);
* :func:`records_from_trace` — the ``task.event`` records of a trace
  rebuilt as :class:`~repro.simulator.report.EventRecord` rows, so every
  report helper (penalty histograms, per-rank communication times) runs
  off a trace file exactly as it runs off a live report.

All three accept a :class:`~repro.trace.TraceLog` or any iterable of
:class:`~repro.trace.TraceRecord`; empty traces produce empty-but-valid
results (no special-casing needed downstream).

:class:`StreamingTimeline` is the one implementation of the counting: fed
batches of records as a :class:`~repro.trace.StreamingTraceReader`
surfaces them, it keeps the summary counters and the binning input (the
engine behind ``repro trace tail``), and :func:`timeline_summary` and
:func:`timeline_record` feed it a whole trace.  Any split of the feed gives
the same summary and bins (property-tested in
``tests/trace/test_stream.py``).  :func:`timeline_record` bundles summary
plus bins into one plain dict, the single in-memory record that both the
text rendering (:func:`timeline_summary_table`) and the ``--json`` output
of ``repro trace summarize`` are derived from.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import TraceError
from ..simulator.report import EventRecord
from ..trace.records import TraceLog, TraceRecord
from .tables import render_table

__all__ = [
    "timeline_summary",
    "timeline_bins",
    "timeline_record",
    "timeline_summary_table",
    "records_from_trace",
    "StreamingTimeline",
]


def _as_log(trace: Iterable[TraceRecord]) -> TraceLog:
    return trace if isinstance(trace, TraceLog) else TraceLog(trace)


def records_from_trace(trace: Iterable[TraceRecord]) -> List[EventRecord]:
    """Rebuild :class:`EventRecord` rows from a trace's ``task.event`` stream.

    The payload mirrors the report record field-for-field, so a trace file
    is a faithful substitute for the in-memory report — the same helpers
    (``penalty_histogram``, ``communication_time``, ...) apply.
    """
    records: List[EventRecord] = []
    for record in _as_log(trace).records_of("task.event"):
        data = record.data
        penalty = data.get("penalty")
        peer = data.get("peer")
        records.append(EventRecord(
            rank=int(record.subject or 0),
            index=int(data.get("index", len(records))),
            kind=str(data.get("kind", "")),
            start=float(data.get("start", record.time)),
            end=float(data.get("end", record.time)),
            size=int(data.get("size", 0)),
            peer=None if peer is None else int(peer),
            label=str(data.get("label", "")),
            penalty=None if penalty is None else float(penalty),
        ))
    return records


def timeline_summary(trace: Iterable[TraceRecord]) -> Dict[str, Any]:
    """Scalar summary of one trace (empty traces yield zeroed fields)."""
    timeline = StreamingTimeline()
    timeline.feed(trace)
    return timeline.summary()


def _bins_from_events(events: Sequence[Tuple[float, str]],
                      bins: int) -> List[Dict[str, Any]]:
    """The binning core over ``(time, kind)`` pairs.

    Shared verbatim by the batch path (:func:`timeline_bins`) and the
    streaming path (:meth:`StreamingTimeline.bins`) so their outputs cannot
    drift apart.
    """
    if bins < 1:
        # TraceError (a ReproError) so CLI consumers (`repro trace summarize
        # --bins 0`) get the clean error path, not a traceback
        raise TraceError(f"bins must be >= 1, got {bins}")
    if not events:
        return []
    times = [time for time, _ in events]
    t_start, t_end = min(times), max(times)
    width = (t_end - t_start) / bins if t_end > t_start else 0.0
    rows: List[Dict[str, Any]] = [
        {
            "bin": index,
            "t_start": t_start + index * width,
            "t_end": t_start + (index + 1) * width if width else t_end,
            "records": 0,
            "activations": 0,
            "completions": 0,
            "cancellations": 0,
            "flushes": 0,
            "retimings": 0,
            "injections": 0,
            "task_events": 0,
            "active_after": 0,
        }
        for index in range(bins)
    ]
    active = 0
    for time, kind in events:
        if width > 0.0:
            index = min(bins - 1, int((time - t_start) / width))
        else:
            index = bins - 1
        row = rows[index]
        row["records"] += 1
        if kind == "calendar.activate":
            active += 1
            row["activations"] += 1
        elif kind == "calendar.complete":
            active -= 1
            row["completions"] += 1
        elif kind == "calendar.cancel":
            # cancels leave the active set but are NOT completions — the
            # binned table must agree with timeline_summary's split
            active -= 1
            row["cancellations"] += 1
        elif kind == "calendar.flush":
            row["flushes"] += 1
        elif kind == "calendar.retime":
            row["retimings"] += 1
        elif kind.startswith("inject."):
            row["injections"] += 1
        elif kind == "task.event":
            row["task_events"] += 1
        row["active_after"] = active
    # carry the running active count across empty bins
    running = 0
    for row in rows:
        if row["records"] == 0:
            row["active_after"] = running
        running = row["active_after"]
    return rows


def timeline_bins(trace: Iterable[TraceRecord], bins: int = 10) -> List[Dict[str, Any]]:
    """Bucket a trace into ``bins`` equal time windows.

    Each row carries the window bounds, the record count, the calendar
    activity inside it and ``active_after`` — the in-flight transfer count
    at the window's trailing edge.  An empty trace yields no rows.
    """
    return _bins_from_events([(record.time, record.kind) for record in trace], bins)


class StreamingTimeline:
    """Incremental timeline accumulator for live (still-growing) traces.

    :meth:`feed` it each batch a :class:`~repro.trace.StreamingTraceReader`
    poll returns; :meth:`summary` and :meth:`bins` then describe the
    concatenation of every batch so far, exactly as :func:`timeline_summary`
    / :func:`timeline_bins` describe it whole.  Summary counters are updated
    incrementally; binning retains only ``(time, kind)`` pairs (two machine
    words per record instead of a full payload dict).
    """

    def __init__(self) -> None:
        self._events: List[Tuple[float, str]] = []
        self._kinds: "Counter[str]" = Counter()
        self._t_min: Optional[float] = None
        self._t_max: Optional[float] = None
        self._active = 0
        self._peak_active = 0

    def feed(self, records: Iterable[TraceRecord]) -> int:
        """Absorb a batch of records; returns how many were absorbed."""
        count = 0
        for record in records:
            time, kind = record.time, record.kind
            self._events.append((time, kind))
            self._kinds[kind] += 1
            if self._t_min is None or time < self._t_min:
                self._t_min = time
            if self._t_max is None or time > self._t_max:
                self._t_max = time
            if kind == "calendar.activate":
                self._active += 1
                if self._active > self._peak_active:
                    self._peak_active = self._active
            elif kind in ("calendar.complete", "calendar.cancel"):
                self._active -= 1
            count += 1
        return count

    @property
    def records(self) -> int:
        return len(self._events)

    def summary(self) -> Dict[str, Any]:
        """Same shape (and values) as :func:`timeline_summary`."""
        kinds = self._kinds
        return {
            "records": len(self._events),
            "t_start": self._t_min if self._t_min is not None else 0.0,
            "t_end": self._t_max if self._t_max is not None else 0.0,
            "duration": (self._t_max - self._t_min)
                        if self._t_min is not None else 0.0,
            "steps": kinds.get("step", 0),
            "activations": kinds.get("calendar.activate", 0),
            "completions": kinds.get("calendar.complete", 0),
            "cancellations": kinds.get("calendar.cancel", 0),
            "retimings": kinds.get("calendar.retime", 0),
            "flushes": kinds.get("calendar.flush", 0),
            "reprices": kinds.get("calendar.reprice", 0),
            "compactions": kinds.get("calendar.compaction", 0),
            "stalls": kinds.get("calendar.stall", 0),
            "injector_events": kinds.get("inject.apply", 0),
            "background_flows": kinds.get("inject.flow_start", 0),
            "task_events": kinds.get("task.event", 0),
            "peak_active_transfers": self._peak_active,
            "kinds": dict(sorted(kinds.items())),
        }

    def bins(self, bins: int = 10) -> List[Dict[str, Any]]:
        """Same rows :func:`timeline_bins` yields on the records so far."""
        return _bins_from_events(self._events, bins)

    def record(self, bins: int = 10) -> Dict[str, Any]:
        """The :func:`timeline_record` bundle of the records so far."""
        return {"summary": self.summary(), "bins": self.bins(bins)}


def timeline_record(trace: Iterable[TraceRecord], bins: int = 10) -> Dict[str, Any]:
    """One JSON-serialisable bundle: ``{"summary": ..., "bins": [...]}``.

    The single in-memory record both output paths of ``repro trace
    summarize`` are rendered from — :func:`timeline_summary_table` for the
    text view, ``json.dumps`` of this dict for ``--json`` — so the two can
    never disagree.
    """
    timeline = StreamingTimeline()
    timeline.feed(trace)
    return timeline.record(bins)


def timeline_summary_table(trace: Optional[Iterable[TraceRecord]] = None,
                           bins: int = 10, title: Optional[str] = None,
                           record: Optional[Dict[str, Any]] = None) -> str:
    """Paper-style text rendering: summary header plus the binned timeline.

    Renders either a trace (computing the bundle) or a precomputed
    :func:`timeline_record` bundle passed as ``record``.
    """
    if record is None:
        if trace is None:
            raise TraceError("timeline_summary_table needs a trace or a record")
        record = timeline_record(trace, bins=bins)
    summary = record["summary"]
    header = (
        f"records: {summary['records']}  span: "
        f"[{summary['t_start']:.6f}s, {summary['t_end']:.6f}s]  "
        f"steps: {summary['steps']}  activations: {summary['activations']}  "
        f"completions: {summary['completions']}  "
        f"retimings: {summary['retimings']}  "
        f"bg flows: {summary['background_flows']}  "
        f"peak active: {summary['peak_active_transfers']}"
    )
    rows = [
        [
            f"[{row['t_start']:.4f}, {row['t_end']:.4f})",
            row["records"], row["activations"], row["completions"],
            row["cancellations"], row["flushes"], row["retimings"],
            row["injections"], row["task_events"], row["active_after"],
        ]
        for row in record["bins"]
    ]
    table = render_table(
        ["window [s]", "records", "act", "done", "cancel", "flush", "retime",
         "inject", "events", "active"],
        rows,
        title=title or f"trace timeline ({summary['records']} records)",
    )
    return header + "\n\n" + table
