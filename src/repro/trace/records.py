"""Trace records and the in-memory trace log.

See the package docstring (:mod:`repro.trace`) for the schema.  This module
is deliberately dependency-free (no simulator imports) so every layer of the
stack can import it without cycles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
    overload,
)

if TYPE_CHECKING:
    from .sinks import TraceSink

from ..exceptions import TraceError

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "KNOWN_KINDS",
    "TraceRecord",
    "TraceLog",
    "emit_inject_apply",
]

#: the container format tag written to JSONL headers
TRACE_FORMAT = "repro-trace"
#: schema version of the record vocabulary below
TRACE_VERSION = 1

#: every record kind of schema version 1 (the round-trip tests iterate this)
KNOWN_KINDS: Tuple[str, ...] = (
    "run.meta",
    "calendar.activate",
    "calendar.complete",
    "calendar.cancel",
    "calendar.retime",
    "calendar.flush",
    "calendar.reprice",
    "calendar.compaction",
    "calendar.stall",
    "calendar.stall_retry",
    "step",
    "task.state",
    "task.event",
    "inject.apply",
    "inject.flow_start",
    "inject.flow_end",
    "inject.rate_scale_on",
    "inject.rate_scale_off",
    "inject.compute_scale_on",
    "inject.compute_scale_off",
    "inject.reprice",
    "app.meta",
    "app.compute",
    "app.send",
    "app.recv",
    "app.barrier",
    "metrics.sample",
)


@dataclass(slots=True)
class TraceRecord:
    """One structured trace event: time / kind / subject / payload.

    Slotted and *not* frozen: record construction sits on the simulation
    hot path (one record per calendar state change), and a frozen dataclass
    costs about 2× per instantiation (``object.__setattr__``).  Treat
    records as immutable by convention — sinks and logs never mutate them.
    """

    time: float
    kind: str
    subject: Optional[Hashable] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the JSONL line shape, minus the newline)."""
        out: Dict[str, Any] = {"t": self.time, "kind": self.kind}
        if self.subject is not None:
            out["subject"] = self.subject
        if self.data:
            out["data"] = dict(self.data)
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "TraceRecord":
        if not isinstance(raw, dict) or "kind" not in raw:
            raise TraceError(f"malformed trace record {raw!r}")
        try:
            time = float(raw.get("t", 0.0))
        except (TypeError, ValueError) as exc:
            raise TraceError(f"malformed trace record time in {raw!r}") from exc
        data = raw.get("data", {})
        if not isinstance(data, dict):
            raise TraceError(f"trace record data must be a mapping, got {data!r}")
        return cls(time=time, kind=str(raw["kind"]), subject=raw.get("subject"),
                   data=data)


def emit_inject_apply(trace: "TraceSink", now: float, injector: object,
                      index: int) -> None:
    """Emit the ``inject.apply`` record for a firing injector.

    The one emission shape shared by the engine pre-loop, the engine main
    loop and the fluid loop — callers guard with ``if trace is not None``.
    """
    trace.emit(TraceRecord(now, "inject.apply",
                           getattr(injector, "name", type(injector).__name__),
                           {"index": index}))


class TraceLog:
    """An ordered collection of trace records with filtering helpers.

    The in-memory twin of a JSONL trace file: what
    :func:`repro.trace.read_trace_log` returns and what the analysis layer
    (:mod:`repro.analysis.timeline`) consumes.
    """

    def __init__(self, records: Iterable[TraceRecord] = (),
                 version: int = TRACE_VERSION) -> None:
        self.records: List[TraceRecord] = list(records)
        self.version = int(version)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @overload
    def __getitem__(self, index: int) -> TraceRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[TraceRecord]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[TraceRecord, List[TraceRecord]]:
        return self.records[index]

    # --------------------------------------------------------------- queries
    def kinds(self) -> "Counter[str]":
        """Record count per kind."""
        return Counter(record.kind for record in self.records)

    def records_of(self, *kinds: str) -> List[TraceRecord]:
        """Records whose kind is in ``kinds`` (or has one as a dotted prefix).

        ``records_of("calendar")`` returns every ``calendar.*`` record;
        ``records_of("calendar.flush")`` only the flushes.
        """
        wanted = tuple(kinds)
        return [
            record for record in self.records
            if any(record.kind == kind or record.kind.startswith(kind + ".")
                   for kind in wanted)
        ]

    def subjects(self, kind: Optional[str] = None) -> List[Hashable]:
        """Distinct subjects, in first-appearance order."""
        seen: Dict[Hashable, None] = {}
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            if record.subject is not None and record.subject not in seen:
                seen[record.subject] = None
        return list(seen)

    def between(self, start: float, end: float) -> "TraceLog":
        """Records with ``start <= time < end`` (the "what happened at t=X" cut)."""
        return TraceLog(
            (r for r in self.records if start <= r.time < end),
            version=self.version,
        )

    @property
    def duration(self) -> float:
        """Time span covered by the records (0.0 for an empty trace)."""
        if not self.records:
            return 0.0
        times = [record.time for record in self.records]
        return max(times) - min(times)

    def meta(self) -> Dict[str, Any]:
        """Payload of the first ``run.meta`` record (empty dict when absent)."""
        for record in self.records:
            if record.kind == "run.meta":
                return dict(record.data)
        return {}
