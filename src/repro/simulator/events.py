"""Application events.

The paper's simulator (§VI.A) represents an application as, for every MPI
task, a *sequence of events*: compute events (a duration of local
computation) and communication events (source task, destination task,
message size).  This module defines those events plus the two control events
needed to reproduce the paper's measurement methodology (the synchronisation
barrier of §IV.B) and blocking receives.

Events are deliberately tiny immutable dataclasses; the execution semantics
live in :mod:`repro.simulator.engine`.

Matching semantics: a send and a receive match when they agree on the
``(source rank, destination rank, tag)`` channel, where a receive may use
:data:`ANY_SOURCE` to accept any sender.  Among several candidates the
engine always picks the *oldest posted* one — MPI's non-overtaking rule —
and a wildcard receive competes with specific ones in that same posted
order (the engine's ``_MatchQueue`` keeps every ``(src, dst, tag)``
bucket in posting order, so the oldest candidate is the first entry of
the channel's bucket or of the wildcard one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..exceptions import TraceError

__all__ = [
    "ANY_SOURCE",
    "ComputeEvent",
    "SendEvent",
    "RecvEvent",
    "BarrierEvent",
    "Event",
    "validate_event",
]

#: wildcard source rank for receive events (MPI_ANY_SOURCE)
ANY_SOURCE = -1


@dataclass(frozen=True)
class ComputeEvent:
    """Local computation.

    Either ``duration`` (seconds) or ``flops`` (floating point operations,
    converted by the engine using the cluster's per-core peak and an
    efficiency factor) must be provided.
    """

    duration: Optional[float] = None
    flops: Optional[float] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.duration is None and self.flops is None:
            raise TraceError("ComputeEvent needs a duration or a flops count")
        if self.duration is not None and self.duration < 0:
            raise TraceError(f"negative compute duration {self.duration}")
        if self.flops is not None and self.flops < 0:
            raise TraceError(f"negative flops count {self.flops}")


@dataclass(frozen=True)
class SendEvent:
    """Blocking send (MPI_Send) of ``size`` bytes to rank ``dst``."""

    dst: int
    size: int
    tag: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.dst < 0:
            raise TraceError(f"invalid destination rank {self.dst}")
        if self.size < 0:
            raise TraceError(f"negative message size {self.size}")


@dataclass(frozen=True)
class RecvEvent:
    """Blocking receive (MPI_Recv) from rank ``src`` (or :data:`ANY_SOURCE`)."""

    src: int = ANY_SOURCE
    size: Optional[int] = None
    tag: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.src < ANY_SOURCE:
            raise TraceError(f"invalid source rank {self.src}")
        if self.size is not None and self.size < 0:
            raise TraceError(f"negative message size {self.size}")

    @property
    def is_any_source(self) -> bool:
        """True for wildcard (``MPI_ANY_SOURCE``) receives."""
        return self.src == ANY_SOURCE


@dataclass(frozen=True)
class BarrierEvent:
    """Synchronisation barrier across all tasks of the application."""

    label: str = ""


Event = Union[ComputeEvent, SendEvent, RecvEvent, BarrierEvent]


def validate_event(event: Event, num_tasks: int, rank: int) -> None:
    """Check an event against the application size; raises :class:`TraceError`."""
    if isinstance(event, SendEvent):
        if event.dst >= num_tasks:
            raise TraceError(
                f"rank {rank} sends to rank {event.dst} but the application has "
                f"only {num_tasks} tasks"
            )
        if event.dst == rank:
            raise TraceError(f"rank {rank} sends to itself")
    elif isinstance(event, RecvEvent):
        if not event.is_any_source and event.src >= num_tasks:
            raise TraceError(
                f"rank {rank} receives from rank {event.src} but the application "
                f"has only {num_tasks} tasks"
            )
        if event.src == rank:
            raise TraceError(f"rank {rank} receives from itself")
    elif isinstance(event, (ComputeEvent, BarrierEvent)):
        return
    else:  # pragma: no cover - defensive
        raise TraceError(f"unknown event type {type(event).__name__}")
