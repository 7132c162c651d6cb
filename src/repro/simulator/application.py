"""Applications as per-task event sequences.

An :class:`Application` is the first input of the paper's simulator: "one or
more application[s] represented by a sequence of events" per task.
Applications are built programmatically, generated by the workload
generators (:mod:`repro.workloads`) or loaded from MPE-like traces
(:mod:`repro.workloads.traces`).

An application is mutable while it is built and immutable once frozen:
:meth:`Application.freeze` validates it once and turns every rank's events
into a tuple, after which every mutator raises
:class:`~repro.exceptions.TraceError`.  ``Simulator.run`` freezes the
application it runs, so an application is validated once however often it
runs, and a frozen one can be shared: the campaign's build memo
(:meth:`repro.campaign.spec.ScenarioSpec.build_application`) hands the same
object to every scenario that asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from ..exceptions import TraceError
from .events import (
    ANY_SOURCE,
    BarrierEvent,
    ComputeEvent,
    Event,
    RecvEvent,
    SendEvent,
    validate_event,
)

__all__ = ["TaskTrace", "Application"]


@dataclass
class TaskTrace:
    """Ordered sequence of events executed by one MPI task.

    ``events`` is a list while the trace is built and a tuple once its
    application is frozen; a frozen trace rejects :meth:`append` and
    :meth:`extend`.
    """

    rank: int
    events: Union[List[Event], Tuple[Event, ...]] = field(default_factory=list)

    def _building(self) -> List[Event]:
        events = self.events
        if isinstance(events, tuple):
            raise TraceError(f"rank {self.rank}'s trace is frozen: its application "
                             f"was frozen or has run")
        return events

    def append(self, event: Event) -> "TaskTrace":
        self._building().append(event)
        return self

    def extend(self, events: Iterable[Event]) -> "TaskTrace":
        self._building().extend(events)
        return self

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # ------------------------------------------------------------- statistics
    @property
    def num_sends(self) -> int:
        return sum(1 for e in self.events if isinstance(e, SendEvent))

    @property
    def num_recvs(self) -> int:
        return sum(1 for e in self.events if isinstance(e, RecvEvent))

    @property
    def bytes_sent(self) -> int:
        return sum(e.size for e in self.events if isinstance(e, SendEvent))

    @property
    def compute_seconds(self) -> float:
        return sum(
            e.duration for e in self.events
            if isinstance(e, ComputeEvent) and e.duration is not None
        )


class Application:
    """A set of task traces, one per MPI rank 0 … num_tasks-1."""

    def __init__(self, num_tasks: int, name: str = "") -> None:
        if num_tasks < 1:
            raise TraceError(f"an application needs at least one task, got {num_tasks}")
        self.name = name
        self.num_tasks = num_tasks
        self._traces: Dict[int, TaskTrace] = {rank: TaskTrace(rank) for rank in range(num_tasks)}
        self._frozen = False

    # ----------------------------------------------------------------- access
    def trace(self, rank: int) -> TaskTrace:
        if rank not in self._traces:
            raise TraceError(f"rank {rank} outside application of {self.num_tasks} tasks")
        return self._traces[rank]

    def __getitem__(self, rank: int) -> TaskTrace:
        return self.trace(rank)

    def __iter__(self):
        return (self._traces[rank] for rank in range(self.num_tasks))

    @property
    def traces(self) -> Tuple[TaskTrace, ...]:
        return tuple(self._traces[rank] for rank in range(self.num_tasks))

    @property
    def num_events(self) -> int:
        return sum(len(trace) for trace in self._traces.values())

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` succeeded (every trace is a tuple)."""
        return self._frozen

    def freeze(self) -> "Application":
        """Validate the whole application once and make it immutable.

        Every rank's events become a tuple, and from then on every mutator
        (``add_*``, :meth:`TaskTrace.append`, :meth:`TaskTrace.extend`)
        raises :class:`TraceError`.  Idempotent; returns ``self``.  An
        invalid application raises here and stays unfrozen.
        """
        if not self._frozen:
            self.validate()
            for trace in self._traces.values():
                trace.events = tuple(trace.events)
            self._frozen = True
        return self

    # ------------------------------------------------------------------ build
    def add_event(self, rank: int, event: Event) -> "Application":
        """Append one event to the trace of ``rank`` (validated immediately)."""
        validate_event(event, self.num_tasks, rank)
        self.trace(rank).append(event)
        return self

    def add_compute(self, rank: int, duration: float | None = None,
                    flops: float | None = None, label: str = "") -> "Application":
        return self.add_event(rank, ComputeEvent(duration=duration, flops=flops, label=label))

    def add_send(self, rank: int, dst: int, size: int, tag: int = 0,
                 label: str = "") -> "Application":
        return self.add_event(rank, SendEvent(dst=dst, size=size, tag=tag, label=label))

    def add_recv(self, rank: int, src: int = ANY_SOURCE, size: int | None = None,
                 tag: int = 0, label: str = "") -> "Application":
        return self.add_event(rank, RecvEvent(src=src, size=size, tag=tag, label=label))

    def add_barrier(self, label: str = "") -> "Application":
        """Append a barrier to every task (barriers are global)."""
        for rank in range(self.num_tasks):
            self.trace(rank).append(BarrierEvent(label=label))
        return self

    def add_pairwise_exchange(self, src: int, dst: int, size: int, tag: int = 0,
                              label: str = "") -> "Application":
        """Convenience: a matched Send on ``src`` and Recv on ``dst``."""
        self.add_send(src, dst, size, tag=tag, label=label)
        self.add_recv(dst, src, size, tag=tag, label=label)
        return self

    @classmethod
    def from_events(cls, events_per_rank: Sequence[Sequence[Event]], name: str = "") -> "Application":
        """Build an application from one event list per rank."""
        app = cls(num_tasks=len(events_per_rank), name=name)
        for rank, events in enumerate(events_per_rank):
            for event in events:
                app.add_event(rank, event)
        return app

    # -------------------------------------------------------------- validation
    def validate(self) -> None:
        """Structural validation: event sanity and globally matched sends/recvs.

        The check is conservative: it verifies that, per (src, dst, tag)
        channel, there are at least as many sends as receives expecting that
        source, and that the wildcard receives of each (rank, tag) are
        covered by the sends towards it that no explicit receive claims.
        That catches the common trace-generation bugs without simulating,
        in time linear in the number of events.
        """
        sends: Dict[Tuple[int, int, int], int] = {}
        recvs: Dict[Tuple[int, int, int], int] = {}
        wildcards: Dict[Tuple[int, int], int] = {}
        for rank in range(self.num_tasks):
            for event in self.trace(rank):
                validate_event(event, self.num_tasks, rank)
                if isinstance(event, SendEvent):
                    sends[(rank, event.dst, event.tag)] = sends.get((rank, event.dst, event.tag), 0) + 1
                elif isinstance(event, RecvEvent):
                    if event.src == ANY_SOURCE:
                        wildcards[(rank, event.tag)] = wildcards.get((rank, event.tag), 0) + 1
                    else:
                        recvs[(event.src, rank, event.tag)] = recvs.get((event.src, rank, event.tag), 0) + 1

        for key, count in recvs.items():
            if sends.get(key, 0) < count:
                raise TraceError(
                    f"application {self.name!r}: {count} receives on channel {key} "
                    f"but only {sends.get(key, 0)} matching sends"
                )
        if not wildcards:
            return
        # per (dst, tag): the sends towards it that no explicit receive claims,
        # totalled once over the channels
        unclaimed: Dict[Tuple[int, int], int] = {}
        for (_, dst, tag), count in sends.items():
            unclaimed[(dst, tag)] = unclaimed.get((dst, tag), 0) + count
        for (_, dst, tag), count in recvs.items():
            unclaimed[(dst, tag)] -= count
        # wildcard receives: total sends towards the rank must cover them
        for (rank, tag), count in wildcards.items():
            unmatched = unclaimed.get((rank, tag), 0)
            if unmatched < count:
                raise TraceError(
                    f"application {self.name!r}: rank {rank} posts {count} wildcard "
                    f"receives (tag {tag}) but only {unmatched} unmatched sends exist"
                )

    # ------------------------------------------------------------- statistics
    @property
    def total_bytes(self) -> int:
        return sum(trace.bytes_sent for trace in self)

    @property
    def total_messages(self) -> int:
        return sum(trace.num_sends for trace in self)

    def describe(self) -> str:
        lines = [f"Application {self.name or '(unnamed)'}: {self.num_tasks} tasks"]
        lines.append(f"  messages : {self.total_messages}")
        lines.append(f"  volume   : {self.total_bytes} bytes")
        for trace in self:
            lines.append(
                f"  rank {trace.rank}: {len(trace)} events "
                f"({trace.num_sends} sends, {trace.num_recvs} recvs, "
                f"{trace.compute_seconds:.3f} s compute)"
            )
        return "\n".join(lines)
