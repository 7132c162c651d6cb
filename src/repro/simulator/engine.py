"""Execution engine.

The engine executes an application (one event stream per MPI task placed on
cluster nodes) above a fluid transfer layer whose instantaneous rates come
from a pluggable *rate provider* — either a contention model (prediction) or
the calibrated cluster emulator (measurement).  It implements the MPI timing
semantics the paper relies on:

* blocking sends measured at the source, "starting before the MPI send and
  ending when the MPI send method terminates";
* an eager protocol for small messages and a rendezvous protocol for large
  ones (a rendezvous send cannot transfer data before the matching receive is
  posted);
* ``MPI_ANY_SOURCE`` receives;
* global synchronisation barriers;
* compute events expressed either in seconds or in floating point operations.

The engine is an **event-calendar** fluid discrete-event simulation: compute
completions and transfer-readiness times live in a timeline heap, predicted
transfer completions live in the shared
:class:`~repro.network.fluid.TransferCalendar`, and every step advances the
clock to the earliest calendar entry.  Rate refreshes follow the delta
contract of :mod:`repro.network.fluid`: the engine hands the provider only
the flow arrivals and departures since the previous step, the provider
returns the rates of exactly the transfers it re-priced (with the default
:class:`~repro.simulator.providers.ModelRateProvider`, the membership of
the conflict components the delta dirtied), and only transfers whose rate
*value* changed have their remaining bytes integrated and their completion
re-timed.  Per-step work therefore scales with the state change, not with
the number of in-flight transfers.  Setting
:attr:`EngineConfig.delta_rates` to ``False`` re-queries the full active
set each step instead (bit-exact with the delta path — property-tested in
``tests/property/test_calendar_engine.py``).

Message matching — pending sends, posted receives, parked eager arrivals
and unclaimed in-flight transfers — is indexed by ``(src, dst, tag)`` with
``MPI_ANY_SOURCE`` wildcard buckets, preserving the posted-order
tie-breaking of the historical linear scans.  Every bucket is a FIFO in
insertion order, and insertion order is the order the scans preferred:
sends, receives and eager arrivals are matched oldest-inserted first, and
an unclaimed transfer is matched by its post time, which is the clock
reading at which ``_post_send`` inserts it — the clock never goes back,
so post times grow with insertion.  The oldest match is therefore the
first entry of a bucket, and a lookup compares at most two of them (the
channel's and the wildcard one) instead of scanning.

Ready queue: no per-step work walks the task list.  Every transition to
READY (send, receive and compute completion, barrier release) goes through
``_make_ready``, which queues the rank in one of two rank-ordered heaps.
The sweep advances tasks in passes of ascending rank, repeated until a
pass finds nothing ready — the visit order of the historical scan over
every task.  While rank ``r`` is being advanced, a rank ``q > r`` that
becomes READY joins the current pass and a rank ``q <= r`` (``r`` itself
included) joins the next one; between sweeps every rank joins the current
pass.  The order in which ranks are advanced decides message matching
(``MPI_ANY_SOURCE``, eager arrivals) and record order, so this invariant is
what keeps the engine bit-exact with the scan (property-tested against it
in ``tests/property/test_ready_queue.py``).  The same transitions keep two
counters: ``_alive`` (tasks not DONE) ends the run and releases a barrier
when every alive task waits at it, and ``_computing`` (COMPUTING tasks)
detects the injector-run deadlock.  Only error reports still list the
tasks.

Timeline: compute completions, transfer-readiness times and injector
events are pushed straight into one heap keyed ``(time, seq)`` and popped
one at a time once due; the keys are unique, so the pop order is the
push-time order of equal timestamps.

Interference injection: :attr:`EngineConfig.injectors` carries
:mod:`repro.simulator.interference` injectors whose events ride the same
timeline heap as computes and readiness transitions.  Injected background
flows join the calendar (and therefore the provider's delta path) like
foreground transfers — they contend for bandwidth in the model and in the
emulator — but are excluded from message matching, task completion and the
report.  The run's injection state is the fluid simulator's
(:class:`~repro.network.fluid.FluidInjectionState`, background flows and
link-capacity scaling) plus the compute-rate windows
(``_EngineInjectionState``).  With no injectors configured every code path
is bit-exact with the pre-injection engine (property-tested in
``tests/property/test_interference_properties.py``).

Tracing: :attr:`EngineConfig.trace` attaches a :mod:`repro.trace` sink; the
engine emits ``step`` boundaries, ``task.state`` / ``task.event`` records and
``inject.*`` events, and hands the sink to its calendar for the
``calendar.*`` stream.  ``trace=None`` (the default) is bit-exact with the
untraced engine (``tests/property/test_trace_properties.py``).

Counters: :attr:`ExecutionEngine.stats` is the run's :class:`EngineLoopStats`,
a plain dataclass read by attribute; when the run ends its ``calendar``
field holds the run's :class:`~repro.network.fluid.CalendarStats`.  Their
``snapshot()`` dicts serve only as metrics-registry sources.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..cluster.placement import Placement
from ..exceptions import DeadlockError, SimulationError, TraceError
from ..network.fluid import (
    CalendarStats,
    FluidInjectionState,
    Transfer,
    TransferCalendar,
)
from ..network.technologies import NetworkTechnology, get_technology
from ..trace.records import TraceRecord
from ..trace.sinks import TraceSink, active_sink
from ..units import KiB
from .application import Application
from .events import ANY_SOURCE, BarrierEvent, ComputeEvent, Event, RecvEvent, SendEvent
from .report import EventRecord, SimulationReport

__all__ = [
    "EngineConfig",
    "EngineLoopStats",
    "ExecutionEngine",
]


@dataclass(frozen=True)
class EngineConfig:
    """Tunable knobs of the execution engine."""

    #: messages up to this size use the eager protocol (bytes)
    eager_threshold: int = 64 * KiB
    #: fraction of peak FLOP/s actually achieved by compute events given in flops
    compute_efficiency: float = 0.80
    #: peak FLOP/s per core used when the placement has no cluster attached
    default_flops_per_core: float = 4.0e9
    #: hard cap on engine iterations per simulated event (safety net)
    iteration_factor: int = 50
    #: use the provider's delta ``update`` API (when available); ``False``
    #: re-queries the full active set every step — same results, O(active)
    #: per-step work (kept for verification and benchmarking)
    delta_rates: bool = True
    #: interference injectors (:mod:`repro.simulator.interference`) whose
    #: events ride the timeline heap; empty = bit-exact clean-fabric run
    injectors: Tuple = ()
    #: optional :class:`repro.trace.TraceSink` the engine (and its calendar)
    #: emits structured per-event records through; ``None`` = untraced,
    #: bit-exact with the pre-trace engine
    trace: Optional[TraceSink] = field(default=None, compare=False, repr=False)
    #: optional :class:`repro.obs.MetricsRegistry`; attaching one registers
    #: the engine/calendar/provider stats as live sources and times every
    #: call of the hot phases (ready-task sweep, due-event drain, calendar
    #: flush, dirty pricing, water-fill).  ``None`` = unmetered, bit-exact
    #: (one pointer test per site, like ``trace``)
    metrics: Optional[object] = field(default=None, compare=False, repr=False)
    #: emit one ``metrics.sample`` trace record every this many steps (needs
    #: both ``metrics`` and ``trace`` attached); 0 disables sampling.  The
    #: samples carry wall-clock timer values, so a sampled trace is not
    #: byte-reproducible across runs — the simulated results still are
    metrics_sample_every: int = 256

    def __post_init__(self) -> None:
        if self.eager_threshold < 0:
            raise SimulationError("eager_threshold must be non-negative")
        if not (0 < self.compute_efficiency <= 1):
            raise SimulationError("compute_efficiency must be in (0, 1]")
        if self.default_flops_per_core <= 0:
            raise SimulationError("default_flops_per_core must be positive")
        if self.metrics_sample_every < 0:
            raise SimulationError("metrics_sample_every must be non-negative")
        object.__setattr__(self, "injectors", tuple(self.injectors))


@dataclass
class EngineLoopStats:
    """Work counters of one :meth:`ExecutionEngine.run` (see the benchmark)."""

    #: main-loop iterations (ready-task sweeps)
    iterations: int = 0
    #: horizon advances (simulation steps)
    steps: int = 0
    #: injector events fired (0 on a clean-fabric run)
    injected_events: int = 0
    #: background flows started by injectors
    background_flows: int = 0
    #: the run's calendar counters (rate_updates, retimed, stale_entries, ...),
    #: set when the run ends
    calendar: CalendarStats = field(default_factory=CalendarStats)

    def snapshot(self) -> Dict[str, int]:
        """The loop counters as a dict: the ``engine`` metrics-registry source.

        The calendar's counters are the ``calendar`` source of their own.
        """
        return {
            "iterations": self.iterations,
            "steps": self.steps,
            "injected_events": self.injected_events,
            "background_flows": self.background_flows,
        }


class _Status(Enum):
    READY = "ready"
    COMPUTING = "computing"
    SENDING = "sending"
    RECEIVING = "receiving"
    BARRIER = "barrier"
    DONE = "done"


@dataclass
class _TaskState:
    rank: int
    program: Iterator
    #: the program's ``send`` (generator programs take resume values);
    #: ``None`` for a plain iterator such as an application's event list
    send: Optional[Callable[[object], Optional[Event]]] = None
    status: _Status = _Status.READY
    resume_value: object = None
    #: end time of the current compute event
    compute_until: float = 0.0
    #: record fields of the event currently being executed
    current_start: float = 0.0
    current_event: Optional[Event] = None
    event_index: int = 0
    finish_time: float = 0.0


@dataclass
class _SendRequest:
    rank: int
    dst: int
    tag: int
    size: int
    posted: float
    label: str = ""
    transfer_id: Optional[int] = None


@dataclass
class _RecvRequest:
    rank: int
    src: int
    tag: int
    posted: float
    label: str = ""


@dataclass
class _InFlight:
    transfer: Transfer
    ready_time: float
    send: _SendRequest
    recv: Optional[_RecvRequest] = None
    #: token of this flight in the unclaimed-transfer index while recv is None
    claim_token: Optional[int] = None


class _MatchQueue:
    """``(src, dst, tag)``-keyed message-matching buckets.

    Replaces the historical linear scans over ``pending_sends`` /
    ``pending_recvs`` / ``arrived`` lists.  Items are stored under their
    channel coordinates; ``src`` may be :data:`ANY_SOURCE` on the stored
    side (a wildcard receive) or on the query side (a receive matching any
    sender).  Every bucket is a FIFO: a dict from insertion token to item,
    whose first key is its oldest item.  :meth:`pop_best` takes the older
    of at most two bucket heads (the channel's and the wildcard one), so
    the posted-order tie-breaking of the scans it replaces is preserved
    exactly, including across the specific and wildcard buckets of one
    channel.
    """

    def __init__(self) -> None:
        #: (src, dst, tag) -> {token: item} for specific-source items
        self._specific: Dict[Tuple[int, int, int], Dict[int, object]] = {}
        #: (dst, tag) -> {token: item} for stored ANY_SOURCE items
        self._any_src: Dict[Tuple[int, int], Dict[int, object]] = {}
        #: (dst, tag) -> {token: item} mirror of every specific item,
        #: consulted by ANY_SOURCE queries
        self._mirror: Dict[Tuple[int, int], Dict[int, object]] = {}
        self._where: Dict[int, Tuple[int, int, int]] = {}
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._where)

    def add(self, src: int, dst: int, tag: int, item: object) -> int:
        """Store ``item`` under its channel; returns a token for :meth:`discard`."""
        token = next(self._seq)
        self._where[token] = (src, dst, tag)
        if src == ANY_SOURCE:
            self._any_src.setdefault((dst, tag), {})[token] = item
        else:
            self._specific.setdefault((src, dst, tag), {})[token] = item
            self._mirror.setdefault((dst, tag), {})[token] = item
        return token

    def discard(self, token: Optional[int]) -> Optional[object]:
        """Remove a stored item by token (no-op when already matched)."""
        if token is None:
            return None
        where = self._where.pop(token, None)
        if where is None:
            return None
        src, dst, tag = where
        if src == ANY_SOURCE:
            bucket = self._any_src[(dst, tag)]
            item = bucket.pop(token)
            if not bucket:
                del self._any_src[(dst, tag)]
        else:
            bucket = self._specific[(src, dst, tag)]
            item = bucket.pop(token)
            if not bucket:
                del self._specific[(src, dst, tag)]
            mirror = self._mirror[(dst, tag)]
            del mirror[token]
            if not mirror:
                del self._mirror[(dst, tag)]
        return item

    def pop_best(self, src: int, dst: int, tag: int) -> Optional[object]:
        """Pop the oldest stored item matching ``(src, dst, tag)``."""
        if src == ANY_SOURCE:
            bucket = self._mirror.get((dst, tag))
        else:
            bucket = self._specific.get((src, dst, tag))
        wildcards = self._any_src.get((dst, tag))
        if bucket is None:
            if wildcards is None:
                return None
            token = next(iter(wildcards))
        else:
            token = next(iter(bucket))
            if wildcards is not None:
                oldest_wildcard = next(iter(wildcards))
                if oldest_wildcard < token:
                    token = oldest_wildcard
        return self.discard(token)


#: timeline entry kinds (computes before readiness on equal timestamps is
#: irrelevant — due entries are drained together and re-ordered explicitly);
#: a kind is also the index of its payloads among a drain's due lists
_COMPUTE = 0
_READY = 1
_INJECT = 2


class _EngineInjectionState(FluidInjectionState):
    """Injection surface of one :meth:`ExecutionEngine.run`.

    The fluid simulator's surface over the engine's calendar — background
    flows and rate scales work exactly as there, and never touch the match
    queues or the task programs — plus compute-rate windows, which stretch
    the compute events that start while they are installed.
    """

    def __init__(self, engine: "ExecutionEngine") -> None:
        cluster = engine.placement.cluster
        if cluster is not None:
            hosts: Tuple[int, ...] = tuple(range(cluster.num_nodes))
        else:
            hosts = tuple(sorted(
                {engine.placement.node(rank) for rank in range(engine.num_tasks)}
            ))
        super().__init__(engine._calendar, hosts, trace=engine._trace)
        #: installed compute-rate scales (handle -> node -> factor)
        self.compute_scales: Dict[int, Callable[[int], float]] = {}
        self._compute_seq = itertools.count()

    def add_compute_scale(self, scale, info=None) -> int:
        handle = next(self._compute_seq)
        if self._trace is not None:
            self._trace.emit(TraceRecord(self.now, "inject.compute_scale_on",
                                         handle, dict(info or {})))
        self.compute_scales[handle] = scale
        return handle

    def remove_compute_scale(self, handle) -> None:
        if self._trace is not None and handle is not None:
            self._trace.emit(TraceRecord(self.now, "inject.compute_scale_off",
                                         handle, {}))
        self.compute_scales.pop(handle, None)

    def compute_factor(self, node: int) -> float:
        """Product of the installed compute-rate scales at ``node``."""
        factor = 1.0
        for scale in self.compute_scales.values():
            factor *= scale(node)
        if factor <= 0.0:
            raise SimulationError(
                f"compute-rate scale at node {node} is not positive ({factor})"
            )
        return factor


class ExecutionEngine:
    """Executes task programs over a fluid transfer layer."""

    EPSILON = 1e-12

    def __init__(
        self,
        programs: Union[Application, Sequence[Iterator], Sequence[Iterable]],
        placement: Placement,
        rate_provider,
        technology: NetworkTechnology | str,
        config: EngineConfig | None = None,
        application_name: str = "",
        model_name: str = "",
    ) -> None:
        if isinstance(technology, str):
            technology = get_technology(technology)
        self.technology = technology
        self.rate_provider = rate_provider
        self.config = config or EngineConfig()
        self.placement = placement
        #: rank -> node, indexed directly: every rank the engine looks up is
        #: a task's own or a send's destination, which SendEvent and
        #: _start_event have already range-checked
        self._node_of_rank = placement.node_of_rank
        cluster = placement.cluster
        flops_per_core = (cluster.node.flops_per_core if cluster is not None
                          else self.config.default_flops_per_core)
        #: achieved FLOP/s of one core, for compute events given in flops
        self._flop_rate = flops_per_core * self.config.compute_efficiency

        if isinstance(programs, Application):
            application_name = application_name or programs.name
            # a frozen application's events are tuples already: no copy
            iterators: List[Iterator] = [iter(tuple(trace.events)) for trace in programs]
            self._num_events_hint = programs.num_events
        else:
            iterators = [iter(p) for p in programs]
            self._num_events_hint = 100 * max(1, len(iterators))
        if len(iterators) != placement.num_tasks:
            raise SimulationError(
                f"{len(iterators)} task programs but the placement has "
                f"{placement.num_tasks} tasks"
            )
        self.num_tasks = len(iterators)
        self.tasks = [_TaskState(rank=r, program=it, send=getattr(it, "send", None))
                      for r, it in enumerate(iterators)]
        # ready queue (see the module docstring): every task starts READY, in
        # the current pass; an ascending list is already a valid heap
        self._ready_now: List[int] = list(range(self.num_tasks))
        self._ready_next: List[int] = []
        #: rank being advanced by the sweep; -1 between sweeps
        self._ready_cursor = -1
        #: tasks not DONE
        self._alive = self.num_tasks
        #: tasks in COMPUTING
        self._computing = 0

        self.application_name = application_name
        self.model_name = model_name

        # runtime state
        self.now = 0.0
        self._transfer_counter = itertools.count()
        self.in_flight: Dict[int, _InFlight] = {}
        #: background flows and scaling windows of the current run
        self._injection: Optional[_EngineInjectionState] = None
        self._sends = _MatchQueue()      # rendezvous sends waiting for a recv
        self._recvs = _MatchQueue()      # posted recvs waiting for a send
        self._arrived = _MatchQueue()    # eager messages waiting for a recv
        self._unclaimed = _MatchQueue()  # in-flight transfers without a recv
        self.barrier_waiting: Dict[int, float] = {}  # rank -> time it reached the barrier
        self.records: List[EventRecord] = []
        # event calendar: computes + transfer readiness in the timeline heap,
        # predicted transfer completions in the shared TransferCalendar
        self._timeline: List[Tuple[float, int, int, int]] = []
        self._timeline_seq = itertools.count()
        self._calendar: Optional[TransferCalendar] = None
        self._trace = active_sink(self.config.trace)
        self._metrics = self.config.metrics
        #: repro.obs phase timer around the due-event drain sweep; one
        #: pointer test per sweep when unmetered (same contract as the
        #: calendar's flush timer)
        self._drain_timer = (self._metrics.timer("timeline.drain_s")
                             if self._metrics is not None else None)
        #: same contract around the ready-task sweep
        self._ready_timer = (self._metrics.timer("engine.ready_s")
                             if self._metrics is not None else None)
        # sampling needs both a sink (to emit through) and a registry (to
        # snapshot); the untraced/unmetered paths keep a single falsy test
        self._sample_every = (
            self.config.metrics_sample_every
            if self._trace is not None and self._metrics is not None else 0
        )
        self.stats = EngineLoopStats()

    # -------------------------------------------------------------- utilities
    def _compute_duration(self, event: ComputeEvent) -> float:
        if event.duration is not None:
            return float(event.duration)
        assert event.flops is not None
        return float(event.flops) / self._flop_rate

    def _base_transfer_time(self, size: int, intra_node: bool) -> float:
        if intra_node:
            return size / self.technology.memory_bandwidth
        return self.technology.latency + size / self.technology.single_stream_bandwidth

    # -------------------------------------------------------- program control
    def _advance_program(self, task: _TaskState) -> Optional[Event]:
        """Pull the next event of a task program, passing back resume values."""
        try:
            if task.resume_value is not None and task.send is not None:
                event = task.send(task.resume_value)
            else:
                event = next(task.program)
        except StopIteration:
            return None
        finally:
            task.resume_value = None
        return event

    def _make_ready(self, task: _TaskState, resume_value: dict) -> None:
        """Mark a blocked task READY and queue it for the ready-task sweep.

        Ranks above the one being advanced join the current pass, the others
        the next pass (between sweeps the cursor is -1: the current pass).
        """
        task.status = _Status.READY
        task.resume_value = resume_value
        rank = task.rank
        heapq.heappush(
            self._ready_now if rank > self._ready_cursor else self._ready_next,
            rank,
        )

    def _finish_task(self, task: _TaskState) -> None:
        task.status = _Status.DONE
        task.finish_time = self.now
        self._alive -= 1
        if self._trace is not None:
            self._trace.emit(TraceRecord(self.now, "task.state", task.rank,
                                         {"status": "done"}))

    # ------------------------------------------------------------ event start
    def _start_event(self, task: _TaskState, event: Event) -> None:
        task.current_event = event
        task.current_start = self.now
        if self._trace is not None:
            self._trace.emit(TraceRecord(self.now, "task.state", task.rank, {
                "status": type(event).__name__.replace("Event", "").lower(),
                "label": getattr(event, "label", ""),
            }))
        if isinstance(event, ComputeEvent):
            duration = self._compute_duration(event)
            injection = self._injection
            if injection.compute_scales:
                # slowdown windows scale the compute *rate* of events that
                # start while the window is open (see NodeSlowdownInjector)
                duration = duration / injection.compute_factor(self._node_of_rank[task.rank])
            task.status = _Status.COMPUTING
            self._computing += 1
            task.compute_until = self.now + duration
            heapq.heappush(
                self._timeline,
                (task.compute_until, next(self._timeline_seq), _COMPUTE, task.rank),
            )
        elif isinstance(event, SendEvent):
            if event.dst == task.rank:
                raise TraceError(f"rank {task.rank} sends to itself")
            if event.dst >= self.num_tasks:
                raise TraceError(f"rank {task.rank} sends to unknown rank {event.dst}")
            task.status = _Status.SENDING
            self._post_send(task, event)
        elif isinstance(event, RecvEvent):
            if event.src == task.rank:
                raise TraceError(f"rank {task.rank} receives from itself")
            task.status = _Status.RECEIVING
            self._post_recv(task, event)
        elif isinstance(event, BarrierEvent):
            task.status = _Status.BARRIER
            self.barrier_waiting[task.rank] = self.now
            self._maybe_release_barrier()
        else:  # pragma: no cover - defensive
            raise TraceError(f"unknown event type {type(event).__name__}")

    # ------------------------------------------------------------- messaging
    def _start_transfer(self, send: _SendRequest, recv: Optional[_RecvRequest]) -> None:
        src_node = self._node_of_rank[send.rank]
        dst_node = self._node_of_rank[send.dst]
        size = send.size + self.technology.mpi_envelope
        tid = next(self._transfer_counter)
        send.transfer_id = tid
        transfer = Transfer(transfer_id=tid, src=src_node, dst=dst_node,
                            size=size, start_time=self.now)
        latency = 0.0 if src_node == dst_node else self.technology.latency
        flight = _InFlight(
            transfer=transfer,
            ready_time=self.now + latency,
            send=send,
            recv=recv,
        )
        self.in_flight[tid] = flight
        if recv is None:
            flight.claim_token = self._unclaimed.add(send.rank, send.dst, send.tag, flight)
        if flight.ready_time <= self.now + self.EPSILON:
            self._calendar.activate(transfer, self.now)
        else:
            heapq.heappush(
                self._timeline, (flight.ready_time, next(self._timeline_seq), _READY, tid)
            )

    def _post_send(self, task: _TaskState, event: SendEvent) -> None:
        request = _SendRequest(
            rank=task.rank, dst=event.dst, tag=event.tag,
            size=event.size, posted=self.now, label=event.label,
        )
        recv = self._recvs.pop_best(task.rank, event.dst, event.tag)
        eager = event.size <= self.config.eager_threshold
        if eager or recv is not None:
            # eager: data leaves immediately whether or not the recv is posted
            self._start_transfer(request, recv)
        else:
            self._sends.add(task.rank, event.dst, event.tag, request)

    def _post_recv(self, task: _TaskState, event: RecvEvent) -> None:
        request = _RecvRequest(
            rank=task.rank,
            src=event.src,
            tag=event.tag,
            posted=self.now,
            label=event.label,
        )
        # 1. a matching eager message already arrived (earliest arrival first)
        send = self._arrived.pop_best(event.src, task.rank, event.tag)
        if send is not None:
            self._complete_recv(task, request, send, completion=self.now)
            return
        # 2. a matching transfer is already in flight without an attached recv
        #    (earliest posted first)
        flight = self._unclaimed.pop_best(event.src, task.rank, event.tag)
        if flight is not None:
            flight.recv = request
            flight.claim_token = None
            return
        # 3. a matching rendezvous send is waiting: start the transfer now
        send = self._sends.pop_best(event.src, task.rank, event.tag)
        if send is not None:
            self._start_transfer(send, request)
            return
        # 4. nothing yet: wait
        self._recvs.add(event.src, task.rank, event.tag, request)

    # ----------------------------------------------------------- completions
    def _record(self, rank: int, kind: str, start: float, end: float, size: int = 0,
                peer: Optional[int] = None, label: str = "",
                penalty: Optional[float] = None) -> None:
        task = self.tasks[rank]
        self.records.append(EventRecord(rank, task.event_index, kind, start, end,
                                        size, peer, label, penalty))
        if self._trace is not None:
            self._trace.emit(TraceRecord(end, "task.event", rank, {
                "kind": kind, "start": start, "end": end, "size": size,
                "peer": peer, "label": label, "penalty": penalty,
                "index": task.event_index,
            }))
        task.event_index += 1

    def _complete_send(self, send: _SendRequest, completion: float) -> None:
        task = self.tasks[send.rank]
        intra = self._node_of_rank[send.rank] == self._node_of_rank[send.dst]
        base = self._base_transfer_time(send.size + self.technology.mpi_envelope, intra)
        duration = completion - send.posted
        penalty = duration / base if base > 0 else 1.0
        self._record(send.rank, "send", send.posted, completion, size=send.size,
                     peer=send.dst, label=send.label, penalty=max(penalty, 0.0))
        self._make_ready(task, {"kind": "send", "dst": send.dst, "duration": duration})

    def _complete_recv(self, task: _TaskState, recv: _RecvRequest, send: _SendRequest,
                       completion: float) -> None:
        self._record(recv.rank, "recv", recv.posted, completion, size=send.size,
                     peer=send.rank, label=recv.label)
        self._make_ready(task, {"kind": "recv", "source": send.rank, "size": send.size,
                                "duration": completion - recv.posted})

    def _complete_transfer(self, tid: int) -> None:
        flight = self.in_flight.pop(tid)
        self._complete_send(flight.send, self.now)
        if flight.recv is not None:
            receiver = self.tasks[flight.recv.rank]
            self._complete_recv(receiver, flight.recv, flight.send, self.now)
        else:
            self._unclaimed.discard(flight.claim_token)
            self._arrived.add(flight.send.rank, flight.send.dst, flight.send.tag,
                              flight.send)

    def _maybe_release_barrier(self) -> None:
        """Release the barrier, in rank order, once every alive task waits at it."""
        waiting = self.barrier_waiting
        if not waiting or len(waiting) != self._alive:
            return
        for rank in sorted(waiting):
            start = waiting.pop(rank)
            task = self.tasks[rank]
            label = ""
            if isinstance(task.current_event, BarrierEvent):
                label = task.current_event.label
            self._record(rank, "barrier", start, self.now, label=label)
            self._make_ready(task, {"kind": "barrier"})

    # ------------------------------------------------------------------- run
    def _process_ready_tasks(self) -> bool:
        # one attribute read and a None test when unmetered; two
        # perf_counter calls when metered (same shape as _complete_due_events)
        timer = self._ready_timer
        if timer is None:
            return self._process_ready_tasks_impl()
        start = perf_counter()
        progressed = self._process_ready_tasks_impl()
        timer.observe(perf_counter() - start)
        return progressed

    def _process_ready_tasks_impl(self) -> bool:
        """Advance every READY task until all are blocked; True if anything ran.

        Pops the current pass in rank order; when it empties, the next pass
        (ranks made READY at or below the cursor) becomes current.
        """
        current = self._ready_now
        if not current:
            return False
        tasks = self.tasks
        pop = heapq.heappop
        while current:
            rank = pop(current)
            self._ready_cursor = rank
            task = tasks[rank]
            event = self._advance_program(task)
            if event is None:
                self._finish_task(task)
                self._maybe_release_barrier()
            else:
                self._start_event(task, event)
            if not current:
                # pass complete: the next one starts again from rank 0
                self._ready_now, self._ready_next = self._ready_next, current
                current = self._ready_now
                self._ready_cursor = -1
        return True

    def _next_horizon(self) -> float:
        """Earliest calendar entry (timeline or predicted completion)."""
        if (self.config.injectors and not self.in_flight and self._alive
                and not self._computing):
            # only injector runs need this extra check: _INJECT/background
            # entries keep the timeline non-empty, yet with no transfer in
            # flight and nobody computing they can never unblock a task.
            # (Injector-free runs reach the empty-`times` branch below.)
            blocked = [(task.rank, task.status.value) for task in self.tasks
                       if task.status is not _Status.DONE]
            raise DeadlockError(
                f"no task can make progress at t={self.now:.6f}s; "
                f"blocked tasks: {blocked}",
                blocked_tasks=[rank for rank, _ in blocked],
            )
        horizon = self._timeline[0][0] if self._timeline else None
        completion = self._calendar.next_time()
        if completion is not None and (horizon is None or completion < horizon):
            horizon = completion
        if horizon is None:
            stalled = self._calendar.stalled_ids()
            if stalled:
                # distinguishes a zero-rate starvation (a provider that never
                # re-reported these transfers) from a true MPI deadlock
                raise SimulationError(
                    f"simulation stalled at t={self.now:.6f}s: transfers "
                    f"{list(stalled)!r} have zero rate and no pending event "
                    f"can re-rate them"
                )
            blocked = [(task.rank, task.status.value) for task in self.tasks
                       if task.status is not _Status.DONE]
            raise DeadlockError(
                f"no task can make progress at t={self.now:.6f}s; "
                f"blocked tasks: {blocked}",
                blocked_tasks=[rank for rank, _ in blocked],
            )
        return horizon

    def _complete_due_events(self) -> None:
        # hot path: one attribute read and a None test when unmetered; two
        # perf_counter calls when metered (same shape as TransferCalendar.flush)
        timer = self._drain_timer
        if timer is None:
            return self._complete_due_events_impl()
        start = perf_counter()
        self._complete_due_events_impl()
        timer.observe(perf_counter() - start)

    def _complete_due_events_impl(self) -> None:
        """Fire every calendar entry due at the current time.

        Ordering mirrors the historical loop: compute completions first (in
        rank order), then foreground transfer completions (in transfer
        order), then injector events; newly ready transfers join the rate
        set for the *next* step's flush.  Background-flow completions only
        update the injection bookkeeping — their departure reaches the
        provider through the calendar's pending delta like any other.
        """
        now = self.now
        horizon = now + self.EPSILON
        timeline = self._timeline
        compute_ranks: Sequence[int] = ()
        ready_tids: Sequence[int] = ()
        inject_indices: Sequence[int] = ()
        if timeline and timeline[0][0] <= horizon:
            # due payloads by kind (the kind indexes the tuple); a step with
            # nothing due on the timeline builds no lists
            due: Tuple[List[int], List[int], List[int]] = ([], [], [])
            pop = heapq.heappop
            while timeline and timeline[0][0] <= horizon:
                _, _, kind, payload = pop(timeline)
                due[kind].append(payload)
            due[_COMPUTE].sort()
            compute_ranks, ready_tids, inject_indices = due
        finished = self._calendar.pop_due(now)

        for rank in compute_ranks:
            task = self.tasks[rank]
            if task.status is not _Status.COMPUTING:  # pragma: no cover - defensive
                continue
            event = task.current_event
            label = event.label if isinstance(event, ComputeEvent) else ""
            self._record(rank, "compute", task.current_start, now, label=label)
            self._computing -= 1
            self._make_ready(task, {"kind": "compute"})

        if finished:
            background = self._injection.background
            if background:
                foreground: List[Transfer] = []
                for transfer in finished:
                    if transfer.transfer_id in background:
                        background.remove(transfer.transfer_id)
                    else:
                        foreground.append(transfer)
                finished = foreground
            if len(finished) > 1:
                finished.sort(key=lambda transfer: transfer.transfer_id)
            for transfer in finished:
                self._complete_transfer(transfer.transfer_id)

        for index in inject_indices:
            self._fire(index, floor=now)

        for tid in ready_tids:
            self._calendar.activate(self.in_flight[tid].transfer, now)

    def _fire(self, index: int, floor: float) -> None:
        """Apply injector ``index`` now; schedule its next event no earlier than ``floor``."""
        injection = self._injection
        when = injection.fire(self.config.injectors[index], index, self.now)
        self.stats.injected_events = injection.fired
        self.stats.background_flows = injection.injected
        if when is not None:
            heapq.heappush(
                self._timeline,
                (max(when, floor), next(self._timeline_seq), _INJECT, index),
            )

    def _budget_diagnostics(self, max_iterations: int) -> str:
        counts = Counter(task.status.value for task in self.tasks)
        by_status = ", ".join(f"{status}={count}" for status, count in sorted(counts.items()))
        stalled = self._calendar.stalled_ids() if self._calendar else ()
        stall_note = f"; zero-rated transfers: {list(stalled)!r}" if stalled else ""
        background = self._injection.background if self._injection else ()
        background_note = (
            f"; background flows: {len(background)}" if background else ""
        )
        return (
            f"execution engine exceeded its iteration budget "
            f"({max_iterations} iterations) at t={self.now:.6f}s; "
            f"tasks by status: {{{by_status}}}; "
            f"in-flight transfers: {len(self.in_flight)} "
            f"({self._calendar.active_count if self._calendar else 0} progressing); "
            f"waiting sends/recvs/arrived: "
            f"{len(self._sends)}/{len(self._recvs)}/{len(self._arrived)}"
            f"{stall_note}{background_note}"
        )

    def run(self) -> SimulationReport:
        """Execute the application to completion and return the report."""
        reset = getattr(self.rate_provider, "reset", None)
        if callable(reset):
            reset()
        self._calendar = TransferCalendar(
            self.rate_provider,
            delta=None if self.config.delta_rates else False,
            missing_rate="zero",
            trace=self._trace,
            metrics=self._metrics,
        )
        if self._metrics is not None:
            metrics = self._metrics
            metrics.register_source("engine", self.stats.snapshot)
            metrics.register_source("calendar", self._calendar.stats.snapshot)
            register = getattr(self.rate_provider, "register_metrics", None)
            if callable(register):
                register(metrics)
        self._injection = _EngineInjectionState(self)
        if self.config.injectors:
            for index, injector in enumerate(self.config.injectors):
                injector.reset()
                when = injector.next_event(0.0)
                if when is not None:
                    heapq.heappush(
                        self._timeline,
                        (max(0.0, when), next(self._timeline_seq), _INJECT, index),
                    )
            # events scheduled at t=0 (e.g. windows opening at the origin)
            # take effect before the first ready-task sweep, so computes and
            # sends starting at t=0 already see the installed scales;
            # follow-ups are clamped just past the origin so this pre-loop
            # terminates (they fire on the first regular step)
            while self._timeline and self._timeline[0][0] <= self.EPSILON:
                _, _, _, index = heapq.heappop(self._timeline)
                self._fire(index, floor=2 * self.EPSILON)
        max_iterations = self.config.iteration_factor * (self._num_events_hint + self.num_tasks) + 100
        iterations = 0
        stats = self.stats
        calendar = self._calendar
        trace = self._trace

        while True:
            iterations += 1
            stats.iterations = iterations
            # injector events consume iterations too: grow the budget with
            # the injected work so loaded runs keep the same safety margin
            allowed = max_iterations + 20 * stats.injected_events
            if iterations > allowed:
                raise SimulationError(self._budget_diagnostics(allowed))

            self._process_ready_tasks()

            if not self._alive:
                break

            # push the flow delta of this step (new sends, completed
            # transfers, readiness transitions) to the rate provider; only
            # re-priced transfers whose rate changed get re-timed
            calendar.flush(self.now)

            horizon = self._next_horizon()
            if horizon >= self.now:  # the clock never goes back
                self.now = horizon
            stats.steps += 1
            if trace is not None:
                trace.emit(TraceRecord(self.now, "step", "engine", {"step": stats.steps}))
                if (self._metrics is not None and self._sample_every
                        and stats.steps % self._sample_every == 0):
                    trace.emit(self._metrics.sample_record(self.now))
            self._complete_due_events()

        self.stats.calendar = self._calendar.stats
        report = SimulationReport(
            application_name=self.application_name,
            model_name=self.model_name,
            placement_policy=self.placement.policy,
            num_tasks=self.num_tasks,
            records=self.records,
            finish_time_per_task={task.rank: task.finish_time for task in self.tasks},
        )
        return report
