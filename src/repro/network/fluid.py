"""Flow-level (fluid) network simulation.

Both sides of the paper's evaluation need to turn a set of concurrent
transfers into completion times:

* the **measured** side uses the cluster emulator's rate allocator
  (:mod:`repro.network.allocator`) as the rate provider;
* the **predicted** side uses a contention model wrapped by
  :class:`repro.simulator.providers.ModelRateProvider`.

The machinery in between is identical and lives here: an **event-calendar**
fluid simulation that keeps, for every in-flight transfer, its remaining
byte count and a predicted completion entry in a lazy min-heap, refreshes
rates whenever the set of active transfers changes (a transfer starts or
finishes), and advances time to the next calendar entry.  This is the
standard flow-level approximation used by simulators such as SimGrid and is
exact for max-min style allocations that only change at flow
arrival/departure.

Delta recomputation contract
----------------------------
A rate provider has one entry point, plus a reset:

* ``update(added, removed) -> {tid: rate}`` — apply the flow arrivals
  (``added``, :class:`Transfer` objects) and departures (``removed``,
  transfer ids) and return the rates of exactly the transfers that were
  **re-priced** — every added transfer plus any incumbent whose rate may
  have changed (for the model-side provider that is the membership of the
  conflict components dirtied by the delta, straight out of
  :class:`repro.core.incremental.IncrementalPenaltyEngine`; for the
  emulator it is the value-diff of the re-solved allocation).  Transfers
  absent from the returned mapping are guaranteed to keep their previous
  rate, which is what lets the calendar leave their predicted completion
  untouched.
* ``reset()`` — drop the tracked active set (memo caches survive a
  reset), so the next ``update`` starts from an empty set.

Both built-in providers (:class:`repro.simulator.providers.ModelRateProvider`
and :class:`repro.network.allocator.EmulatorRateProvider`) implement the
contract.  In delta mode the calendar hands every flush's arrivals and
departures to ``update``.  In full-query mode (``delta=False``, the
reference the property tests and the benchmark oracle compare against) it
re-prices every flush from scratch: ``reset()`` and then ``update`` with
every in-flight transfer, the calls :meth:`TransferCalendar.reprice`
makes.  The reference therefore rebuilds the provider's state instead of
reading it back, so a provider whose deltas under-report, or whose rates
depend on how the deltas were split, disagrees with it.  Both modes apply
the returned mapping through one per-flight loop — tracing, metering and
rate scaling add records or a multiplier, never a different code path.

Simulation cost therefore scales with *state changes* (how many transfers
each arrival/departure re-prices) rather than with the size of the active
set: per event the provider prices one dirtied conflict component and the
calendar re-times only the transfers inside it.

Calendar invariants
-------------------
:class:`TransferCalendar` maintains, per in-flight transfer, ``remaining``
bytes, the current ``rate``, the time the rate was last applied from, and an
``epoch`` counter; the min-heap holds ``(predicted_completion, seq, id,
epoch)`` entries.

* **Epoch-stale entries**: re-timing a transfer bumps its epoch and pushes a
  fresh entry; superseded entries stay in the heap and are discarded when
  they surface (their epoch no longer matches).  Entries of departed
  transfers are discarded the same way.
* **Re-timing rule**: a transfer is re-timed (remaining bytes integrated at
  the old rate up to "now", then a new completion predicted at the new
  rate) only when the provider returns a rate whose *value* differs from
  the stored one.  A re-priced transfer whose rate came back unchanged
  keeps its calendar entry bit-for-bit, so the provider may over-report —
  correctness only requires that every actual change is reported.
* **Completion rule**: when an entry surfaces at or before the simulation
  clock, the transfer's remaining bytes are integrated; it completes when
  they are negligible (≤ :attr:`~TransferCalendar.EPSILON_BYTES`) or when
  the time still needed at the current rate is below the clock resolution.
  A non-negligible pop (floating-point drift) re-times instead of
  completing, so the calendar can never lose a transfer.
* **Heap compaction**: lazy deletion leaves one superseded entry behind per
  re-timing, so a long run with frequent rate changes would grow the heap
  without bound.  Whenever the heap exceeds
  :attr:`~TransferCalendar.COMPACT_MIN_HEAP` entries *and* more than half of
  them are provably stale (a flight owns at most one live entry, so
  ``len(heap) > 2 × len(flights)`` implies a stale majority), the heap is
  rebuilt in place keeping only current-epoch entries of live flights.
  Compacted-away entries count into ``CalendarStats.stale_entries`` exactly
  as if they had surfaced and been discarded; ``CalendarStats.compactions``
  counts the rebuilds.  Compaction is checked once after every applied
  changed set, after every drift re-timing in the pop loop and after every
  :meth:`cancel` (a cancel-heavy workload grows only stale entries, so
  re-timings alone would never trigger it), so the heap stays
  ``max(COMPACT_MIN_HEAP, 2 × active)``-bounded after every mutating call.
* **Zero-rate flights**: a flight whose applied rate is ``<= 0`` gets no
  calendar entry (nothing to predict).  The calendar tracks these in a
  *stalled* set; in delta mode every subsequent :meth:`flush` re-rates them
  through a departure+arrival cycle of the delta API (which dirties their
  conflict component, forcing the provider to re-report them), so a
  transfer zero-rated by an under-reporting provider resurfaces as soon as
  anything else changes instead of starving silently.  When nothing else
  will ever change, the simulation loops fail fast with a diagnostic naming
  the starved transfer ids (:meth:`TransferCalendar.stalled_ids`).
* **Error atomicity**: the pending arrival/departure queues are cleared only
  after the provider query returns.  A provider that raises mid-flush
  leaves the calendar consistent — the same flush can be retried (or the
  error handled) without losing the delta.

Interference injection
----------------------
The calendar is deliberately agnostic about *who* owns a transfer:
foreground MPI traffic and injected background flows
(:mod:`repro.simulator.interference`) ride the same heap and the same
delta path, so injected flows contend in the rate provider exactly like
foreground ones.  Two hooks exist for injectors:

* :meth:`TransferCalendar.set_rate_scale` installs a post-provider rate
  multiplier (link degradation windows); because scaled rates feed the
  value-compare in ``_apply_rate``, the scale must only change at
  :meth:`TransferCalendar.reprice` boundaries;
* :meth:`TransferCalendar.reprice` forces a full re-rate of every in-flight
  transfer through ``provider.reset()`` + a full re-add — the re-rate hook
  for capacity changes that the delta contract cannot express.

Injectors reach both hooks through one surface, :class:`FluidInjectionState`:
it keeps the background flows and the rate scales of a run and fires the
injectors for :class:`FluidTransferSimulator`; the execution engine's
injection state subclasses it and adds only the compute-scale windows.
With no injectors installed (no scale hook, no reprice calls) every code
path is bit-for-bit identical to the pre-injection calendar.

Calendar trace events
---------------------
When a :class:`repro.trace.TraceSink` is attached (``trace=`` on the
calendar or the simulator), the calendar emits one structured
:class:`~repro.trace.TraceRecord` per state change.  What each kind means,
in terms of the invariants above:

* ``calendar.activate`` — a transfer joined the in-flight set (it becomes
  part of the next flush's arrival delta); payload carries ``src``/``dst``/
  ``size``.
* ``calendar.complete`` — a due heap entry surfaced with negligible
  remaining bytes and the transfer left the calendar (it joins the next
  flush's departure delta).
* ``calendar.cancel`` — a transfer was removed *before* completing (injector
  deactivation); ``remaining`` is the un-transferred byte count at the
  cancel instant.
* ``calendar.retime`` — a rate-*value* change (or fp-drift re-pop) bumped a
  flight's epoch and pushed a fresh completion entry; payload carries the
  new ``rate``, ``remaining`` bytes and predicted ``completion``.  The
  superseded entry dies lazily.
* ``calendar.flush`` — one provider query (delta or full): ``added``/
  ``removed`` are the delta sizes, ``changed`` how many rates came back,
  ``active`` the in-flight count — the per-step work the scale benchmark
  tracks.
* ``calendar.reprice`` — a forced full re-rate (provider ``reset()`` +
  re-add), the injector hook for capacity changes outside the delta
  contract.  In full-query mode the flush before it already re-priced
  every flight, so it queries nothing and reports ``changed`` 0.
* ``calendar.compaction`` — the lazy-deletion heap was rebuilt in place
  because stale entries held the majority; ``dropped``/``kept`` count the
  entries discarded/retained.
* ``calendar.stall`` — a flight's applied rate dropped to ``<= 0``; it has
  no heap entry and sits in the stalled set until re-rated.
* ``calendar.stall_retry`` — stalled flights were forced back through the
  delta API (departure+arrival cycle); ``count`` is how many, ``ids`` names
  the first :attr:`~TransferCalendar.STALL_RETRY_TRACE_IDS` of them (a
  persistent stall re-emits this record every flush, so the payload is
  bounded instead of carrying the full stringified id list each time).

With ``trace=None`` (or a disabled sink) no record is ever constructed and
every code path is bit-exact with the untraced calendar — property-tested
in ``tests/property/test_trace_properties.py``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import (
    Callable,
    Container,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from ..exceptions import SimulationError
from ..trace.records import TraceRecord, emit_inject_apply
from ..trace.sinks import TraceSink, active_sink

__all__ = [
    "Transfer",
    "TransferResult",
    "RateProvider",
    "validate_delta",
    "CalendarStats",
    "TransferCalendar",
    "compose_rate_scales",
    "FluidInjectionState",
    "FluidTransferSimulator",
]


@dataclass
class Transfer:
    """One point-to-point transfer handed to the fluid simulator."""

    transfer_id: Hashable
    src: int
    dst: int
    size: float
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise SimulationError(f"transfer {self.transfer_id!r} has negative size")
        if self.start_time < 0:
            raise SimulationError(f"transfer {self.transfer_id!r} starts before t=0")

    @property
    def is_intra_node(self) -> bool:
        return self.src == self.dst


@dataclass(frozen=True)
class TransferResult:
    """Completion record of one transfer."""

    transfer_id: Hashable
    start_time: float
    finish_time: float

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time


class RateProvider(Protocol):
    """Prices the in-flight transfers of a calendar; see the module docstring.

    The shipped :class:`repro.simulator.providers.ModelRateProvider` and
    :class:`repro.network.allocator.EmulatorRateProvider` both implement it.
    """

    def update(
        self, added: Sequence[Transfer], removed: Sequence[Hashable]
    ) -> Mapping[Hashable, float]:
        """Apply a flow delta; return the rates of the re-priced transfers."""
        ...  # pragma: no cover - protocol

    def reset(self) -> None:
        """Forget the tracked active set."""
        ...  # pragma: no cover - protocol


def validate_delta(
    active: Container[Hashable], added: Sequence[Transfer], removed: Sequence[Hashable]
) -> None:
    """Reject a flow delta that the tracked ids ``active`` cannot take, in O(delta).

    Every removal must name a tracked id, once.  An arrival may re-use a
    tracked id only when the same delta removes it (the calendar's stall
    retry), and no id may arrive twice.
    """
    if len(added) + len(removed) == 1:
        # most flushes carry one arrival or one departure: the same checks
        # without building the two sets
        if removed:
            if removed[0] not in active:
                raise _unknown_removal(removed[0])
        elif added[0].transfer_id in active:
            raise _double_arrival(added[0].transfer_id)
        return
    departing = set()
    for tid in removed:
        if tid not in active or tid in departing:
            raise _unknown_removal(tid)
        departing.add(tid)
    arriving = set()
    for transfer in added:
        tid = transfer.transfer_id
        if (tid in active and tid not in departing) or tid in arriving:
            raise _double_arrival(tid)
        arriving.add(tid)


def _unknown_removal(tid: Hashable) -> SimulationError:
    return SimulationError(f"unknown transfer {tid!r} removed from rate set")


def _double_arrival(tid: Hashable) -> SimulationError:
    return SimulationError(f"transfer {tid!r} added to the rate set twice")


@dataclass
class CalendarStats:
    """Work counters of one :class:`TransferCalendar` (benchmark instrumentation).

    A plain record, read by attribute; a finished run hands it out as is
    (``FluidTransferSimulator.last_calendar_stats``, the engine stats'
    ``calendar`` field).
    """

    #: rate refreshes pushed to the provider (≤ one per simulation step)
    flushes: int = 0
    #: rate entries the provider returned across all flushes — the per-step
    #: engine work the scale benchmark compares against the active-set size
    rate_updates: int = 0
    #: completion entries recomputed because a rate value actually changed
    retimed: int = 0
    #: transfers that entered the calendar
    activations: int = 0
    #: transfers that completed
    completions: int = 0
    #: superseded heap entries discarded (on surfacing or by compaction)
    stale_entries: int = 0
    #: running sum of the active-set size at each flush — baseline for rate_updates
    active_at_flush: int = 0
    #: in-place heap rebuilds triggered by a stale-entry majority
    compactions: int = 0
    #: transfers removed before completion (injector deactivations)
    cancelled: int = 0
    #: forced re-rates of zero-rated flights through the delta API
    stall_retries: int = 0

    def snapshot(self) -> Dict[str, int]:
        """The counters as a dict: the ``calendar`` metrics-registry source."""
        return asdict(self)


class _Flight:
    """Calendar-side state of one in-flight transfer."""

    __slots__ = ("transfer", "remaining", "rate", "rated", "last_update", "epoch")

    def __init__(self, transfer: Transfer, remaining: float, now: float) -> None:
        self.transfer = transfer
        self.remaining = remaining
        self.rate = 0.0
        self.rated = False
        self.last_update = now
        self.epoch = 0


class TransferCalendar:
    """Lazy min-heap of predicted transfer completions over a rate provider.

    The shared event-calendar core of both fluid loops — the standalone
    :class:`FluidTransferSimulator` and the execution engine
    (:mod:`repro.simulator.engine`) drive the same instance type, so the
    prediction and emulation paths share one integration/re-timing code
    path.  See the module docstring for the invariants.

    Parameters
    ----------
    rate_provider:
        The provider (see :class:`RateProvider`).
    delta:
        ``True`` (default) hands each flush only the arrivals/departures
        since the previous flush.  ``False`` re-prices every flush from a
        reset provider with the whole active set, O(active) per flush: the
        reference the property tests compare against.
    missing_rate:
        What to do when the provider returns no rate for a live transfer:
        ``"error"`` raises (the fluid simulator's historical behaviour),
        ``"zero"`` treats it as a zero rate (the execution engine's).
    trace:
        Optional :class:`repro.trace.TraceSink`; when attached the calendar
        emits one ``calendar.*`` record per state change (see the module
        docstring).  ``None`` or a disabled sink costs one pointer test per
        site — the untraced paths are bit-exact.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; when attached every
        flush is timed into the ``calendar.flush_s`` phase timer.  Mirrors
        the trace contract: ``None`` costs one pointer test per flush.
    """

    EPSILON = 1e-12
    EPSILON_BYTES = 1e-6
    #: heaps smaller than this are never compacted (compaction is O(heap))
    COMPACT_MIN_HEAP = 64
    #: ``calendar.stall_retry`` payloads name at most this many ids
    STALL_RETRY_TRACE_IDS = 8

    def __init__(
        self,
        rate_provider: RateProvider,
        delta: bool = True,
        missing_rate: str = "error",
        trace: Optional[TraceSink] = None,
        metrics=None,
    ) -> None:
        if missing_rate not in ("error", "zero"):
            raise SimulationError(f"unknown missing_rate policy {missing_rate!r}")
        self.provider = rate_provider
        self.delta = bool(delta)
        self.missing_rate = missing_rate
        self._trace = active_sink(trace)
        self._flush_timer = metrics.timer("calendar.flush_s") if metrics is not None else None
        self.stats = CalendarStats()
        self._flights: Dict[Hashable, _Flight] = {}
        self._heap: List[Tuple[float, int, Hashable, int]] = []
        self._seq = itertools.count()
        self._pending_added: Dict[Hashable, Transfer] = {}
        self._pending_removed: List[Hashable] = []
        #: flights whose applied rate is <= 0 (insertion-ordered for diagnostics)
        self._stalled: Dict[Hashable, None] = {}
        #: post-provider rate multiplier (interference hook); ``None`` = off
        self._rate_scale: Optional[Callable[[Transfer], float]] = None

    # --------------------------------------------------------------- queries
    @property
    def active_count(self) -> int:
        return len(self._flights)

    def remaining(self, tid: Hashable) -> float:
        """Remaining bytes as of the flight's last integration point."""
        return self._flights[tid].remaining

    def is_active(self, tid: Hashable) -> bool:
        return tid in self._flights

    def stalled_ids(self) -> Tuple[Hashable, ...]:
        """Ids of flights currently zero-rated (no calendar entry), in order."""
        return tuple(self._stalled)

    def next_time(self) -> Optional[float]:
        """Earliest valid predicted completion, or ``None``."""
        while self._heap:
            time, _, tid, epoch = self._heap[0]
            flight = self._flights.get(tid)
            if flight is None or flight.epoch != epoch:
                heapq.heappop(self._heap)
                self.stats.stale_entries += 1
                continue
            return time
        return None

    # -------------------------------------------------------------- mutation
    def activate(self, transfer: Transfer, now: float) -> None:
        """A transfer starts progressing at ``now`` (joins the next flush)."""
        tid = transfer.transfer_id
        if tid in self._flights:
            raise SimulationError(f"transfer {tid!r} is already active")
        self._flights[tid] = _Flight(transfer, float(transfer.size), now)
        self._pending_added[tid] = transfer
        self.stats.activations += 1
        if self._trace is not None:
            self._trace.emit(TraceRecord(now, "calendar.activate", tid, {
                "src": transfer.src, "dst": transfer.dst, "size": transfer.size,
            }))

    def cancel(self, tid: Hashable, now: float) -> Transfer:
        """Remove an in-flight transfer without completing it.

        The departure joins the next flush (unless the transfer was never
        flushed to the provider, in which case it simply vanishes).  Used by
        interference injectors to deactivate background flows; heap entries
        of the cancelled flight die lazily like any other stale entry — but
        compaction is checked here too, so a cancel-heavy workload (which
        creates stale entries without ever re-timing) keeps the heap bound.
        """
        flight = self._flights.pop(tid, None)
        if flight is None:
            raise SimulationError(f"cannot cancel unknown transfer {tid!r}")
        self._integrate(flight, now)
        if tid in self._pending_added:
            del self._pending_added[tid]  # the provider never saw it
        else:
            self._pending_removed.append(tid)
        self._stalled.pop(tid, None)
        self.stats.cancelled += 1
        if self._trace is not None:
            self._trace.emit(TraceRecord(now, "calendar.cancel", tid, {
                "remaining": flight.remaining,
            }))
        self._maybe_compact(now)
        return flight.transfer

    def set_rate_scale(self, scale: Optional[Callable[[Transfer], float]]) -> None:
        """Install (or clear) a post-provider rate multiplier.

        The scaled rate feeds the value-compare of the re-timing rule, so the
        installed function must be pure and may only change together with a
        :meth:`reprice` call — otherwise already-applied rates would keep the
        old scale.  ``None`` restores the unscaled (bit-exact) path.
        """
        self._rate_scale = scale

    def _integrate(self, flight: _Flight, now: float) -> None:
        if flight.rated and flight.rate > 0.0:
            dt = now - flight.last_update
            if dt > 0.0:
                flight.remaining -= flight.rate * dt
        flight.last_update = now

    def _retime(self, tid: Hashable, flight: _Flight, now: float) -> None:
        # compaction is NOT checked here: every caller checks it once after
        # its whole batch of re-timings (end of _apply_changed, the pop_due
        # drift branch, cancel)
        flight.epoch += 1
        if flight.rated and flight.rate > 0.0:
            completion = now + flight.remaining / flight.rate
            heapq.heappush(self._heap, (completion, next(self._seq), tid, flight.epoch))
            self.stats.retimed += 1
            if self._trace is not None:
                self._trace.emit(TraceRecord(now, "calendar.retime", tid, {
                    "rate": flight.rate, "remaining": flight.remaining,
                    "completion": completion,
                }))

    def _maybe_compact(self, now: float) -> None:
        # every flight owns at most one live entry, so heap > 2*flights means
        # the stale entries hold the majority: rebuild in place (amortized
        # O(1) per push — the heap must double through pushes to re-trigger)
        heap = self._heap
        if (len(heap) < self.COMPACT_MIN_HEAP
                or len(heap) <= 2 * len(self._flights)):
            return
        live = []
        for entry in heap:
            flight = self._flights.get(entry[2])
            if flight is not None and flight.epoch == entry[3]:
                live.append(entry)
        self.stats.stale_entries += len(heap) - len(live)
        heapq.heapify(live)
        dropped = len(heap) - len(live)
        self._heap = live
        self.stats.compactions += 1
        if self._trace is not None:
            self._trace.emit(TraceRecord(now, "calendar.compaction", None, {
                "dropped": dropped, "kept": len(live),
            }))

    def flush(self, now: float) -> None:
        """Push the pending flow delta to the provider and apply changed rates.

        The pending queues are cleared only once the provider query returned:
        a provider that raises (e.g. a :class:`SimulationError` on a
        duplicate id) leaves the calendar consistent and re-flushable.  In
        delta mode, zero-rated (stalled) flights are re-rated through a
        departure+arrival cycle on every flush — see the module docstring.
        """
        # hot path: one attribute read and a None test when unmetered; when
        # metered, two perf_counter calls with no try/finally frame (a
        # provider error mid-flush loses one timer observation, nothing else)
        timer = self._flush_timer
        if timer is None:
            return self._flush(now)
        start = perf_counter()
        self._flush(now)
        timer.observe(perf_counter() - start)

    def _flush(self, now: float) -> None:
        added_count = len(self._pending_added)
        removed_count = len(self._pending_removed)
        if self.delta:
            if not added_count and not removed_count:
                if self._stalled:
                    self._retry_stalled(now)
                return
            arrivals = list(self._pending_added)
            changed = self.provider.update(
                list(self._pending_added.values()), list(self._pending_removed))
        else:
            if not self._flights:
                self._pending_added.clear()
                self._pending_removed.clear()
                return
            arrivals = []  # a full query checks every flight instead
            changed = self._requery()
        self._pending_added.clear()
        self._pending_removed.clear()
        self.stats.flushes += 1
        self.stats.rate_updates += len(changed)
        self.stats.active_at_flush += len(self._flights)
        if self._trace is not None:
            self._trace.emit(TraceRecord(now, "calendar.flush", None, {
                "added": added_count, "removed": removed_count,
                "changed": len(changed), "active": len(self._flights),
            }))
        self._apply_changed(changed, now, arrivals)
        if self.delta and self._stalled:
            self._retry_stalled(now)

    def _requery(self) -> Mapping[Hashable, float]:
        """Re-price every in-flight transfer from a reset provider."""
        self.provider.reset()
        return self.provider.update(
            [flight.transfer for flight in self._flights.values()], [])

    def _apply_changed(self, changed: Mapping[Hashable, float], now: float,
                       arrivals: Sequence[Hashable] = ()) -> None:
        """Apply a provider answer; ``arrivals`` are the delta's new ids, in activation order."""
        for tid, rate in changed.items():
            flight = self._flights.get(tid)
            if flight is None:
                continue  # not in flight: nothing to re-time
            if rate < 0:
                raise SimulationError(f"negative rate for transfer {tid!r}")
            self._apply_rate(tid, flight, rate, now)
        # in delta mode absence from `changed` means "rate unchanged" (the
        # contract); on a full query it means the provider dropped a live
        # transfer — never acceptable under "error", a zero rate under "zero".
        # Only arrivals can be unrated in delta mode: a flight is rated (or
        # zero-rated) on its first flush and never goes back, so the stall
        # retry and reprice, which re-add rated flights, pass none.
        if self.delta:
            flights = self._flights
            missing = [tid for tid in arrivals if not flights[tid].rated]
        else:
            missing = [tid for tid in self._flights if tid not in changed]
        if missing:
            if self.missing_rate == "error":
                raise SimulationError(f"rate provider returned no rate for {missing!r}")
            for tid in missing:
                self._apply_rate(tid, self._flights[tid], 0.0, now)
        self._maybe_compact(now)

    def _retry_stalled(self, now: float) -> None:
        """Force zero-rated flights back through the delta API.

        A departure immediately followed by an arrival of the same transfer
        dirties its conflict component, so a conforming provider must
        re-report it — the escape hatch for flights an under-reporting
        provider left at rate zero (they have no calendar entry and would
        otherwise only resurface when an unrelated delta touched their
        component).
        """
        retry = [tid for tid in self._stalled if tid in self._flights]
        if not retry:
            return
        transfers = [self._flights[tid].transfer for tid in retry]
        changed = self.provider.update(transfers, list(retry))
        self.stats.stall_retries += len(retry)
        self.stats.rate_updates += len(changed)
        if self._trace is not None:
            # a persistent stall re-emits this record every flush: bound the
            # payload to a count plus the first few ids
            self._trace.emit(TraceRecord(now, "calendar.stall_retry", None, {
                "count": len(retry),
                "ids": [str(tid)
                        for tid in retry[:self.STALL_RETRY_TRACE_IDS]],
            }))
        self._apply_changed(changed, now)

    def reprice(self, now: float) -> None:
        """Force a full re-rate of every in-flight transfer.

        The delta contract cannot express "every rate may have changed"
        (e.g. after a link-degradation window toggles the rate scale), so
        this resets the provider's tracked set and re-adds the whole active
        set in one delta.  Any pending delta is flushed first; in
        full-query mode that flush already re-prices every flight from a
        reset provider, so the reprice queries nothing more and its
        record reports no change.
        """
        self.flush(now)
        if not self._flights:
            return
        changed = self._requery() if self.delta else {}
        if self._trace is not None:
            self._trace.emit(TraceRecord(now, "calendar.reprice", None, {
                "active": len(self._flights), "changed": len(changed),
            }))
        if self.delta:
            self.stats.flushes += 1
            self.stats.rate_updates += len(changed)
            self.stats.active_at_flush += len(self._flights)
            self._apply_changed(changed, now)

    def _apply_rate(self, tid: Hashable, flight: _Flight, rate: float,
                    now: float) -> None:
        if self._rate_scale is not None:
            rate = rate * self._rate_scale(flight.transfer)
        if rate <= 0.0:
            if self._trace is not None and tid not in self._stalled:
                self._trace.emit(TraceRecord(now, "calendar.stall", tid,
                                             {"rate": rate}))
            self._stalled[tid] = None
        else:
            self._stalled.pop(tid, None)
        if flight.rated and rate == flight.rate:
            return  # value unchanged: the calendar entry stays valid
        self._integrate(flight, now)
        flight.rate = rate
        flight.rated = True
        self._retime(tid, flight, now)

    def pop_due(self, now: float) -> List[Transfer]:
        """Complete every transfer whose calendar entry is due at ``now``.

        Completed transfers leave the calendar and join the departure side
        of the next flush; the list preserves entry order (callers that need
        a different completion order sort it themselves).
        """
        done: List[Transfer] = []
        # the thresholds depend on `now` alone: computed once per call
        due = now + self.EPSILON
        negligible_bytes = max(self.EPSILON, self.EPSILON_BYTES)
        clock_resolution = max(abs(now), 1.0) * 1e-12
        while self._heap:
            time, _, tid, epoch = self._heap[0]
            flight = self._flights.get(tid)
            if flight is None or flight.epoch != epoch:
                heapq.heappop(self._heap)
                self.stats.stale_entries += 1
                continue
            if time > due:
                break
            heapq.heappop(self._heap)
            self._integrate(flight, now)
            negligible = (
                flight.remaining <= negligible_bytes
                or (flight.rate > 0.0
                    and flight.remaining / flight.rate <= clock_resolution)
            )
            if not negligible:
                self._retime(tid, flight, now)  # fp drift: try again later
                self._maybe_compact(now)
                continue
            del self._flights[tid]
            self._stalled.pop(tid, None)
            self._pending_removed.append(tid)
            done.append(flight.transfer)
            self.stats.completions += 1
            if self._trace is not None:
                self._trace.emit(TraceRecord(now, "calendar.complete", tid, {}))
        return done


def compose_rate_scales(
    scales: Sequence[Callable[[Transfer], float]],
) -> Optional[Callable[[Transfer], float]]:
    """Fold per-transfer rate multipliers into one (``None`` when empty).

    No scales means the bit-exact unscaled path, one scale is installed
    as-is, several multiply.
    """
    if not scales:
        return None
    if len(scales) == 1:
        return scales[0]
    frozen = tuple(scales)

    def product(transfer: Transfer) -> float:
        factor = 1.0
        for scale in frozen:
            factor *= scale(transfer)
        return factor

    return product


class FluidInjectionState:
    """Injection surface of one simulation run.

    Implements the informal ``InjectionState`` protocol of
    :mod:`repro.simulator.interference` over a :class:`TransferCalendar`:
    background flows ride the same calendar (and thus the same provider
    delta path) as the foreground transfers, and rate scales are kept under
    opaque handles, their composition (:func:`compose_rate_scales`)
    installed on the calendar after every change.  Compute scaling is a
    no-op because nothing computes in a pure transfer simulation; the
    execution engine's subclass adds the compute-scale windows.  Both loops
    fire their injectors through :meth:`fire`.
    """

    def __init__(self, calendar: TransferCalendar, hosts: Tuple[int, ...],
                 trace: Optional[TraceSink] = None) -> None:
        self.now = 0.0
        self.hosts = hosts
        #: ids of the live background flows: they contend in the provider,
        #: but the loops leave them out of their results
        self.background: Set[Hashable] = set()
        #: background flows started / injector events fired
        self.injected = 0
        self.fired = 0
        self._calendar = calendar
        self._trace = active_sink(trace)
        self._flow_seq = itertools.count()
        self._rate_scales: Dict[int, Callable[[Transfer], float]] = {}
        self._rate_seq = itertools.count()

    def fire(self, injector, index: int, now: float) -> Optional[float]:
        """Apply the loop's ``index``-th injector at ``now``; return its next event time."""
        self.now = now
        if self._trace is not None:
            emit_inject_apply(self._trace, now, injector, index)
        injector.apply(self)
        self.fired += 1
        return injector.next_event(now)

    # ------------------------------------------------------------- flows
    def start_flow(self, src: int, dst: int, size: float,
                   owner: str = "background") -> Hashable:
        tid = f"{owner}#{next(self._flow_seq)}"
        if self._trace is not None:
            self._trace.emit(TraceRecord(self.now, "inject.flow_start", tid, {
                "src": src, "dst": dst, "size": float(size), "owner": owner,
            }))
        transfer = Transfer(transfer_id=tid, src=src, dst=dst, size=float(size),
                            start_time=self.now)
        self._calendar.activate(transfer, self.now)
        self.background.add(tid)
        self.injected += 1
        return tid

    def end_flow(self, tid: Hashable) -> None:
        if tid in self.background and self._calendar.is_active(tid):
            if self._trace is not None:
                self._trace.emit(TraceRecord(self.now, "inject.flow_end", tid, {}))
            self._calendar.cancel(tid, self.now)
        self.background.discard(tid)

    # ------------------------------------------------------------- scaling
    def add_rate_scale(self, scale: Callable[[Transfer], float],
                       info: Optional[Dict] = None) -> int:
        handle = next(self._rate_seq)
        self._rate_scales[handle] = scale
        self._install_rate_scales()
        if self._trace is not None:
            self._trace.emit(TraceRecord(self.now, "inject.rate_scale_on",
                                         handle, dict(info or {})))
        return handle

    def remove_rate_scale(self, handle: Optional[int]) -> None:
        if self._trace is not None and handle is not None:
            self._trace.emit(TraceRecord(self.now, "inject.rate_scale_off",
                                         handle, {}))
        self._rate_scales.pop(handle, None)
        self._install_rate_scales()

    def _install_rate_scales(self) -> None:
        self._calendar.set_rate_scale(
            compose_rate_scales(tuple(self._rate_scales.values())))

    def add_compute_scale(self, scale, info: Optional[Dict] = None) -> Optional[int]:
        return None  # nothing computes in a pure transfer simulation

    def remove_compute_scale(self, handle) -> None:
        pass

    def reprice(self) -> None:
        if self._trace is not None:
            self._trace.emit(TraceRecord(self.now, "inject.reprice", None, {}))
        self._calendar.reprice(self.now)


class FluidTransferSimulator:
    """Event-calendar fluid simulation of a set of transfers.

    After a :meth:`run`, :attr:`last_calendar_stats` is that run's
    :class:`CalendarStats`, the finished calendar's own counters.

    Parameters
    ----------
    rate_provider:
        Allocates instantaneous rates to the set of in-flight transfers.
    latency:
        Per-transfer startup latency in seconds, added before the first byte
        flows (one-way network latency plus protocol handshake).
    delta:
        Forwarded to :class:`TransferCalendar` — ``True`` (default) hands
        the provider each flush's delta, ``False`` re-prices every flush
        from a reset provider (the reference mode; bit-exact with the delta
        path for a provider that reports every rate it changes).
    injectors:
        Interference injectors (:mod:`repro.simulator.interference`) whose
        events interleave with the transfer calendar: background flows
        contend with the foreground transfers in the provider but are
        excluded from the returned completion records, and the run ends when
        the last *foreground* transfer completes.  With an empty sequence
        the loop is bit-exact with the injector-free simulator.
    trace:
        Optional :class:`repro.trace.TraceSink`; the calendar emits its
        ``calendar.*`` records through it, the loop adds ``step`` boundaries
        and ``inject.*`` events.  ``None`` (or a disabled sink) is the
        bit-exact untraced path.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  The calendar times
        every flush into its ``calendar.flush_s`` timer, the provider
        registers its stats surfaces and timers
        (:meth:`~repro.simulator.providers.ModelRateProvider.
        register_metrics`) and the calendar counters join as the
        ``calendar`` source.  ``None`` is the bit-exact unmetered path.
    """

    #: bytes below which a transfer is considered finished (numerical guard)
    EPSILON_BYTES = TransferCalendar.EPSILON_BYTES

    def __init__(self, rate_provider: RateProvider, latency: float = 0.0,
                 delta: bool = True,
                 injectors: Sequence = (),
                 trace: Optional[TraceSink] = None,
                 metrics=None) -> None:
        if latency < 0:
            raise SimulationError(f"latency must be non-negative, got {latency}")
        self.rate_provider = rate_provider
        self.latency = latency
        self.delta = delta
        self.injectors = tuple(injectors)
        self.trace = active_sink(trace)
        self.metrics = metrics
        #: calendar work counters of the most recent :meth:`run`
        self.last_calendar_stats: Optional[CalendarStats] = None

    # ------------------------------------------------------------------- run
    def run(self, transfers: Sequence[Transfer]) -> Dict[Hashable, TransferResult]:
        """Simulate all ``transfers`` and return their completion records."""
        ids = [t.transfer_id for t in transfers]
        if len(set(ids)) != len(ids):
            raise SimulationError("duplicate transfer ids in fluid simulation")
        if not transfers:
            return {}

        self.rate_provider.reset()
        trace = self.trace
        calendar = TransferCalendar(self.rate_provider, delta=self.delta,
                                    missing_rate="error", trace=trace,
                                    metrics=self.metrics)
        if self.metrics is not None:
            self.metrics.register_source("calendar", calendar.stats.snapshot)
            register = getattr(self.rate_provider, "register_metrics", None)
            if callable(register):
                register(self.metrics)

        hosts = tuple(sorted({h for t in transfers for h in (t.src, t.dst)}))
        state = FluidInjectionState(calendar, hosts, trace=trace)
        inject_heap: List[Tuple[float, int]] = []
        for index, injector in enumerate(self.injectors):
            injector.reset()
            when = injector.next_event(0.0)
            if when is not None:
                heapq.heappush(inject_heap, (max(0.0, when), index))

        # transfers waiting for their (latency-shifted) start time
        pending: List[Tuple[float, int, Transfer]] = []
        counter = itertools.count()
        for transfer in transfers:
            heapq.heappush(pending, (transfer.start_time + self.latency, next(counter), transfer))

        results: Dict[Hashable, TransferResult] = {}
        now = 0.0
        guard = 0
        steps = 0

        # the run ends when the last *foreground* transfer completes
        while pending or calendar.active_count > len(state.background):
            guard += 1
            if guard > 10 * (len(transfers) + state.injected + state.fired) + 10:
                raise SimulationError("fluid simulation exceeded its event budget")

            # activate transfers whose start time has been reached; zero-byte
            # transfers finish immediately without entering the rate set
            while pending and pending[0][0] <= now + 1e-15:
                _, _, transfer = heapq.heappop(pending)
                if float(transfer.size) <= self.EPSILON_BYTES:
                    results[transfer.transfer_id] = TransferResult(
                        transfer.transfer_id, transfer.start_time, now
                    )
                else:
                    calendar.activate(transfer, now)

            # fire due injector events (may start background flows, toggle
            # rate scales, force reprices)
            while inject_heap and inject_heap[0][0] <= now + 1e-15:
                _, index = heapq.heappop(inject_heap)
                when = state.fire(self.injectors[index], index, now)
                if when is not None:
                    heapq.heappush(inject_heap, (max(when, now), index))

            if not calendar.active_count:
                targets = [t for t in (
                    pending[0][0] if pending else None,
                    inject_heap[0][0] if inject_heap else None,
                ) if t is not None]
                if not targets:
                    break
                now = max(now, min(targets))
                if trace is not None:
                    steps += 1
                    trace.emit(TraceRecord(now, "step", "fluid", {"step": steps}))
                continue

            calendar.flush(now)

            next_completion = calendar.next_time()
            next_start = pending[0][0] if pending else math.inf
            next_inject = inject_heap[0][0] if inject_heap else math.inf
            if next_completion is None and math.isinf(next_start) \
                    and math.isinf(next_inject):
                stalled = calendar.stalled_ids()
                detail = f"; zero-rated transfers: {list(stalled)!r}" if stalled else ""
                raise SimulationError(
                    "fluid simulation stalled: all active transfers have zero rate "
                    f"and no new transfer will start{detail}"
                )

            horizon = min(math.inf if next_completion is None else next_completion,
                          next_start, next_inject)
            now = max(now, horizon)
            if trace is not None:
                steps += 1
                trace.emit(TraceRecord(now, "step", "fluid", {"step": steps}))

            for transfer in calendar.pop_due(now):
                if transfer.transfer_id in state.background:
                    state.background.remove(transfer.transfer_id)
                    continue
                results[transfer.transfer_id] = TransferResult(
                    transfer.transfer_id, transfer.start_time, now
                )

        self.last_calendar_stats = calendar.stats
        return results

    # ------------------------------------------------------------ conveniences
    def durations(self, transfers: Sequence[Transfer]) -> Dict[Hashable, float]:
        """Duration (seconds) of every transfer, including the startup latency."""
        return {tid: result.duration for tid, result in self.run(transfers).items()}

    def makespan(self, transfers: Sequence[Transfer]) -> float:
        """Completion time of the last transfer."""
        results = self.run(transfers)
        return max((r.finish_time for r in results.values()), default=0.0)
