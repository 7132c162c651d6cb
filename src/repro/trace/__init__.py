"""Unified trace pipeline — structured per-event records from calendar to analysis.

The paper's own methodology is trace-based: Linpack event sequences are
captured via MPE instrumentation (~0.7 % overhead, §VI.D) and replayed
through the contention model.  This package gives the reproduction the same
spine.  Every layer of the simulation stack — the
:class:`~repro.network.fluid.TransferCalendar`, the
:class:`~repro.simulator.engine.ExecutionEngine` and
:class:`~repro.network.fluid.FluidTransferSimulator` loops, and the
interference injectors — emits structured :class:`TraceRecord` events
through one pluggable :class:`TraceSink`, replacing the historical pile of
end-of-run aggregates as the *only* way to answer "what happened at t=X".

Trace schema (version 1)
------------------------
A trace is an ordered sequence of records.  Each record is::

    TraceRecord(time: float, kind: str, subject: str|int|None, data: dict)

* ``time`` — the simulation clock at which the event happened (seconds);
* ``kind`` — a dotted event-kind tag from :data:`KNOWN_KINDS` (below);
* ``subject`` — what the event is about: a transfer id, a task rank, an
  injector name, or ``None`` for run-scoped events;
* ``data`` — kind-specific payload of JSON-scalar values (nested lists
  allowed, no nested records).

Record kinds, by emitting layer:

========================== ====================================================
kind                       meaning / payload
========================== ====================================================
``run.meta``               run header: workload, hosts, network, mode, seed …
``calendar.activate``      a transfer entered the calendar; ``{src, dst, size}``
``calendar.complete``      a transfer completed; ``{}``
``calendar.cancel``        a transfer left before completing; ``{remaining}``
``calendar.retime``        a completion entry was recomputed;
                           ``{rate, remaining, completion}``
``calendar.flush``         a provider delta query; ``{added, removed, changed,
                           active}``
``calendar.reprice``       full re-rate (provider reset + re-add); ``{active,
                           changed}``
``calendar.compaction``    in-place heap rebuild; ``{dropped, kept}``
``calendar.stall``         a flight's applied rate dropped to zero; ``{rate}``
``calendar.stall_retry``   zero-rated flights forced back through the delta
                           API; ``{ids}``
``step``                   a loop horizon advance; subject ``"engine"`` or
                           ``"fluid"``; ``{step}``
``task.state``             a task changed status; ``{status, event?}``
``task.event``             a task finished an event (the trace twin of
                           :class:`~repro.simulator.report.EventRecord`);
                           ``{kind, start, end, size, peer, label, penalty}``
``inject.apply``           an injector fired; subject = injector name;
                           ``{index}``
``inject.flow_start``      a background flow started; subject = flow id;
                           ``{src, dst, size, owner}``
``inject.flow_end``        a background flow was deactivated early
``inject.rate_scale_on``   a rate-scale window opened; subject = handle;
                           ``{factor, hosts}`` (replay payload)
``inject.rate_scale_off``  the window closed; subject = handle
``inject.compute_scale_on``  compute-rate window opened; subject = handle;
                           ``{factor, hosts}``
``inject.compute_scale_off`` the window closed; subject = handle
``inject.reprice``         an injector forced a full re-rate
``app.meta``               application container header; ``{num_tasks, name}``
``app.compute``            application event stream (the MPE-style container
``app.send``               of :mod:`repro.workloads.traces`): one record per
``app.recv``               program event, subject = rank (``"*"`` for global
``app.barrier``            barriers), payloads mirror the event fields
``metrics.sample``         periodic :class:`repro.obs.MetricsRegistry`
                           snapshot; payload = flat ``{name: number}`` dict
========================== ====================================================

The full payload schemas are tabulated in ``docs/trace-format.md``.

Sink contract
-------------
A sink is anything with::

    enabled: bool          # False => callers may skip record construction
    emit(record) -> None   # called in simulation order, may buffer
    close() -> None        # flush and release resources (idempotent)

Three sinks ship:

* :class:`NullTraceSink` — ``enabled`` is ``False``.  Every emission site in
  the simulation stack normalises a disabled sink to ``None`` and guards the
  record construction with ``if trace is not None``, so tracing disabled
  costs one pointer test per site — the runs are **bit-exact** with the
  pre-trace code (property-tested in
  ``tests/property/test_trace_properties.py``).
* :class:`MemoryTraceSink` — bounded in-memory ring (``maxlen`` records, or
  unbounded), for tests and interactive analysis.
* :class:`JsonlTraceSink` — one JSON object per line, header line first
  (``{"format": "repro-trace", "version": 1}``); the file format consumed by
  :func:`read_trace_log`, :mod:`repro.analysis.timeline` and
  ``repro trace summarize``.

Closing the loop
----------------
:class:`TraceReplayInjector` replays the ``inject.*`` records of a recorded
trace through the standard ``InjectionState`` surface
(:mod:`repro.simulator.interference`), so a measured background-traffic or
degradation schedule can be re-imposed on any workload — and replaying a
loaded run's own trace reproduces it bit-exactly (the ROADMAP's
"trace-driven interference").  :mod:`repro.analysis.timeline` and
:mod:`repro.analysis.placement` consume the same records for timeline and
placement-robustness reports.

Live observability sits on the same pipeline: :class:`StreamingTraceReader`
tails a growing JSONL file incrementally (``repro trace tail``, ``repro
campaign --progress``), and :func:`trace_diff` /
:func:`assert_traces_equal` localise the first diverging record when two
traces that should be identical are not (``repro trace diff``).
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".records": ["TRACE_FORMAT", "TRACE_VERSION", "KNOWN_KINDS", "TraceRecord", "TraceLog"],
    ".sinks": ["TraceSink", "NullTraceSink", "MemoryTraceSink", "JsonlTraceSink",
               "active_sink", "read_trace_log"],
    ".replay": ["TraceReplayInjector", "replay_events"],
    ".stream": ["StreamingTraceReader"],
    ".diff": ["TraceDiff", "trace_diff", "diff_trace_files", "format_trace_diff",
              "assert_traces_equal"],
})
