"""Clean twin: every emission is dominated by an ``is not None`` test."""

from repro.trace.records import TraceRecord, emit_inject_apply


def run_guarded(trace, now):
    if trace is not None:
        trace.emit(TraceRecord(now, "step", None, {}))


def run_early_return(trace, now):
    if trace is None:
        return
    trace.emit(TraceRecord(now, "step", None, {}))


def run_boolop(trace, now, wanted):
    if trace is not None and wanted:
        trace.emit(TraceRecord(now, "step", None, {}))


def run_helper(trace, now, injector):
    if trace is not None:
        emit_inject_apply(trace, now, injector, 0)


def run_timer(metrics, wanted):
    timer = metrics.timer("fixture.phase") if metrics is not None else None
    if timer is None or not wanted:
        return
    timer.observe(0.0)
