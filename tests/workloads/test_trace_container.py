"""Application traces in the unified JSONL container format."""

from __future__ import annotations

import pytest

from repro.exceptions import TraceError
from repro.simulator import ANY_SOURCE, Application
from repro.trace import JsonlTraceSink, TraceRecord, read_trace_log
from repro.workloads import generate_linpack
from repro.workloads.traces import (
    application_to_records,
    read_trace,
    records_to_application,
    write_trace,
)


def labelled_application() -> Application:
    app = Application(num_tasks=3, name="container-app")
    app.add_compute(0, duration=0.125, label="panel")
    app.add_compute(1, flops=2.4e9, label="dgemm")
    app.add_send(0, dst=1, size=1_048_576, tag=7, label="bcast")
    app.add_recv(1, src=0, size=1_048_576, tag=7, label="bcast")
    app.add_recv(2, src=ANY_SOURCE, size=None, tag=0, label="steal")
    app.add_send(0, dst=2, size=64, tag=0)
    app.add_barrier(label="sync")
    return app


def apps_equal(a: Application, b: Application) -> bool:
    if a.num_tasks != b.num_tasks or a.name != b.name:
        return False
    return all(
        list(a.trace(rank)) == list(b.trace(rank))
        for rank in range(a.num_tasks)
    )


class TestJsonlContainer:
    def test_round_trip_preserves_labels(self, tmp_path):
        app = labelled_application()
        path = write_trace(app, tmp_path / "app.jsonl", format="jsonl")
        rebuilt = read_trace(path)
        assert apps_equal(rebuilt, app)
        # the text format loses labels — the container is the upgrade path
        text_rebuilt = read_trace(write_trace(app, tmp_path / "app.trace"))
        assert text_rebuilt.trace(0).events[0].label == ""
        assert rebuilt.trace(0).events[0].label == "panel"

    def test_read_trace_autodetects_both_formats(self, tmp_path):
        app = generate_linpack(problem_size=1000, block_size=250, num_tasks=4)
        text_path = write_trace(app, tmp_path / "hpl.trace", format="text")
        jsonl_path = write_trace(app, tmp_path / "hpl.jsonl", format="jsonl")
        from_text = read_trace(text_path)
        from_jsonl = read_trace(jsonl_path)
        assert apps_equal(from_jsonl, app)
        assert from_text.num_tasks == from_jsonl.num_tasks
        assert [len(from_text.trace(r)) for r in range(4)] == \
            [len(from_jsonl.trace(r)) for r in range(4)]

    def test_loaded_applications_are_unfrozen(self, tmp_path):
        """Readers build new applications: a frozen source does not make
        them frozen, and they stay open for more events."""
        app = labelled_application().freeze()
        loaded = [
            read_trace(write_trace(app, tmp_path / "app.trace")),
            read_trace(write_trace(app, tmp_path / "app.jsonl", format="jsonl")),
            records_to_application(application_to_records(app)),
        ]
        for rebuilt in loaded:
            assert not rebuilt.frozen
            rebuilt.add_compute(0, duration=1.0)

    def test_empty_application_round_trips(self, tmp_path):
        app = Application(num_tasks=2, name="empty")
        path = write_trace(app, tmp_path / "empty.jsonl", format="jsonl")
        rebuilt = read_trace(path)
        assert rebuilt.num_tasks == 2
        assert rebuilt.name == "empty"
        assert all(len(rebuilt.trace(r)) == 0 for r in range(2))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            write_trace(labelled_application(), tmp_path / "x", format="xml")

    def test_records_shape(self):
        records = application_to_records(labelled_application())
        assert records[0].kind == "app.meta"
        assert records[0].data == {"num_tasks": 3, "name": "container-app"}
        kinds = [r.kind for r in records[1:]]
        assert set(kinds) <= {"app.compute", "app.send", "app.recv",
                              "app.barrier"}
        # wildcard receives serialise src as None
        recv = next(r for r in records if r.kind == "app.recv"
                    and r.subject == 2)
        assert recv.data["src"] is None

    def test_app_records_can_live_inside_a_mixed_trace(self, tmp_path):
        """An application container embedded in a simulation trace reads back."""
        path = tmp_path / "mixed.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.emit(TraceRecord(0.0, "calendar.activate", "t0",
                                  {"src": 0, "dst": 1, "size": 1.0}))
            for record in application_to_records(labelled_application()):
                sink.emit(record)
            sink.emit(TraceRecord(1.0, "calendar.complete", "t0", {}))
        rebuilt = records_to_application(read_trace_log(path))
        assert apps_equal(rebuilt, labelled_application())

    def test_global_barrier_subject_and_bad_ranks(self):
        """``subject="*"`` is the documented global-barrier form; other
        non-integer subjects fail inside the TraceError hierarchy."""
        meta = TraceRecord(0.0, "app.meta", None, {"num_tasks": 2, "name": ""})
        app = records_to_application([
            meta,
            TraceRecord(0.0, "app.barrier", "*", {"label": "sync"}),
        ])
        for rank in range(2):
            events = list(app.trace(rank))
            assert len(events) == 1 and events[0].label == "sync"
        with pytest.raises(TraceError):
            records_to_application([
                meta, TraceRecord(0.0, "app.compute", "north",
                                  {"duration": 1.0}),
            ])

    def test_missing_meta_is_an_error(self):
        with pytest.raises(TraceError):
            records_to_application([
                TraceRecord(0.0, "app.send", 0,
                            {"dst": 1, "size": 10, "tag": 0}),
            ])

    def test_duplicate_meta_is_an_error(self):
        meta = TraceRecord(0.0, "app.meta", None, {"num_tasks": 2, "name": ""})
        with pytest.raises(TraceError):
            records_to_application([meta, meta])
