"""``EventRecord``: an immutable tuple type built once per executed event.

The engine builds records positionally; traces rebuild them by keyword
(``records_from_trace``).  Both must give equal, hashable, immutable
records with the field names, order and defaults of the report API.
"""

from __future__ import annotations

import pytest

from repro.analysis import records_from_trace
from repro.cluster import custom_cluster
from repro.core import GigabitEthernetModel
from repro.simulator import ANY_SOURCE, Application, Simulator
from repro.simulator.report import EventRecord
from repro.trace import MemoryTraceSink
from repro.units import KiB, MB


class TestEventRecord:
    def test_assignment_raises_attribute_error(self):
        record = EventRecord(rank=0, index=0, kind="send", start=0.0, end=1.0)
        with pytest.raises(AttributeError):
            record.end = 2.0  # type: ignore[misc]
        with pytest.raises(AttributeError):
            record.extra = 1  # type: ignore[attr-defined]

    def test_positional_and_keyword_records_are_equal_and_hash_alike(self):
        positional = EventRecord(3, 1, "send", 0.5, 2.0, 10, 4, "halo", 1.5)
        keyword = EventRecord(rank=3, index=1, kind="send", start=0.5, end=2.0,
                              size=10, peer=4, label="halo", penalty=1.5)
        assert positional == keyword
        assert hash(positional) == hash(keyword)
        assert len({positional, keyword}) == 1
        assert positional != keyword._replace(penalty=1.25)

    def test_field_order_defaults_and_duration(self):
        assert EventRecord._fields == ("rank", "index", "kind", "start", "end",
                                       "size", "peer", "label", "penalty")
        record = EventRecord(rank=1, index=2, kind="compute", start=0.5, end=2.0)
        assert (record.size, record.peer, record.label, record.penalty) == (0, None, "", None)
        assert record.duration == 1.5


def mixed_application() -> Application:
    """Every record kind: computes (seconds and flops), eager and
    rendezvous sends, specific and wildcard receives, labelled barriers."""
    app = Application(num_tasks=4, name="mixed")
    for rank in range(4):
        app.add_compute(rank, duration=0.001 * (rank + 1), label=f"warmup-{rank}")
    app.add_barrier(label="start")
    app.add_send(1, 0, 2 * MB, tag=1, label="big")
    app.add_send(2, 0, 4 * KiB, tag=1, label="small")
    app.add_recv(0, ANY_SOURCE, tag=1)
    app.add_recv(0, 2, tag=1, label="from-2")
    app.add_send(3, 1, 1 * MB)
    app.add_recv(1, 3)
    app.add_compute(3, flops=2.0e7)
    app.add_barrier(label="end")
    return app


def test_records_from_trace_equal_the_engine_records():
    cluster = custom_cluster(num_nodes=2, cores_per_node=2, technology="ethernet")
    sink = MemoryTraceSink()
    simulator = Simulator.predictive(cluster, model=GigabitEthernetModel(), trace=sink)
    report = simulator.run(mixed_application(), placement="RRN")
    assert {r.kind for r in report.records} == {"compute", "send", "recv", "barrier"}
    assert any(r.penalty is not None and r.penalty > 1.0 for r in report.records)
    rebuilt = records_from_trace(sink.log())
    assert rebuilt == report.records
    assert all(type(record) is EventRecord for record in rebuilt)
