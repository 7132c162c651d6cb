"""Regression tests: SimulationReport helpers on empty / degenerate records.

These edge cases surfaced while porting the helpers onto trace-backed
records (``repro.analysis.timeline.records_from_trace`` feeds rebuilt
records through the same API): a trace with no sends, a zero-event trace,
or an out-of-range rank must behave exactly like the live-report cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator.report import EventRecord, SimulationReport


def empty_report(num_tasks: int = 2) -> SimulationReport:
    return SimulationReport(
        application_name="empty", model_name="m", placement_policy="RRP",
        num_tasks=num_tasks,
    )


class TestEmptyRecords:
    def test_time_aggregates_are_floats(self):
        report = empty_report()
        for value in (report.communication_time(0), report.receive_time(0),
                      report.compute_time(0), report.total_time):
            assert isinstance(value, float)
            assert value == 0.0
        assert report.communication_times() == {0: 0.0, 1: 0.0}

    def test_out_of_range_rank_is_empty_not_an_error(self):
        report = empty_report()
        assert report.records_for(99) == []
        assert report.records_for(-1, "send") == []
        assert report.communication_time(99) == 0.0
        assert report.task_time(99) == 0.0

    def test_penalties_default_to_one(self):
        report = empty_report()
        assert report.average_penalty == 1.0
        assert report.max_penalty == 1.0

    def test_penalty_histogram_empty_shape(self):
        counts, edges = empty_report().penalty_histogram(bins=4)
        assert counts.shape == (4,)
        assert edges.shape == (5,)
        assert counts.sum() == 0
        assert edges[0] == 1.0 and edges[-1] == 2.0

    def test_penalty_histogram_rejects_bad_bins_consistently(self):
        # the empty path used to accept bins=0 silently while the numpy
        # path raised — both must reject it now
        with pytest.raises(ValueError):
            empty_report().penalty_histogram(bins=0)
        loaded = empty_report()
        loaded.records.append(EventRecord(
            rank=0, index=0, kind="send", start=0.0, end=1.0, size=1,
            peer=1, penalty=1.5,
        ))
        with pytest.raises(ValueError):
            loaded.penalty_histogram(bins=0)

    def test_tables_render_without_records(self):
        report = empty_report()
        table = report.per_task_table()
        assert table.count("\n") == 3  # header + rule + 2 task rows
        assert "0.0000" in table
        assert "empty" in report.summary()


class TestDegenerateRecords:
    def test_sends_without_penalty_are_excluded_from_penalty_stats(self):
        report = empty_report()
        report.records.append(EventRecord(
            rank=0, index=0, kind="send", start=0.0, end=1.0, size=10,
            peer=1, penalty=None,
        ))
        assert report.average_penalty == 1.0
        counts, _ = report.penalty_histogram(bins=3)
        assert counts.sum() == 0
        assert report.communication_time(0) == 1.0

    def test_single_penalty_value_histogram(self):
        report = empty_report()
        report.records.append(EventRecord(
            rank=0, index=0, kind="send", start=0.0, end=1.0, size=10,
            peer=1, penalty=2.25,
        ))
        counts, edges = report.penalty_histogram(bins=5)
        assert counts.sum() == 1
        assert edges.shape == (6,)
        assert np.all(np.diff(edges) > 0)  # non-degenerate bin widths

    def test_kind_filter(self):
        report = empty_report()
        report.records.append(EventRecord(
            rank=1, index=0, kind="recv", start=0.5, end=1.5, size=10, peer=0,
        ))
        assert report.records_for(1, "send") == []
        assert len(report.records_for(1, "recv")) == 1
        assert report.receive_time(1) == 1.0
        assert report.bytes_sent(1) == 0
