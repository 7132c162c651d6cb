"""Regression tests: SimulationReport helpers on empty / degenerate records.

These edge cases surfaced while porting the helpers onto trace-backed
records (``repro.analysis.timeline.records_from_trace`` feeds rebuilt
records through the same API): a trace with no sends, a zero-event trace,
or an out-of-range rank must behave exactly like the live-report cases.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.simulator.report import EventRecord, SimulationReport
from repro.units import format_size


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


# random reports for the one-pass aggregates: the last rank never gets a
# record, and durations span twelve orders of magnitude, so a changed
# summation order or a lost rank shows in the last bit
@st.composite
def random_reports(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    num_tasks = draw(st.integers(2, 6))
    report = empty_report(num_tasks)
    for index in range(draw(st.integers(0, 120))):
        kind = rng.choice(["send", "recv", "compute", "barrier"])
        start = rng.uniform(0.0, 1e3)
        report.records.append(EventRecord(
            rank=rng.randrange(num_tasks - 1), index=index, kind=kind, start=start,
            end=start + 10.0 ** rng.uniform(-9.0, 3.0),
            size=rng.randrange(1 << 40) if kind in ("send", "recv") else 0,
        ))
    return report


def per_rank_rows(report: SimulationReport) -> list:
    """``per_task_table``'s task rows from the per-rank definitions."""
    return [
        f"{rank:>5d} {report.task_time(rank):>12.4f} "
        f"{report.communication_time(rank):>12.4f} "
        f"{report.receive_time(rank):>12.4f} "
        f"{report.compute_time(rank):>12.4f} "
        f"{format_size(report.bytes_sent(rank)):>10s}"
        for rank in range(report.num_tasks)
    ]


class TestOnePassAggregates:
    @settings(max_examples=150, deadline=None)
    @given(random_reports())
    def test_communication_times_equal_the_per_rank_sums_bit_for_bit(self, report):
        times = report.communication_times()
        assert list(times) == list(range(report.num_tasks))
        for rank, value in times.items():
            assert type(value) is float
            assert value.hex() == report.communication_time(rank).hex()
        assert times[report.num_tasks - 1] == 0.0  # a rank with no sends

    @settings(max_examples=60, deadline=None)
    @given(random_reports())
    def test_per_task_table_equals_the_per_rank_columns(self, report):
        assert report.per_task_table().splitlines()[2:] == per_rank_rows(report)
