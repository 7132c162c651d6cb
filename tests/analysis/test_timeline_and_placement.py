"""Tests for the trace-timeline and placement-robustness reports."""

from __future__ import annotations

import pytest

from repro.analysis import (
    placement_robustness,
    placement_robustness_table,
    records_from_trace,
    timeline_bins,
    timeline_summary,
    timeline_summary_table,
)
from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.results import CampaignResultStore, ScenarioResult
from repro.cluster import custom_cluster
from repro.simulator import BackgroundTrafficInjector, EngineConfig, Simulator
from repro.trace import MemoryTraceSink, TraceLog, TraceRecord
from repro.units import MB
from repro.workloads import broadcast_application


@pytest.fixture
def traced_run():
    cluster = custom_cluster(num_nodes=4, cores_per_node=2,
                             technology="ethernet")
    sink = MemoryTraceSink()
    sim = Simulator.predictive(
        cluster,
        config=EngineConfig(
            injectors=(BackgroundTrafficInjector(rate=300.0, size=2 * MB, seed=2,
                                                 max_flows=5),),
            trace=sink,
        ),
    )
    report = sim.run(broadcast_application(4, 1 * MB), placement="RRP", seed=0)
    return report, sink.log()


class TestTimeline:
    def test_summary_counts_match_the_run(self, traced_run):
        report, log = traced_run
        summary = timeline_summary(log)
        assert summary["records"] == len(log)
        assert summary["task_events"] == len(report.records)
        assert 1 <= summary["background_flows"] <= 5
        assert summary["activations"] >= summary["completions"]
        assert summary["peak_active_transfers"] >= 1
        assert summary["duration"] == pytest.approx(
            report.total_time, rel=1e-9)

    def test_bins_partition_the_records(self, traced_run):
        _, log = traced_run
        rows = timeline_bins(log, bins=7)
        assert len(rows) == 7
        assert sum(row["records"] for row in rows) == len(log)
        assert rows[0]["t_start"] == min(r.time for r in log)
        assert rows[-1]["t_end"] == pytest.approx(max(r.time for r in log))
        # the final active count is exactly what never finished (background
        # flows still in flight when the last task completed)
        summary = timeline_summary(log)
        assert rows[-1]["active_after"] == (
            summary["activations"] - summary["completions"]
            - summary["cancellations"]
        )

    def test_bins_validation_and_empty_trace(self):
        from repro.exceptions import TraceError

        with pytest.raises(TraceError):
            timeline_bins(TraceLog(), bins=0)
        assert timeline_bins(TraceLog(), bins=5) == []
        summary = timeline_summary(TraceLog())
        assert summary["records"] == 0
        assert summary["duration"] == 0.0
        table = timeline_summary_table(TraceLog())
        assert "trace timeline" in table

    def test_single_instant_trace(self):
        log = TraceLog([TraceRecord(0.5, "calendar.activate", "a",
                                    {"src": 0, "dst": 1, "size": 1.0})])
        rows = timeline_bins(log, bins=3)
        assert sum(row["records"] for row in rows) == 1
        assert rows[-1]["active_after"] == 1

    def test_summary_table_greppable(self, traced_run):
        _, log = traced_run
        table = timeline_summary_table(log, bins=4)
        assert "trace timeline" in table
        assert "records:" in table

    def test_records_from_trace_rebuilds_the_report_records(self, traced_run):
        report, log = traced_run
        rebuilt = records_from_trace(log)
        assert rebuilt == report.records
        assert records_from_trace(TraceLog()) == []


def store_row(placement, interference, total_time, workload="broadcast"):
    return ScenarioResult(
        axes={
            "scenario_id": f"{workload}-{placement}-{interference}",
            "kind": "collective", "workload": workload,
            "workload_params": "()", "network": "ethernet", "model": "auto",
            "num_hosts": 8, "placement": placement, "seed": 0,
            "interference": interference,
        },
        metrics={"total_time": total_time},
    )


class TestPlacementRobustness:
    def build_store(self):
        return CampaignResultStore(campaign="test", results=[
            # RRP: clean 1.0, loaded 1.5 / 2.5  -> mean 2.0
            store_row("RRP", "none", 1.0),
            store_row("RRP", "light", 1.5),
            store_row("RRP", "heavy", 2.5),
            # RRN: clean 1.2, loaded 1.32 / 1.8 -> mean ~1.3 (more robust)
            store_row("RRN", "none", 1.2),
            store_row("RRN", "light", 1.32),
            store_row("RRN", "heavy", 1.8),
        ])

    def test_ranks_placements_by_mean_slowdown(self):
        rows = placement_robustness(self.build_store())
        assert len(rows) == 2
        by_placement = {row["placement"]: row for row in rows}
        assert by_placement["RRN"]["rank"] == 1
        assert by_placement["RRP"]["rank"] == 2
        assert by_placement["RRP"]["mean_slowdown"] == pytest.approx(2.0)
        assert by_placement["RRN"]["max_slowdown"] == pytest.approx(1.5)
        assert by_placement["RRN"]["samples"] == 2
        assert by_placement["RRP"]["mean_clean_time"] == pytest.approx(1.0)

    def test_loaded_rows_without_a_clean_twin_are_skipped(self):
        store = CampaignResultStore(campaign="t", results=[
            store_row("RRP", "heavy", 2.0),  # no "none" twin
        ])
        assert placement_robustness(store) == []

    def test_empty_store(self):
        assert placement_robustness(CampaignResultStore(campaign="t")) == []
        table = placement_robustness_table(CampaignResultStore(campaign="t"))
        assert "placement robustness" in table

    def test_end_to_end_with_a_real_campaign(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "robustness",
            "workloads": [{"kind": "collective", "name": "broadcast",
                           "params": {"size": "1M"}}],
            "host_counts": [4],
            "placements": ["RRP", "RRN"],
            "interference": [
                "none",
                {"name": "bg",
                 "background": {"rate": 200, "size": "2M", "max_flows": 6}},
            ],
        })
        store = CampaignRunner(spec).run()
        rows = placement_robustness(store)
        assert {row["placement"] for row in rows} == {"RRP", "RRN"}
        assert all(row["samples"] == 1 for row in rows)
        assert {row["rank"] for row in rows} == {1, 2}
        table = placement_robustness_table(store)
        assert "RRP" in table and "RRN" in table
