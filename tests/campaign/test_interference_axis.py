"""The campaign interference axis: spec round-trips, expansion, execution."""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    InterferenceSpec,
    WorkloadSpec,
)
from repro.analysis import interference_slowdowns
from repro.exceptions import WorkloadError


def spec_dict(interference):
    return {
        "name": "loaded-sweep",
        "workloads": [
            {"kind": "scheme", "name": "fig2-s2"},
            {"kind": "collective", "name": "broadcast", "params": {"size": "1M"}},
        ],
        "networks": ["ethernet"],
        "host_counts": [4],
        "placements": ["RRP"],
        "seeds": [0],
        "interference": interference,
    }


LOADED = {
    "name": "loaded",
    "background": {"rate": 200, "size": "2M", "max_flows": 16, "seed": 1},
    "link_degradation": {"factor": 0.5, "start": 0.0, "until": 0.1},
}


class TestInterferenceSpec:
    def test_round_trip_through_dict(self):
        spec = InterferenceSpec.from_dict(LOADED)
        assert spec.name == "loaded"
        assert not spec.is_clean
        assert InterferenceSpec.from_dict(spec.to_dict()) == spec
        assert InterferenceSpec.from_dict("none").is_clean
        assert InterferenceSpec.from_dict("none").to_dict() == "none"
        # a named entry with no sections must round-trip as a mapping too
        named = InterferenceSpec.from_dict({"name": "placeholder"})
        assert InterferenceSpec.from_dict(named.to_dict()) == named

    def test_size_strings_are_parsed(self):
        spec = InterferenceSpec.from_dict(LOADED)
        injectors = spec.build_injectors(seed=0)
        background = injectors[0]
        assert background.size == 2_000_000.0
        assert background.seed == 1  # spec seed + scenario seed offset

    def test_scenario_seed_offsets_the_background_seed(self):
        spec = InterferenceSpec.from_dict(LOADED)
        assert spec.build_injectors(seed=5)[0].seed == 6

    def test_bad_specs_are_rejected(self):
        with pytest.raises(WorkloadError):
            InterferenceSpec.from_dict({"name": "x", "background": {"bogus": 1}})
        with pytest.raises(WorkloadError):
            InterferenceSpec.from_dict({"name": "x", "unknown_section": {}})
        with pytest.raises(WorkloadError):
            InterferenceSpec.from_dict("sometimes")

    def test_specs_are_picklable(self):
        import pickle

        spec = InterferenceSpec.from_dict(LOADED)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestCampaignExpansion:
    def test_graph_workloads_collapse_the_interference_axis(self):
        campaign = CampaignSpec.from_dict(spec_dict(["none", LOADED]))
        scenarios = campaign.scenarios()
        graph = [s for s in scenarios if not s.is_application]
        apps = [s for s in scenarios if s.is_application]
        assert len(graph) == 1 and graph[0].interference is None
        assert [s.interference.name for s in apps] == ["none", "loaded"]
        assert apps[1].scenario_id.endswith("loaded")
        assert apps[0].axes()["interference"] == "none"

    def test_default_axis_is_clean_and_ids_are_unchanged(self):
        data = spec_dict(["none"])
        del data["interference"]
        campaign = CampaignSpec.from_dict(data)
        apps = [s for s in campaign.scenarios() if s.is_application]
        assert apps[0].interference == InterferenceSpec()
        assert apps[0].build_injectors() == ()
        # clean entries never decorate the scenario id (backward compatible)
        assert not apps[0].scenario_id.endswith("none")

    def test_spec_round_trips_through_dict(self):
        campaign = CampaignSpec.from_dict(spec_dict(["none", LOADED]))
        again = CampaignSpec.from_dict(campaign.to_dict())
        assert [s.scenario_id for s in again.scenarios()] == \
            [s.scenario_id for s in campaign.scenarios()]


class TestCampaignExecution:
    def run(self, workers):
        campaign = CampaignSpec.from_dict(spec_dict(["none", LOADED]))
        return CampaignRunner(campaign, max_workers=workers).run()

    def test_loaded_scenarios_are_slower_and_reported(self):
        store = self.run(workers=1)
        rows = interference_slowdowns(store)
        assert [row["interference"] for row in rows] == ["none", "loaded"]
        assert rows[0]["slowdown"] == pytest.approx(1.0)
        assert rows[1]["slowdown"] is not None and rows[1]["slowdown"] > 1.0
        # graph scenarios stay out of the interference report
        assert len(rows) == 2 and len(store) == 3

    def test_process_pool_matches_inline(self):
        inline = self.run(workers=1)
        pooled = self.run(workers=2)
        reference = [(r.axes, r.metrics, r.times) for r in inline]
        assert [(r.axes, r.metrics, r.times) for r in pooled] == reference

    def test_same_name_workloads_with_different_params_keep_their_baselines(self):
        """Clean-twin pairing must key on the params, not just the name."""
        campaign = CampaignSpec.from_dict({
            "name": "sized",
            "workloads": [
                {"kind": "collective", "name": "broadcast", "params": {"size": "256K"}},
                {"kind": "collective", "name": "broadcast", "params": {"size": "4M"}},
            ],
            "networks": ["ethernet"],
            "host_counts": [4],
            "placements": ["RRP"],
            "seeds": [0],
            "interference": ["none", LOADED],
        })
        store = CampaignRunner(campaign).run()
        rows = interference_slowdowns(store)
        assert len(rows) == 4
        clean = {row["workload_params"]: row for row in rows
                 if row["interference"] == "none"}
        assert len(clean) == 2  # the two sizes stay distinguishable
        for row in rows:
            twin = clean[row["workload_params"]]
            assert row["baseline_time"] == twin["total_time"]
        small, large = clean.values()
        assert small["total_time"] != large["total_time"]

    def test_csv_rows_carry_the_interference_column(self, tmp_path):
        store = self.run(workers=1)
        out = tmp_path / "rows.csv"
        store.to_csv(out)
        header, *rows = out.read_text().strip().splitlines()
        assert "interference" in header.split(",")
        assert any(",loaded," in row for row in rows)


class TestWorkloadSpecStillValidates:
    def test_interference_requires_application_workloads_to_matter(self):
        campaign = CampaignSpec(
            name="graphs-only",
            workloads=[WorkloadSpec(kind="scheme", name="fig2-s2")],
            interference=[InterferenceSpec.from_dict(LOADED)],
        )
        # graph-only campaigns simply collapse the axis
        assert all(s.interference is None for s in campaign.scenarios())
