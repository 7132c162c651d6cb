"""Tests of the declarative campaign spec layer."""

from __future__ import annotations

import pytest

from repro.campaign import CampaignSpec, ScenarioSpec, WorkloadSpec
from repro.campaign import spec as campaign_spec
from repro.core.graph import CommunicationGraph
from repro.exceptions import WorkloadError
from repro.simulator.application import Application
from repro.units import MB


def sample_spec() -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "sample",
        "workloads": [
            {"kind": "scheme", "name": "fig2-s4"},
            {"kind": "synthetic", "name": "random-tree", "params": {"size": "4M"}},
            {"kind": "collective", "name": "broadcast", "params": {"size": "1M"}},
            {"kind": "linpack", "name": "hpl",
             "params": {"problem_size": 2000, "block_size": 250, "num_tasks": 4}},
        ],
        "networks": ["ethernet", "myrinet"],
        "host_counts": [8],
        "placements": ["RRP", "RRN"],
        "seeds": [0, 1],
    })


class TestExpansion:
    def test_axes_collapse_per_workload_kind(self):
        scenarios = sample_spec().scenarios()
        # scheme: 2 networks (hosts/placement/seed collapsed) = 2
        # synthetic: 2 networks × 1 host × 2 seeds = 4
        # collective + linpack: 2 networks × 1 host × 2 placements × 2 seeds = 8 each
        assert len(scenarios) == 2 + 4 + 8 + 8
        by_kind = {}
        for scenario in scenarios:
            by_kind.setdefault(scenario.workload.kind, []).append(scenario)
        assert all(s.num_hosts is None for s in by_kind["scheme"])
        assert all(s.placement is None for s in by_kind["synthetic"])
        assert all(s.placement in ("RRP", "RRN") for s in by_kind["linpack"])

    def test_expansion_is_deterministic_and_ids_unique(self):
        first = [s.scenario_id for s in sample_spec().scenarios()]
        second = [s.scenario_id for s in sample_spec().scenarios()]
        assert first == second
        assert len(set(first)) == len(first)

    def test_graph_workloads_materialize(self):
        for scenario in sample_spec().scenarios():
            if scenario.is_application:
                app = scenario.build_application()
                assert isinstance(app, Application)
            else:
                graph = scenario.build_graph()
                assert isinstance(graph, CommunicationGraph)
                assert len(graph) > 0

    def test_synthetic_seed_changes_the_graph(self):
        spec = sample_spec()
        trees = [s for s in spec.scenarios()
                 if s.workload.name == "random-tree" and s.network == "ethernet"]
        g0, g1 = trees[0].build_graph(), trees[1].build_graph()
        assert g0.to_edge_list() != g1.to_edge_list()


def app_scenario(name="ring-allgather", hosts=4, seed=0, network="ethernet",
                 **params) -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id=f"{name}-h{hosts}-s{seed}",
        workload=WorkloadSpec(kind="collective", name=name,
                              params=tuple(sorted(params.items()))),
        network=network, model="auto", num_hosts=hosts, placement="RRP", seed=seed,
    )


class TestApplicationMemo:
    def test_equal_resolved_arguments_share_one_frozen_application(self, application_memo):
        app = app_scenario(size="1M").build_application()
        assert app.frozen
        assert app_scenario(size=1 * MB).build_application() is app
        assert app_scenario(size="1M", num_tasks=4).build_application() is app
        # the memo keys what the builder reads, not where the scenario runs
        assert app_scenario(size="1M", seed=5, network="myrinet").build_application() is app
        assert app_scenario(size="1M", hosts=5).build_application() is not app
        assert app_scenario(size="2M").build_application() is not app
        assert app_scenario(name="alltoall", size="1M").build_application() is not app
        assert len(application_memo) == 4

    def test_retained_events_never_exceed_the_bound(self, monkeypatch):
        bound = 100
        memo = campaign_spec._ApplicationMemo(bound)
        monkeypatch.setattr(campaign_spec, "_APPLICATIONS", memo)
        retained = {}
        for hosts in (3, 4, 5, 3, 6, 4, 2):
            app = app_scenario(hosts=hosts).build_application()
            assert app.frozen and app.num_events <= bound
            retained[hosts] = app
            assert memo.events <= bound
            assert memo.events == sum(a.num_events for a, _ in memo._entries.values())
            # the application just built or hit is always retained
            assert app_scenario(hosts=hosts).build_application() is app
        # the 6-host application (60 events) evicted the least recently used
        # ones, 4 and 5 hosts, and kept 3 hosts, hit just before it
        assert app_scenario(hosts=3).build_application() is retained[3]
        assert app_scenario(hosts=5).build_application() is not retained[5]

    def test_an_application_over_the_bound_is_not_retained(self, monkeypatch):
        memo = campaign_spec._ApplicationMemo(20)
        monkeypatch.setattr(campaign_spec, "_APPLICATIONS", memo)
        small = app_scenario(hosts=2).build_application()
        large = app_scenario(hosts=6).build_application()
        assert large.frozen and large.num_events > 20
        assert len(memo) == 1 and memo.events == small.num_events
        assert app_scenario(hosts=6).build_application() is not large
        assert app_scenario(hosts=2).build_application() is small


class TestLoaders:
    def test_dict_roundtrip(self):
        spec = sample_spec()
        assert CampaignSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_json_roundtrip(self, tmp_path):
        spec = sample_spec()
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert CampaignSpec.from_json(path).to_dict() == spec.to_dict()

    def test_size_strings_are_parsed(self):
        workload = WorkloadSpec.from_dict(
            {"kind": "synthetic", "name": "random-tree", "params": {"size": "4M"}}
        )
        spec = CampaignSpec(name="s", workloads=[workload], host_counts=[4])
        graph = spec.scenarios()[0].build_graph()
        assert all(c.size == 4 * MB for c in graph)

    def test_rejects_unknown_keys_kinds_and_policies(self):
        with pytest.raises(WorkloadError):
            CampaignSpec.from_dict({"name": "x", "workloads": [], "frobnicate": 1})
        with pytest.raises(WorkloadError):
            WorkloadSpec.from_dict({"kind": "quantum", "name": "x"})
        with pytest.raises(WorkloadError):
            WorkloadSpec.from_dict({"kind": "synthetic", "name": "moebius"})
        with pytest.raises(WorkloadError):
            CampaignSpec.from_dict({
                "name": "x",
                "workloads": [{"kind": "scheme", "name": "fig4"}],
                "placements": ["teleport"],
            })
        with pytest.raises(WorkloadError):
            CampaignSpec.from_dict({"name": "empty", "workloads": []})

    def test_unreadable_file_raises_workload_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(WorkloadError):
            CampaignSpec.from_json(path)
        with pytest.raises(WorkloadError):
            CampaignSpec.from_json(tmp_path / "missing.json")
