"""Campaign trace toggle: per-scenario JSONL files, spec round-trip."""

from __future__ import annotations

from repro.campaign import CampaignRunner, CampaignSpec, ScenarioSpec, WorkloadSpec
from repro.trace import assert_traces_equal, read_trace_log


def spec_dict(trace_dir=None):
    data = {
        "name": "trace-campaign",
        "workloads": [
            {"kind": "collective", "name": "broadcast", "params": {"size": "1M"}},
            {"kind": "scheme", "name": "fig2-s2"},
        ],
        "host_counts": [4],
        "interference": [
            "none",
            {"name": "bg",
             "background": {"rate": 150, "size": "2M", "max_flows": 4}},
        ],
    }
    if trace_dir is not None:
        data["trace_dir"] = trace_dir
    return data


class TestSpecToggle:
    def test_trace_dir_round_trips_through_dict_and_json(self, tmp_path):
        spec = CampaignSpec.from_dict(spec_dict(trace_dir="traces"))
        assert spec.trace_dir == "traces"
        assert CampaignSpec.from_dict(spec.to_dict()).trace_dir == "traces"
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert CampaignSpec.from_json(path).trace_dir == "traces"

    def test_trace_dir_defaults_to_off_and_is_omitted(self):
        spec = CampaignSpec.from_dict(spec_dict())
        assert spec.trace_dir is None
        assert "trace_dir" not in spec.to_dict()


class TestRunnerTracing:
    def test_traced_campaign_writes_one_file_per_app_scenario(self, tmp_path):
        trace_dir = tmp_path / "traces"
        spec = CampaignSpec.from_dict(spec_dict(trace_dir=str(trace_dir)))
        runner = CampaignRunner(spec)
        store = runner.run()

        paths = runner.trace_paths()
        app_scenarios = [s for s in spec.scenarios() if s.is_application]
        graph_scenarios = [s for s in spec.scenarios() if not s.is_application]
        assert len(paths) == len(app_scenarios) == 2
        assert graph_scenarios  # the scheme workload traces nothing
        for scenario, path in zip(app_scenarios, paths):
            assert path.name == f"{scenario.scenario_id}.jsonl"
            log = read_trace_log(path)
            assert len(log) > 0
            # self-describing: `repro trace replay` needs the run.meta header
            meta = log.meta()
            assert meta["scenario_id"] == scenario.scenario_id
            assert meta["workload"] == scenario.workload.name
            assert meta["hosts"] == scenario.num_hosts
            result = store.by_id(scenario.scenario_id)
            # the trace's task events are the run's report records
            assert log.kinds()["task.event"] > 0
            if scenario.interference and scenario.interference.name != "none":
                assert log.kinds()["inject.flow_start"] > 0
            assert result.metrics["total_time"] > 0

    def test_tracing_does_not_change_results(self, tmp_path):
        clean_spec = CampaignSpec.from_dict(spec_dict())
        traced_spec = CampaignSpec.from_dict(
            spec_dict(trace_dir=str(tmp_path / "t")))
        untraced = CampaignRunner(clean_spec).run()
        traced = CampaignRunner(traced_spec).run()
        assert [r.to_dict() for r in traced] == [r.to_dict() for r in untraced]

    def test_runner_argument_overrides_the_spec(self, tmp_path):
        spec = CampaignSpec.from_dict(spec_dict())
        override = tmp_path / "override"
        runner = CampaignRunner(spec, trace_dir=str(override))
        runner.run()
        assert runner.trace_dir == str(override)
        assert any(override.glob("*.jsonl"))

    def test_memo_hits_give_the_results_and_bytes_of_fresh_builds(
            self, tmp_path, application_memo):
        """Run once with the build memo empty, then again with it filled."""
        spec = CampaignSpec.from_dict(spec_dict())
        runs = []
        for name in ("empty", "filled"):
            store = CampaignRunner(spec, trace_dir=str(tmp_path / name)).run()
            files = {path.name: path.read_bytes()
                     for path in sorted((tmp_path / name).glob("*.jsonl"))}
            runs.append(([r.to_dict() for r in store], files))
            assert len(application_memo) == 1  # both scenarios share one build
        assert runs[0][1] and runs[0] == runs[1]

    def test_process_pool_traces_identically_to_inline(self, tmp_path):
        inline_dir = tmp_path / "inline"
        pooled_dir = tmp_path / "pooled"
        spec = CampaignSpec.from_dict(spec_dict())
        inline_store = CampaignRunner(spec, trace_dir=str(inline_dir)).run()
        pooled_store = CampaignRunner(
            spec, trace_dir=str(pooled_dir), max_workers=2,
        ).run()
        assert [r.to_dict() for r in pooled_store] == \
            [r.to_dict() for r in inline_store]
        inline_files = sorted(p.name for p in inline_dir.glob("*.jsonl"))
        pooled_files = sorted(p.name for p in pooled_dir.glob("*.jsonl"))
        assert inline_files == pooled_files
        for name in inline_files:
            # record-level first: a failure localizes to the first diverging
            # record instead of two opaque file dumps
            assert_traces_equal(read_trace_log(inline_dir / name),
                                read_trace_log(pooled_dir / name),
                                label_a=f"inline/{name}",
                                label_b=f"pooled/{name}")
            assert (inline_dir / name).read_text() == \
                (pooled_dir / name).read_text()


def events_of(application):
    return [list(application.trace(rank)) for rank in range(application.num_tasks)]


class TestRunMeta:
    """`ScenarioSpec.run_meta` and `from_run_meta` are the one trace header."""

    SPEC = {
        "name": "run-meta",
        "workloads": [
            {"kind": "collective", "name": "broadcast",
             "params": {"size": "2M", "root": 2}},
            {"kind": "collective", "name": "flat-gather"},
            {"kind": "linpack", "name": "hpl",
             "params": {"problem_size": 1000, "block_size": 250,
                        "num_tasks": 4, "panel_fraction": 0.5}},
        ],
        "models": ["auto", "fair-share"],
        "host_counts": [4],
        "placements": ["RRN"],
        "seeds": [3],
        "interference": [{"name": "bg", "background": {"rate": 100, "size": "1M"}}],
    }

    def test_round_trip_rebuilds_the_scenario(self):
        for scenario in CampaignSpec.from_dict(self.SPEC).scenarios():
            meta = scenario.run_meta(cores_per_node=2)
            rebuilt = ScenarioSpec.from_run_meta(meta)
            assert rebuilt.run_meta(cores_per_node=2) == meta
            assert events_of(rebuilt.build_application()) == \
                events_of(scenario.build_application())
            for name in ("scenario_id", "network", "model", "num_hosts",
                         "placement", "seed", "interference"):
                assert getattr(rebuilt, name) == getattr(scenario, name), name

    def test_meta_carries_the_arguments_of_each_kind(self):
        broadcast, gather, hpl = [
            s.run_meta(cores_per_node=2)
            for s in CampaignSpec.from_dict(self.SPEC).scenarios()
            if s.model == "auto"
        ]
        assert (broadcast["kind"], broadcast["root"], broadcast["size"]) == \
            ("collective", 2, 2_000_000)
        assert (gather["root"], gather["size"], gather["tasks"]) == (0, 1_000_000, 4)
        assert (hpl["kind"], hpl["workload"], hpl["panel_fraction"]) == \
            ("linpack", "hpl", 0.5)
        assert broadcast["problem_size"] is None and hpl["size"] is None

    def test_headers_of_earlier_traces_still_rebuild(self):
        """Headers without `kind`, `model`, `root` or `panel_fraction`."""
        cli = ScenarioSpec.from_run_meta({
            "workload": "broadcast", "hosts": 4, "tasks": 4, "size": "1M",
            "problem_size": 4000, "block_size": 200, "network": "ethernet",
            "placement": "RRP", "seed": 0, "cores_per_node": 2,
            "mode": "predictive", "interference": "none",
        })
        assert cli.workload == WorkloadSpec(
            "collective", "broadcast", (("num_tasks", 4), ("size", "1M")))
        assert cli.model == "auto"
        linpack = ScenarioSpec.from_run_meta({
            "workload": "linpack", "hosts": 4, "tasks": 4, "size": None,
            "problem_size": 1000, "block_size": 250, "network": "myrinet",
            "placement": "RRN", "seed": 1,
        })
        assert linpack.workload.kind == "linpack"
        assert linpack.workload.param_dict() == {
            "num_tasks": 4, "problem_size": 1000, "block_size": 250}
