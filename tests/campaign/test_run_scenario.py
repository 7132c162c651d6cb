"""``run_scenario``: the one path from a scenario to a finished simulation."""

from __future__ import annotations

from repro.campaign import InterferenceSpec, ScenarioSpec, WorkloadSpec, run_scenario
from repro.core import PenaltyCache
from repro.simulator import EmulatorRateProvider, ModelRateProvider
from repro.trace import MemoryTraceSink


def loaded_ring(**overrides) -> ScenarioSpec:
    fields = dict(
        scenario_id="ring",
        workload=WorkloadSpec(kind="collective", name="ring-allgather",
                              params=(("size", 1_000_000),)),
        network="ethernet", model="auto", num_hosts=4, placement="RRP", seed=0,
        interference=InterferenceSpec.from_dict({
            "name": "loaded",
            "background": {"rate": 150, "size": "1M", "max_flows": 4},
        }),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestRunScenario:
    def test_a_trace_opens_with_the_run_meta_header(self):
        scenario = loaded_ring()
        sink = MemoryTraceSink()
        run_scenario(scenario, 2, mode="emulated", trace=sink)
        first = sink.records[0]
        assert first.kind == "run.meta"
        assert first.data == scenario.run_meta(2, mode="emulated")
        assert [r.kind for r in sink.records].count("run.meta") == 1

    def test_injectors_replace_the_scenarios_own(self):
        scenario = loaded_ring()
        loaded, loaded_sim = run_scenario(scenario, 2)
        assert loaded_sim.last_engine_stats.background_flows > 0
        clean, clean_sim = run_scenario(scenario, 2, injectors=())
        assert clean_sim.config.injectors == ()
        assert clean_sim.last_engine_stats.background_flows == 0
        twin, _ = run_scenario(loaded_ring(interference=InterferenceSpec()), 2)
        assert clean.records == twin.records
        assert loaded.total_time != clean.total_time

    def test_the_mode_picks_the_rate_provider(self):
        cache = PenaltyCache()
        _, predictive = run_scenario(loaded_ring(), 2, cache=cache)
        assert isinstance(predictive.rate_provider, ModelRateProvider)
        assert predictive.mode == "predictive"
        assert predictive.model_name == "gigabit-ethernet"
        assert len(cache) > 0  # the scenario priced through the given cache
        _, emulated = run_scenario(loaded_ring(), 2, mode="emulated")
        assert isinstance(emulated.rate_provider, EmulatorRateProvider)
        assert emulated.mode == "emulated"

    def test_metrics_are_sampled_only_into_a_trace(self):
        sink = MemoryTraceSink()
        _, traced = run_scenario(loaded_ring(), 2, trace=sink, metrics_every=1)
        assert any(r.kind == "metrics.sample" for r in sink.records)
        assert traced.config.metrics is not None
        _, untraced = run_scenario(loaded_ring(), 2, metrics_every=1)
        assert untraced.config.metrics is None

    def test_unset_axes_take_their_defaults(self):
        scenario = loaded_ring(num_hosts=None, placement=None, seed=None,
                               interference=None)
        report, simulator = run_scenario(scenario, 2)
        assert simulator.cluster.num_nodes == 1
        assert report.placement_policy == "RRP"
        assert report.num_tasks == 2
