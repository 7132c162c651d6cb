"""Runner tests: process-pool-vs-inline bit-exactness over random campaigns."""

from __future__ import annotations

import json
import multiprocessing
import pickle

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CampaignResultStore,
    resolve_model,
)
from repro.campaign import runner as campaign_runner
from repro.core import FairShareModel, PenaltyCache
from repro.core.registry import _REGISTRY, register_model


def random_campaign(seed: int) -> CampaignSpec:
    """A random-ish campaign over both workload families and several axes."""
    return CampaignSpec.from_dict({
        "name": f"random-{seed}",
        "workloads": [
            {"kind": "synthetic", "name": "random-tree"},
            {"kind": "synthetic", "name": "random",
             "params": {"num_communications": 12}},
            {"kind": "scheme", "name": "fig5"},
            {"kind": "collective", "name": "ring-allgather",
             "params": {"size": "1M", "num_tasks": 6}},
        ],
        "networks": ["ethernet", "myrinet"],
        "host_counts": [6, 9],
        "placements": ["RRP", "random"],
        "seeds": [seed, seed + 1],
    })


def dumps(store: CampaignResultStore):
    return [result.to_dict() for result in store.results]


class TestBitExactness:
    @pytest.mark.parametrize("seed", [0, 3, 7, 23])
    def test_process_pool_matches_inline(self, seed):
        spec = random_campaign(seed)
        inline = CampaignRunner(spec, max_workers=1).run()
        pooled = CampaignRunner(spec, max_workers=2).run()
        assert dumps(inline) == dumps(pooled)  # == on floats: bit-exact

    def test_pool_counters_repeat_across_runs(self):
        """Every job starts from the same cache snapshot, so two runs of one
        campaign do the same work, not only give the same results."""
        spec = random_campaign(7)
        first = CampaignRunner(spec, max_workers=2).run()
        second = CampaignRunner(spec, max_workers=2).run()
        assert first.stats == second.stats

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers inherit run-time registrations")
    def test_models_registered_at_run_time_reach_the_workers(self):
        register_model("runtime-fair-share", FairShareModel)
        try:
            spec = CampaignSpec.from_dict({
                "name": "runtime-model",
                "workloads": [{"kind": "collective", "name": "ring-allgather",
                               "params": {"size": "1M", "num_tasks": 4}}],
                "models": ["runtime-fair-share"],
                "host_counts": [4],
                "seeds": [0, 1],
            })
            inline = CampaignRunner(spec, max_workers=1).run()
            pooled = CampaignRunner(spec, max_workers=2).run()
        finally:
            del _REGISTRY["runtime-fair-share"]
        assert dumps(inline) == dumps(pooled)

    def test_shared_cache_does_not_change_results(self):
        spec = random_campaign(11)
        isolated = CampaignRunner(spec, cache=PenaltyCache(max_entries=0)).run()
        shared = CampaignRunner(spec, cache=PenaltyCache()).run()
        assert dumps(isolated) == dumps(shared)

    def test_matches_direct_model_pricing(self):
        """Campaign penalties equal straight ``model.penalties`` on the graph."""
        spec = random_campaign(5)
        store = CampaignRunner(spec, max_workers=2).run()
        for scenario in spec.scenarios():
            if scenario.is_application:
                continue
            model = resolve_model(scenario.model, scenario.network)
            expected = model.penalties(scenario.build_graph())
            assert store.by_id(scenario.scenario_id).penalties == expected


class InlinePool:
    """A stand-in pool that runs its jobs in this process and records the
    pickled size of every application job's arguments."""

    job_bytes: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def map(self, fn, payloads):
        payloads = list(payloads)
        if fn is campaign_runner._app_scenario_job:
            InlinePool.job_bytes.append([len(pickle.dumps(p)) for p in payloads])
        return [fn(p) for p in payloads]


class TestPoolJobs:
    def test_app_job_arguments_do_not_grow_with_the_cache(self, monkeypatch):
        monkeypatch.setattr(campaign_runner, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(campaign_runner, "_worker_seed", None)
        monkeypatch.setattr(InlinePool, "job_bytes", [])
        spec = CampaignSpec.from_dict({
            "name": "apps-only",
            "workloads": [{"kind": "collective", "name": "ring-allgather",
                           "params": {"size": "1M", "num_tasks": 4}}],
            "host_counts": [4],
            "seeds": [0, 1],
        })
        warm = PenaltyCache()
        CampaignRunner(random_campaign(3), cache=warm).run()
        assert len(warm) > 20
        cold_store = CampaignRunner(spec, cache=PenaltyCache(), max_workers=2).run()
        warm_store = CampaignRunner(spec, cache=warm, max_workers=2).run()
        cold_bytes, warm_bytes = InlinePool.job_bytes
        assert len(cold_bytes) == 2
        assert warm_bytes == cold_bytes
        assert dumps(warm_store) == dumps(cold_store)


class TestRunnerBehaviour:
    def test_results_keep_scenario_order(self):
        spec = random_campaign(2)
        store = CampaignRunner(spec, max_workers=2).run()
        assert [r.scenario_id for r in store.results] == \
            [s.scenario_id for s in spec.scenarios()]

    def test_cache_sharing_reduces_evaluations(self):
        spec = random_campaign(9)
        cold = CampaignRunner(spec, cache=PenaltyCache(max_entries=0)).run()
        warmable = CampaignRunner(spec, cache=PenaltyCache()).run()
        assert warmable.stats["comm_evaluations"] < cold.stats["comm_evaluations"]

    def test_tiny_lru_keeps_results_exact_and_stats_sane(self):
        """Eviction pressure may cost re-evaluations, never wrong results."""
        spec = random_campaign(11)
        inline = CampaignRunner(spec, cache=PenaltyCache(max_entries=2)).run()
        pooled = CampaignRunner(spec, cache=PenaltyCache(max_entries=2),
                                max_workers=2).run()
        assert dumps(inline) == dumps(pooled)
        assert all(v >= 0 for v in pooled.stats.values()), pooled.stats

    def test_store_exports(self, tmp_path):
        spec = random_campaign(1)
        store = CampaignRunner(spec).run()
        json_path = tmp_path / "results.json"
        csv_path = tmp_path / "results.csv"
        store.to_json(json_path)
        store.to_csv(csv_path)
        reloaded = CampaignResultStore.from_json(json_path)
        assert dumps(reloaded) == dumps(store)
        header = csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("scenario_id,kind,workload,network,model")
        assert len(csv_path.read_text(encoding="utf-8").splitlines()) == len(store) + 1

    def test_summary_table_lists_every_scenario(self):
        spec = random_campaign(4)
        store = CampaignRunner(spec).run()
        table = store.summary_table()
        for result in store.results:
            assert result.scenario_id in table


def failing_app_campaign() -> CampaignSpec:
    """Four alltoall scenarios; the loaded Myrinet one grows a conflict
    component over the model's enumeration cap."""
    return CampaignSpec.from_dict({
        "name": "fails-on-myrinet",
        "workloads": [{"kind": "collective", "name": "alltoall",
                       "params": {"size": "1M"}}],
        "networks": ["ethernet", "myrinet"],
        "host_counts": [16],
        "interference": [
            "none",
            {"name": "loaded",
             "background": {"rate": 400, "size": "4M", "max_flows": 75}},
        ],
    })


def failing_graph_campaign() -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "graph-fails-on-myrinet",
        "workloads": [{"kind": "synthetic", "name": "complete"}],
        "networks": ["ethernet", "myrinet"],
        "host_counts": [8],
    })


class TestScenarioFailures:
    @pytest.mark.parametrize("make_spec, failed", [
        (failing_app_campaign, "003-alltoall-myrinet-auto-h16-RRP-s0-loaded"),
        (failing_graph_campaign, "001-complete-myrinet-auto-h8-s0"),
    ], ids=["application", "graph"])
    def test_a_failing_scenario_is_recorded_and_the_sweep_finishes(
            self, make_spec, failed):
        spec = make_spec()
        inline = CampaignRunner(spec, max_workers=1).run()
        pooled = CampaignRunner(spec, max_workers=2).run()
        ids = [s.scenario_id for s in spec.scenarios()]
        assert [r.scenario_id for r in inline.results] == \
            [i for i in ids if i != failed]
        assert [f["axes"]["scenario_id"] for f in inline.failures] == [failed]
        assert "enumeration cap" in inline.failures[0]["error"]
        assert dumps(pooled) == dumps(inline)
        assert pooled.failures == inline.failures

    def test_the_other_scenarios_give_their_solo_results(self):
        spec = failing_app_campaign()
        store = CampaignRunner(spec).run()
        for scenario in spec.scenarios()[:3]:
            solo = CampaignSpec(
                name="solo", workloads=[scenario.workload],
                networks=[scenario.network], host_counts=[scenario.num_hosts],
                interference=[scenario.interference],
            )
            (result,) = CampaignRunner(solo).run().results
            assert result.metrics == store.by_id(scenario.scenario_id).metrics
            assert result.times == store.by_id(scenario.scenario_id).times

    def test_an_unknown_model_fails_its_scenarios_alone(self):
        spec = CampaignSpec.from_dict({
            "name": "unknown-model",
            "workloads": [{"kind": "scheme", "name": "fig5"},
                          {"kind": "collective", "name": "broadcast",
                           "params": {"size": "1M", "num_tasks": 4}}],
            "models": ["auto", "no-such-model"],
            "host_counts": [4],
        })
        inline = CampaignRunner(spec).run()
        pooled = CampaignRunner(spec, max_workers=2).run()
        assert [r.axes["model"] for r in inline.results] == ["auto", "auto"]
        assert [f["axes"]["model"] for f in inline.failures] == ["no-such-model"] * 2
        assert "unknown model 'no-such-model'" in inline.failures[0]["error"]
        assert dumps(pooled) == dumps(inline)
        assert pooled.failures == inline.failures

    def test_failures_round_trip_through_json(self, tmp_path):
        store = CampaignRunner(failing_graph_campaign()).run()
        path = tmp_path / "results.json"
        store.to_json(path)
        assert CampaignResultStore.from_json(path).failures == store.failures
        # results written before the store kept failures read as none failed
        data = json.loads(path.read_text(encoding="utf-8"))
        del data["failures"]
        path.write_text(json.dumps(data), encoding="utf-8")
        assert CampaignResultStore.from_json(path).failures == []

    def test_other_exceptions_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a modelling error")

        monkeypatch.setattr(campaign_runner, "cached_predict", broken)
        with pytest.raises(RuntimeError, match="not a modelling error"):
            CampaignRunner(failing_graph_campaign()).run()
