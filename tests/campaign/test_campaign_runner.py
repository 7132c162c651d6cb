"""Runner tests: parallel-vs-serial bit-exactness over random campaigns."""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CampaignResultStore,
    resolve_model,
)
from repro.core import PenaltyCache
from repro.exceptions import WorkloadError


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
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_thread_parallel_matches_serial(self, seed):
        spec = random_campaign(seed)
        serial = CampaignRunner(spec, max_workers=1).run()
        threaded = CampaignRunner(spec, max_workers=4, backend="thread").run()
        assert dumps(serial) == dumps(threaded)  # == on floats: bit-exact

    def test_process_parallel_matches_serial(self):
        spec = random_campaign(3)
        serial = CampaignRunner(spec, max_workers=1).run()
        processes = CampaignRunner(spec, max_workers=2, backend="process").run()
        assert dumps(serial) == dumps(processes)

    def test_shared_cache_does_not_change_results(self):
        spec = random_campaign(11)
        isolated = CampaignRunner(spec, cache=PenaltyCache(max_entries=0)).run()
        shared = CampaignRunner(spec, cache=PenaltyCache()).run()
        assert dumps(isolated) == dumps(shared)

    def test_matches_direct_model_pricing(self):
        """Campaign penalties equal straight ``model.penalties`` on the graph."""
        spec = random_campaign(5)
        store = CampaignRunner(spec, max_workers=4).run()
        for scenario in spec.scenarios():
            if scenario.is_application:
                continue
            model = resolve_model(scenario.model, scenario.network)
            expected = model.penalties(scenario.build_graph())
            assert store.by_id(scenario.scenario_id).penalties == expected


class TestRunnerBehaviour:
    def test_results_keep_scenario_order(self):
        spec = random_campaign(2)
        store = CampaignRunner(spec, max_workers=4).run()
        assert [r.scenario_id for r in store.results] == \
            [s.scenario_id for s in spec.scenarios()]

    def test_cache_sharing_reduces_evaluations(self):
        spec = random_campaign(9)
        cold = CampaignRunner(spec, cache=PenaltyCache(max_entries=0)).run()
        warmable = CampaignRunner(spec, cache=PenaltyCache()).run()
        assert warmable.stats["comm_evaluations"] < cold.stats["comm_evaluations"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(WorkloadError):
            CampaignRunner(random_campaign(0), backend="quantum")

    def test_tiny_lru_keeps_results_exact_and_stats_sane(self):
        """Eviction pressure may cost re-evaluations, never wrong results."""
        spec = random_campaign(11)
        serial = CampaignRunner(spec, cache=PenaltyCache(max_entries=2)).run()
        parallel = CampaignRunner(spec, cache=PenaltyCache(max_entries=2),
                                  max_workers=4).run()
        assert dumps(serial) == dumps(parallel)
        assert all(v >= 0 for v in parallel.stats.values()), parallel.stats

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
