"""Persistence tests: save → reload → identical hits, corruption tolerance."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, PersistentPenaltyCache
from repro.campaign.persistence import canonical_key
from repro.core import (
    EthernetParameters,
    GigabitEthernetModel,
    InfinibandModel,
    InfinibandParameters,
    MyrinetModel,
)
from repro.core.incremental import IncrementalPenaltyEngine
from repro.exceptions import GraphError
from repro.workloads import random_graph_scheme


def small_campaign() -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "cache-roundtrip",
        "workloads": [
            {"kind": "synthetic", "name": "random-tree"},
            {"kind": "synthetic", "name": "random"},
        ],
        "networks": ["ethernet", "myrinet"],
        "host_counts": [8],
        "seeds": [0, 1],
    })


class TestCanonicalKey:
    def test_stable_across_model_instances(self):
        key_a = canonical_key((MyrinetModel().memo_key(), ((0, 1), (0, 2))))
        key_b = canonical_key((MyrinetModel().memo_key(), ((0, 1), (0, 2))))
        assert key_a == key_b

    def test_distinguishes_models_and_snapshots(self):
        snapshot = ((0, 1), (0, 2))
        assert canonical_key((MyrinetModel().memo_key(), snapshot)) != \
            canonical_key((GigabitEthernetModel().memo_key(), snapshot))
        assert canonical_key((MyrinetModel().memo_key(), ((0, 1),))) != \
            canonical_key((MyrinetModel().memo_key(), snapshot))

    def test_type_tagging_keeps_scalars_apart(self):
        assert canonical_key((1,)) != canonical_key((1.0,))
        assert canonical_key((1,)) != canonical_key((True,))
        assert canonical_key(("1",)) != canonical_key((1,))

    def test_rejects_unserialisable_components(self):
        with pytest.raises(GraphError):
            canonical_key((object(),))

    @pytest.mark.parametrize("model, encoded_model", [
        (GigabitEthernetModel(),
         '["t",[["s","repro.core.ethernet_model"],["s","GigabitEthernetModel"],'
         '["d","repro.core.ethernet_model.EthernetParameters",'
         '[["f","0x1.8000000000000p-1"],["f","0x1.d70a3d70a3d71p-4"],'
         '["f","0x1.26e978d4fdf3bp-5"]]]]]'),
        (MyrinetModel(),
         '["t",[["s","repro.core.myrinet_model"],["s","MyrinetModel"],'
         '["s","endpoint"],["i",26],["b",true]]]'),
        (InfinibandModel(),
         '["t",[["s","repro.core.infiniband_model"],["s","InfinibandModel"],'
         '["d","repro.core.infiniband_model.InfinibandParameters",'
         '[["f","0x1.bd70a3d70a3d7p-1"],["f","0x0.0p+0"],["f","0x0.0p+0"],'
         '["f","0x1.ae147ae147ae1p-2"],["f","0x1.810624dd2f1aap-5"]]]]]'),
    ], ids=["gige", "myrinet", "infiniband"])
    def test_shipped_model_keys_are_pinned(self, model, encoded_model):
        """A persisted cache is found again only if these strings never move."""
        snapshot = '["t",[["t",[["i",0],["i",1]]],["t",[["i",0],["i",2]]]]]'
        assert canonical_key((model.memo_key(), ((0, 1), (0, 2)))) == \
            f'["t",[{encoded_model},{snapshot}]]'

    @pytest.mark.parametrize("parameters", [EthernetParameters(), InfinibandParameters()],
                             ids=["ethernet", "infiniband"])
    def test_parameter_hash_is_the_hash_of_the_field_tuple(self, parameters):
        fields = tuple(getattr(parameters, f.name) for f in dataclasses.fields(parameters))
        assert hash(parameters) == hash(fields)


def engine_penalties(model, cache, graph):
    """Price ``graph`` as arrivals into a fresh engine; return the engine too."""
    engine = IncrementalPenaltyEngine(model, cache=cache)
    for comm in graph:
        engine.add(comm.name, comm.src, comm.dst, comm.size)
    return engine, engine.penalties()


class TestRoundtrip:
    def test_reload_serves_identical_hits(self, tmp_path):
        path = tmp_path / "cache.json"
        model = MyrinetModel()
        graph = random_graph_scheme(10, 14, seed=3)

        cache = PersistentPenaltyCache(path)
        _, expected = engine_penalties(model, cache, graph)
        assert expected == model.penalties(graph)
        assert cache.save() == len(cache) > 0

        reloaded = PersistentPenaltyCache.load(path)
        assert reloaded.load_error is None
        assert reloaded.loaded_entries == len(cache)
        warm, replayed = engine_penalties(model, reloaded, graph)
        assert replayed == expected          # bit-exact, not approx
        assert warm.stats.cache_misses == 0
        assert warm.stats.comm_evaluations == 0

    def test_campaign_second_run_is_all_hits(self, tmp_path):
        path = tmp_path / "cache.json"
        spec = small_campaign()

        cold_cache = PersistentPenaltyCache.load(path)
        cold = CampaignRunner(spec, cache=cold_cache).run()
        assert cold.stats["comm_evaluations"] > 0
        cold_cache.save()

        warm_cache = PersistentPenaltyCache.load(path)
        warm = CampaignRunner(spec, cache=warm_cache).run()
        assert warm.stats["comm_evaluations"] == 0
        assert warm.stats["cache_misses"] == 0
        assert [r.to_dict() for r in warm.results] == \
            [r.to_dict() for r in cold.results]

    def test_lru_order_and_values_survive(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = PersistentPenaltyCache(path, max_entries=8)
        for i in range(8):
            cache.put((i,), {(0, 1): 1.0 + i / 7.0})
        cache.save()
        reloaded = PersistentPenaltyCache.load(path, max_entries=8)
        for i in range(8):
            assert reloaded.get((i,)) == {(0, 1): 1.0 + i / 7.0}
        # inserting one more evicts the oldest entry, like the original
        reloaded.put((99,), {(0, 1): 2.0})
        assert reloaded.get((0,)) is None


class TestCorruptionTolerance:
    @pytest.mark.parametrize("payload", [
        "{not json at all",
        '"a bare string"',
        '{"version": 99, "entries": []}',
        '{"version": 1}',
        '{"version": 1, "entries": [{"key": 42, "penalties": []}]}',
        '{"version": 1, "entries": [{"key": "k", "penalties": [["x", 0, 1.0]]}]}',
        "",
    ])
    def test_corrupted_file_yields_empty_cache(self, tmp_path, payload):
        path = tmp_path / "cache.json"
        path.write_text(payload, encoding="utf-8")
        cache = PersistentPenaltyCache.load(path)
        assert len(cache) == 0
        assert cache.load_error is not None
        # and the cache stays fully usable
        cache.put(("k",), {(0, 1): 1.5})
        assert cache.get(("k",)) == {(0, 1): 1.5}
        cache.save()
        assert PersistentPenaltyCache.load(path).get(("k",)) == {(0, 1): 1.5}

    def test_missing_file_is_fine(self, tmp_path):
        cache = PersistentPenaltyCache.load(tmp_path / "nope.json")
        assert len(cache) == 0 and cache.load_error is None

    def test_save_without_path_raises(self):
        with pytest.raises(GraphError):
            PersistentPenaltyCache().save()

    def test_save_is_atomic_on_reentry(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = PersistentPenaltyCache(path)
        cache.put(("k",), {(0, 1): 1.0})
        cache.save()
        before = path.read_text(encoding="utf-8")
        json.loads(before)  # well-formed
        cache.put(("k2",), {(0, 2): 2.0})
        cache.save()
        assert len(PersistentPenaltyCache.load(path)) == 2


class TestPersistentCacheTelemetry:
    def test_stats_include_persistence_details(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = PersistentPenaltyCache(path=path)
        cache.put(("k", 1), {(0, 1): 1.5})
        cache.get(("k", 1))
        cache.save()
        reloaded = PersistentPenaltyCache.load(path)
        reloaded.get(("k", 1))
        summary = reloaded.stats()
        assert summary["loaded_entries"] == 1
        assert summary["load_failed"] == 0.0
        assert summary["hits"] == 1
        assert summary["entries_never_hit"] == 0

    def test_stats_flag_swallowed_load_failure(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{ not json", encoding="utf-8")
        cache = PersistentPenaltyCache.load(path)
        assert cache.stats()["load_failed"] == 1.0
        assert cache.stats()["loaded_entries"] == 0
