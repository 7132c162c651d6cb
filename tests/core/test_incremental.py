"""Tests for the incremental contention engine (repro.core.incremental)."""

from __future__ import annotations

import pytest

from repro.core import (
    ContentionModel,
    EngineStats,
    FairShareModel,
    GigabitEthernetModel,
    IncrementalPenaltyEngine,
    InfinibandModel,
    MyrinetModel,
    PenaltyCache,
    cached_penalties,
)
from repro.core.graph import Communication, CommunicationGraph, ConflictRule
from repro.exceptions import GraphError
from repro.workloads import random_graph_scheme


def comm(name, src, dst, size=1000):
    return Communication(name, src, dst, size=size)


def track(engine, *comms):
    """Hand each communication to the engine as an arrival, keyed by its name."""
    for c in comms:
        engine.add(c.name, c.src, c.dst, c.size)


class TestComponentPenaltiesEntryPoint:
    def test_component_scoped_evaluation_matches_full(self):
        graph = CommunicationGraph.from_edges([(0, 1), (0, 2), (5, 6), (7, 6)])
        model = GigabitEthernetModel()
        full = model.penalties(graph)
        for component in graph.conflict_components(model.component_rule):
            scoped = model.component_penalties(graph, component)
            assert scoped == {n: full[n] for n in component}

    def test_fallback_when_no_locality_promise(self):
        class OpaqueModel(ContentionModel):
            name = "opaque"

            def penalties(self, graph):
                return {c.name: float(len(graph)) for c in graph}

        graph = CommunicationGraph.from_edges([(0, 1), (5, 6)])
        model = OpaqueModel()
        assert model.component_rule is None
        # whole-graph evaluation restricted to the requested names
        assert model.component_penalties(graph, ["a"]) == {"a": 2.0}

    def test_shipped_models_declare_locality(self):
        assert GigabitEthernetModel().component_rule == ConflictRule.ENDPOINT
        assert MyrinetModel().component_rule == ConflictRule.ENDPOINT
        assert MyrinetModel(conflict_rule=ConflictRule.ANY_NODE).component_rule == ConflictRule.ANY_NODE
        assert InfinibandModel().component_rule == ConflictRule.ANY_NODE
        assert FairShareModel().component_rule == ConflictRule.ENDPOINT


class TestIncrementalPenaltyEngine:
    def test_arrival_prices_only_the_new_component(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        track(engine, comm("a", 0, 1))
        track(engine, comm("b", 5, 6))
        engine.penalties()
        evaluated_before = engine.stats.comm_evaluations
        # a third, disjoint flow must not re-price the existing components
        track(engine, comm("c", 8, 9))
        engine.penalties()
        assert engine.stats.comm_evaluations - evaluated_before <= 1

    def test_penalties_match_full_recompute(self):
        model = GigabitEthernetModel()
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        comms = [comm("a", 0, 1), comm("b", 0, 2), comm("c", 2, 1), comm("d", 5, 6)]
        for c in comms:
            track(engine, c)
        assert engine.penalties() == model.penalties(CommunicationGraph(comms))

    def test_departure_splits_component(self):
        engine = IncrementalPenaltyEngine(FairShareModel())
        # b bridges a and c: a(0->1), b(0->2)... use shared endpoints
        track(engine, comm("a", 0, 1))
        track(engine, comm("b", 0, 2))
        track(engine, comm("c", 3, 2))
        assert engine.components == [("a", "b", "c")]
        engine.remove("b")
        assert engine.components == [("a",), ("c",)]
        assert engine.penalties() == {"a": 1.0, "c": 1.0}

    def test_arrival_merges_components(self):
        engine = IncrementalPenaltyEngine(FairShareModel())
        track(engine, comm("a", 0, 1))
        track(engine, comm("b", 2, 3))
        assert engine.components == [("a",), ("b",)]
        track(engine, comm("c", 0, 3))
        assert engine.components == [("a", "b", "c")]

    def test_intra_node_flows_never_enter_components(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        track(engine, comm("local", 4, 4))
        track(engine, comm("remote", 4, 5))
        assert engine.components == [("remote",)]
        pens = engine.penalties()
        assert pens["local"] == 1.0
        engine.remove("local")
        assert engine.penalties() == {"remote": 1.0}

    def test_cache_hit_skips_model_evaluation(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        track(engine, comm("a", 0, 1))
        track(engine, comm("b", 0, 2))
        first = engine.penalties()
        engine.remove("a")
        engine.remove("b")
        engine.penalties()
        misses_before = engine.stats.cache_misses
        # the same situation on different hosts with different names
        track(engine, comm("x", 7, 8))
        track(engine, comm("y", 7, 9))
        second = engine.penalties()
        assert engine.stats.cache_misses == misses_before
        assert engine.stats.cache_hits >= 1
        assert sorted(second.values()) == sorted(first.values())

    def test_shared_cache_across_engines(self):
        cache = PenaltyCache()
        first = IncrementalPenaltyEngine(GigabitEthernetModel(), cache=cache)
        track(first, comm("a", 0, 1))
        track(first, comm("b", 0, 2))
        first.penalties()
        second = IncrementalPenaltyEngine(GigabitEthernetModel(), cache=cache)
        track(second, comm("p", 3, 4))
        track(second, comm("q", 3, 5))
        second.penalties()
        assert second.stats.cache_hits == 1
        assert second.stats.comm_evaluations == 0

    def test_transfer_ids_need_not_be_strings(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        engine.add(7, 0, 1, 1000)
        engine.add(("bg", 3), 0, 2, 1000)
        pens = engine.penalties()
        assert set(pens) == {7, ("bg", 3)}
        assert pens[7] == pens[("bg", 3)] > 1.0

    def test_tracked_ids_are_unique(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        engine.add("a", 0, 1, 1000)
        with pytest.raises(GraphError):
            engine.add("a", 2, 3, 1000)
        with pytest.raises(GraphError):
            engine.remove("b")
        assert engine.penalties() == {"a": 1.0}

    def test_reset_keeps_cache(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        track(engine, comm("a", 0, 1))
        track(engine, comm("b", 0, 2))
        engine.penalties()
        engine.reset()
        assert len(engine) == 0
        track(engine, comm("x", 5, 6))
        track(engine, comm("y", 5, 7))
        engine.penalties()
        assert engine.stats.cache_hits >= 1

    def test_myrinet_incremental_matches_analysis(self):
        model = MyrinetModel()
        engine = IncrementalPenaltyEngine(MyrinetModel())
        comms = [comm("a", 0, 1), comm("b", 0, 2), comm("c", 3, 1), comm("d", 3, 2)]
        for c in comms:
            track(engine, c)
        assert engine.penalties() == model.penalties(CommunicationGraph(comms))
        engine.remove("c")
        remaining = [c for c in comms if c.name != "c"]
        assert engine.penalties() == model.penalties(CommunicationGraph(remaining))

    def test_stats_snapshot_keys(self):
        engine = IncrementalPenaltyEngine(FairShareModel())
        track(engine, comm("a", 0, 1))
        engine.penalties()
        snap = engine.stats.snapshot()
        assert snap["events"] == 1
        assert set(snap) == {
            "events", "component_evaluations", "comm_evaluations",
            "cache_hits", "cache_misses",
        }


class CountingCache(PenaltyCache):
    """A penalty cache that records every lookup key."""

    def __init__(self, max_entries=4096):
        super().__init__(max_entries)
        self.looked_up = []

    def get(self, key):
        self.looked_up.append(key)
        return super().get(key)


def fresh_penalties(model, *comms):
    """Penalties of ``comms`` priced by a new engine that tracks nothing else."""
    engine = IncrementalPenaltyEngine(model)
    track(engine, *comms)
    return engine.penalties()


class TestDirtyTransfers:
    """A refresh prices exactly the components that hold a dirty transfer."""

    def test_a_split_reprices_exactly_its_remnants(self):
        model = GigabitEthernetModel()
        engine = IncrementalPenaltyEngine(model)
        # "bridge" shares destination 1 with a/a2's side and source 2 with
        # c/c2's side: its departure leaves two pieces
        left = [comm("a", 0, 1), comm("a2", 0, 4)]
        right = [comm("c", 2, 3), comm("c2", 5, 3)]
        track(engine, left[0], comm("bridge", 2, 1), left[1], *right, comm("far", 7, 8))
        engine.refresh()
        assert engine.components == [("a", "a2", "bridge", "c", "c2"), ("far",)]
        engine.remove("bridge")
        repriced = engine.refresh()
        assert list(repriced) == ["a", "a2", "c", "c2"]  # arrival order
        assert engine.components == [("a", "a2"), ("c", "c2"), ("far",)]
        for piece in (left, right):
            assert {c.name: repriced[c.name] for c in piece} == fresh_penalties(model, *piece)

    def test_a_departure_and_an_arrival_reprice_the_components_they_touch(self):
        model = GigabitEthernetModel()
        engine = IncrementalPenaltyEngine(model)
        comms = [comm("a", 0, 1), comm("b", 0, 2), comm("c", 3, 4), comm("d", 5, 4),
                 comm("e", 6, 7), comm("f", 8, 9)]
        track(engine, *comms)
        engine.refresh()
        priced = engine.stats.cache_hits + engine.stats.cache_misses
        engine.remove("b")           # leaves a alone
        track(engine, comm("g", 6, 10))  # joins e on source 6
        repriced = engine.refresh()
        assert list(repriced) == ["a", "e", "g"]
        live = [c for c in comms if c.name != "b"] + [comm("g", 6, 10)]
        whole = model.penalties(CommunicationGraph(live))
        assert repriced == {name: whole[name] for name in ("a", "e", "g")}
        assert engine.penalties() == whole
        # two components priced, {a} and {e, g}: shapes the first refresh saw
        assert engine.stats.cache_hits + engine.stats.cache_misses - priced == 2
        assert engine.stats.cache_misses == 3

    @pytest.mark.parametrize("max_entries", [4096, 0], ids=["memo", "memo-off"])
    def test_one_lookup_per_shape_per_refresh(self, max_entries):
        model = GigabitEthernetModel()
        cache = CountingCache(max_entries)
        engine = IncrementalPenaltyEngine(model, cache=cache)
        comms = [comm("lone", 100, 101)]
        for k in range(4):  # four isomorphic two-flow fan-outs on disjoint hosts
            hub = 10 * k
            comms += [comm(f"f{k}a", hub, hub + 1), comm(f"f{k}b", hub, hub + 2)]
        track(engine, *comms)
        before = engine.stats.cache_hits + engine.stats.cache_misses
        assert engine.penalties() == model.penalties(CommunicationGraph(comms))
        # one lookup per shape; every component still counts one hit or miss
        assert len(cache.looked_up) == len(set(cache.looked_up)) == 2
        assert engine.stats.cache_hits + engine.stats.cache_misses - before == 5
        if max_entries:
            assert (engine.stats.cache_hits, engine.stats.cache_misses) == (3, 2)
            assert engine.stats.component_evaluations == 2
        else:  # a cache that keeps nothing: every component is priced by the model
            assert (engine.stats.cache_hits, engine.stats.cache_misses) == (0, 5)
            assert engine.stats.component_evaluations == 5


class TestPenaltyCache:
    def test_store_returns_what_a_lookup_returns(self):
        cache = PenaltyCache()
        stored = cache.store("k", {"a": (0, 1), "b": (1, 0)}, {"a": 1.5, "b": 2.0})
        assert stored == {(0, 1): 1.5, (1, 0): 2.0}
        assert cache.get("k") is stored
        assert cache.store("u", {"a": (0, 1), "b": (0, 1)}, {"a": 1.0, "b": 2.0}) is None
        assert PenaltyCache(max_entries=0).store("k", {"a": (0, 1)}, {"a": 1.0}) is None

    def test_lru_eviction(self):
        cache = PenaltyCache(max_entries=2)
        cache.store("k1", {"a": (0, 1)}, {"a": 1.0})
        cache.store("k2", {"a": (0, 1)}, {"a": 2.0})
        cache.get("k1")  # refresh k1
        cache.store("k3", {"a": (0, 1)}, {"a": 3.0})
        assert cache.get("k2") is None
        assert cache.get("k1") is not None
        assert len(cache) == 2

    def test_asymmetric_component_not_cached(self):
        cache = PenaltyCache()
        # two same-endpoint communications with different penalties: unsound
        cache.store(
            "k",
            {"a": (0, 1), "b": (0, 1)},
            {"a": 1.0, "b": 2.0},
        )
        assert cache.get("k") is None

    def test_zero_capacity_disables(self):
        cache = PenaltyCache(max_entries=0)
        cache.store("k", {"a": (0, 1)}, {"a": 1.0})
        assert cache.get("k") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(GraphError):
            PenaltyCache(max_entries=-1)


class TestCacheModelNamespacing:
    def test_shared_cache_never_leaks_between_models(self):
        """Regression: a cache shared across providers wrapping different
        models must not serve one model's penalties to the other."""
        cache = PenaltyCache()
        ethernet = IncrementalPenaltyEngine(GigabitEthernetModel(), cache=cache)
        infiniband = IncrementalPenaltyEngine(InfinibandModel(), cache=cache)
        comms = [comm("a", 0, 1), comm("b", 0, 2)]
        for c in comms:
            track(ethernet, c)
            track(infiniband, c)
        expected = InfinibandModel().penalties(CommunicationGraph(comms))
        ethernet.penalties()
        assert infiniband.penalties() == expected
        assert infiniband.stats.cache_hits == 0

    def test_shared_cache_never_leaks_between_parameterizations(self):
        from repro.core import EthernetParameters
        cache = PenaltyCache()
        paper = IncrementalPenaltyEngine(GigabitEthernetModel(), cache=cache)
        custom_model = GigabitEthernetModel(EthernetParameters(beta=0.5))
        custom = IncrementalPenaltyEngine(
            GigabitEthernetModel(EthernetParameters(beta=0.5)), cache=cache)
        comms = [comm("a", 0, 1), comm("b", 0, 2)]
        for c in comms:
            track(paper, c)
            track(custom, c)
        paper.penalties()
        assert custom.penalties() == custom_model.penalties(CommunicationGraph(comms))

    def test_same_model_still_shares(self):
        cache = PenaltyCache()
        first = IncrementalPenaltyEngine(GigabitEthernetModel(), cache=cache)
        second = IncrementalPenaltyEngine(GigabitEthernetModel(), cache=cache)
        track(first, comm("a", 0, 1))
        track(first, comm("b", 0, 2))
        first.penalties()
        track(second, comm("x", 5, 6))
        track(second, comm("y", 5, 7))
        second.penalties()
        assert second.stats.cache_hits == 1


class TestKeysMatchStaticGraphs:
    """Engine keys equal ``CommunicationGraph.canonical_component`` keys, so
    entries priced from static graphs (campaign pre-pricing, persisted
    caches) and from live transfers serve each other."""

    def test_engine_replays_entries_priced_from_a_static_graph(self):
        model = MyrinetModel()
        graph = random_graph_scheme(10, 14, seed=3)
        cache = PenaltyCache()
        cached_penalties(model, graph, cache=cache)
        engine = IncrementalPenaltyEngine(model, cache=cache)
        track(engine, *graph)
        assert engine.penalties() == model.penalties(graph)
        assert engine.stats.cache_misses == 0
        assert engine.stats.cache_hits == len(graph.conflict_components(model.component_rule))

    def test_static_graph_replays_entries_priced_by_the_engine(self):
        model = InfinibandModel()
        graph = random_graph_scheme(10, 14, seed=4)
        cache = PenaltyCache()
        engine = IncrementalPenaltyEngine(model, cache=cache)
        track(engine, *graph)
        engine.penalties()
        stats = EngineStats()
        assert cached_penalties(model, graph, cache=cache, stats=stats) == model.penalties(graph)
        assert stats.cache_misses == 0


class TestMyrinetDecomposeContract:
    def test_no_decompose_means_no_locality_promise(self):
        assert MyrinetModel(decompose=False).component_rule is None
        assert MyrinetModel(decompose=True).component_rule == ConflictRule.ENDPOINT

    def test_component_cap_error_identical_between_modes(self):
        """Regression: with decompose=False the incremental engine must hit
        the same max_component_size cap as a full recomputation instead of
        silently decomposing the graph."""
        from repro.exceptions import ModelError

        comms = [comm(f"t{i}", 2 * i, 2 * i + 1) for i in range(5)]
        full_model = MyrinetModel(decompose=False, max_component_size=3)
        with pytest.raises(ModelError):
            full_model.penalties(CommunicationGraph(comms))
        engine = IncrementalPenaltyEngine(MyrinetModel(decompose=False, max_component_size=3))
        for c in comms:
            track(engine, c)
        with pytest.raises(ModelError):
            engine.penalties()


class TestCacheTelemetry:
    def test_hit_miss_and_eviction_counters(self):
        cache = PenaltyCache(max_entries=2)
        assert cache.get("a") is None            # miss
        cache.put("a", {(0, 1): 1.5})
        assert cache.get("a") == {(0, 1): 1.5}   # hit
        assert cache.get("a") is not None        # hit again
        cache.put("b", {(0, 1): 2.0})
        cache.put("c", {(0, 1): 3.0})            # evicts "a" (2 earned hits)
        summary = cache.stats()
        assert summary["lookups"] == 3
        assert summary["hits"] == 2
        assert summary["misses"] == 1
        assert summary["hit_rate"] == pytest.approx(2 / 3)
        assert summary["evictions"] == 1
        assert summary["evicted_entry_hits"] == 2
        assert summary["entries"] == 2
        assert summary["entries_never_hit"] == 2  # "b" and "c" never hit

    def test_entry_hits_follow_lru_order(self):
        cache = PenaltyCache()
        cache.put("a", {(0, 1): 1.0})
        cache.put("b", {(0, 1): 2.0})
        cache.get("a")                            # refreshes "a" to MRU
        assert cache.entry_hits() == [("b", 0), ("a", 1)]
        assert cache.stats()["max_entry_hits"] == 1
        assert cache.stats()["live_entry_hits"] == 1

    def test_clear_resets_entry_hits(self):
        cache = PenaltyCache()
        cache.put("a", {(0, 1): 1.0})
        cache.get("a")
        cache.clear()
        assert cache.entry_hits() == []
        # traffic totals survive a clear (they describe the cache's lifetime)
        assert cache.stats()["hits"] == 1


class TestRefreshDeltaInterface:
    def test_refresh_returns_only_repriced_communications(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        track(engine, comm("a", 0, 1))
        track(engine, comm("b", 0, 2))
        track(engine, comm("c", 5, 6))
        first = engine.refresh()
        assert set(first) == {"a", "b", "c"}
        # a new flow conflicting only with c's component re-prices just it
        track(engine, comm("d", 5, 7))
        second = engine.refresh()
        assert set(second) == {"c", "d"}
        assert engine.penalties()["a"] == first["a"]

    def test_refresh_reports_intra_node_arrivals(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        track(engine, comm("intra", 3, 3))
        assert engine.refresh() == {"intra": 1.0}
        assert engine.refresh() == {}

    def test_refresh_reports_departure_fallout(self):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        track(engine, comm("a", 0, 1))
        track(engine, comm("b", 0, 2))
        engine.refresh()
        engine.remove("a")
        fallout = engine.refresh()
        assert set(fallout) == {"b"}          # b's component was re-priced
        assert fallout["b"] == 1.0            # and is now conflict-free
