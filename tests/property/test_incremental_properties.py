"""Property-based tests: the incremental contention engine is bit-exact.

The incremental provider must produce *exactly* the rates of a
rebuild-everything provider after any sequence of flow arrivals and
departures — component-scoped evaluation and snapshot memoization are pure
optimisations, never approximations.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.core import (
    EngineStats,
    FairShareModel,
    GigabitEthernetModel,
    IncrementalPenaltyEngine,
    InfinibandModel,
    KimLeeModel,
    MyrinetModel,
    NoContentionModel,
    PenaltyCache,
    cached_penalties,
)
from repro.core.baselines import LogGPContentionAdapter, LogGPCostModel
from repro.core.graph import Communication, CommunicationGraph, ConflictRule
from repro.network.fluid import Transfer
from repro.simulator.providers import ModelRateProvider

MODEL_FACTORIES = [
    GigabitEthernetModel,
    MyrinetModel,
    InfinibandModel,
    NoContentionModel,
    FairShareModel,
    KimLeeModel,
]


def _pod_paths(comm):
    """Endpoint NICs plus a shared uplink per pod of three hosts: transfers
    can contend without sharing an endpoint, so the model makes no locality
    promise."""
    return ((comm.src, 0), (comm.dst, 1), (comm.src // 3, 2))


def _whole_graph_myrinet():
    return MyrinetModel(decompose=False)


def _path_kim_lee():
    return KimLeeModel(path_provider=_pod_paths)


_whole_graph_myrinet.label = "myrinet-whole-graph"
_path_kim_lee.label = "kim-lee-paths"

#: models without a component rule: the engine prices the whole live set,
#: cached (Myrinet, structural) or never cached (Kim-Lee over paths)
RULELESS_FACTORIES = [_whole_graph_myrinet, _path_kim_lee]


def factory_id(factory):
    return getattr(factory, "label", None) or factory().name

# a step is either an arrival on (src, dst) or the departure of the k-th
# oldest live transfer; node universe kept small so conflicts are common but
# Myrinet components stay below its enumeration cap
step_strategy = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.just("del"), st.integers(0, 30), st.integers(0, 0)),
)
sequence_strategy = st.lists(step_strategy, min_size=1, max_size=40)

common_settings = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# small host universe so endpoint conflicts are common; intra-node pairs
# (src == dst) are produced regularly
graph_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 10**7)),
    min_size=0, max_size=24,
)


def step_deltas(steps, max_live=8):
    """Turn a step sequence into one ``(added, removed)`` delta per step
    that changes the live set (``src == dst`` arrivals are intra-node)."""
    live = []
    counter = 0
    out = []
    for kind, x, y in steps:
        if kind == "add" and len(live) < max_live:
            transfer = Transfer(transfer_id=counter, src=x, dst=y, size=1000.0)
            live.append(transfer)
            counter += 1
            out.append(([transfer], []))
        elif kind == "del" and live:
            out.append(([], [live.pop(x % len(live)).transfer_id]))
    return out


#: one flush: up to four steps applied as one ``update(added, removed)``
batch_strategy = st.lists(st.lists(step_strategy, min_size=1, max_size=4),
                          min_size=1, max_size=15)


def batch_deltas(batches, max_live=8):
    """One ``(added, removed)`` delta per batch of steps.

    Ids alternate between ints and strings like ``background#N`` (the
    injected flows' ids, whose set order follows the hash seed).  A removal
    names a transfer live before the delta, so one delta can carry
    departures and arrivals together.
    """
    live = []
    counter = 0
    out = []
    for steps in batches:
        added, removed = [], []
        for kind, x, y in steps:
            if kind == "add" and len(live) + len(added) < max_live:
                tid = counter if counter % 2 else f"background#{counter}"
                added.append(Transfer(transfer_id=tid, src=x, dst=y, size=1000.0))
                counter += 1
            elif kind == "del" and live:
                removed.append(live.pop(x % len(live)).transfer_id)
        live.extend(added)
        if added or removed:
            out.append((added, removed))
    return out


class TestIncrementalEqualsFullRecompute:
    @pytest.mark.parametrize("factory", MODEL_FACTORIES + RULELESS_FACTORIES, ids=factory_id)
    @common_settings
    @given(steps=sequence_strategy)
    def test_rates_bit_exact_across_arrival_departure_sequences(self, factory, steps):
        providers = (ModelRateProvider(factory(), "ethernet", incremental=True),
                     ModelRateProvider(factory(), "ethernet", incremental=False))
        rates = ({}, {})
        for added, removed in step_deltas(steps):
            for provider, current in zip(providers, rates):
                for tid in removed:
                    del current[tid]
                current.update(provider.update(added, removed))
            assert rates[0] == rates[1]

    @pytest.mark.parametrize("max_entries", [None, 1], ids=["default-cache", "one-entry-cache"])
    @pytest.mark.parametrize("factory", MODEL_FACTORIES + RULELESS_FACTORIES, ids=factory_id)
    @common_settings
    @given(batches=batch_strategy)
    def test_rates_bit_exact_across_multi_transfer_deltas(self, factory, max_entries, batches):
        """Also with a one-entry cache, which evicts a lone transfer's entry
        as soon as another shape is stored while the engine's lone-penalty
        slots keep serving it."""
        cache = None if max_entries is None else PenaltyCache(max_entries=max_entries)
        providers = (ModelRateProvider(factory(), "ethernet", cache=cache),
                     ModelRateProvider(factory(), "ethernet", incremental=False))
        rates = ({}, {})
        for added, removed in batch_deltas(batches):
            for provider, current in zip(providers, rates):
                for tid in removed:
                    del current[tid]
                current.update(provider.update(added, removed))
            assert rates[0] == rates[1]

    @pytest.mark.parametrize("factory", [GigabitEthernetModel, MyrinetModel, InfinibandModel],
                             ids=lambda f: f().name)
    @common_settings
    @given(batches=batch_strategy)
    def test_partition_and_penalties_after_multi_transfer_deltas(self, factory, batches):
        """The walked partition equals the batch one, and every refresh
        reports each changed penalty with its full-recomputation value."""
        model = factory()
        engine = IncrementalPenaltyEngine(factory())
        live = {}
        penalties = {}
        for added, removed in batch_deltas(batches):
            for tid in removed:
                engine.remove(tid)
                del live[tid]
                del penalties[tid]
            for t in added:  # int and ``background#N`` ids, as the engine gets them
                engine.add(t.transfer_id, t.src, t.dst, t.size)
                live[t.transfer_id] = Communication(str(t.transfer_id), t.src, t.dst, 1000)
            graph = CommunicationGraph(live.values())
            whole = model.penalties(graph)
            penalties.update(engine.refresh())
            assert penalties == {tid: whole[str(tid)] for tid in live}
            walked = sorted(tuple(sorted(map(str, ids))) for ids in engine.components)
            assert walked == sorted(graph.conflict_components(engine.model.component_rule))

    @pytest.mark.parametrize("factory", [InfinibandModel, GigabitEthernetModel],
                             ids=lambda f: f().name)
    @common_settings
    @given(steps=sequence_strategy)
    def test_engine_matches_fresh_graph_evaluation(self, factory, steps):
        """Engine-level check, including intra-node transfers."""
        model = factory()
        engine = IncrementalPenaltyEngine(factory())
        live = {}
        counter = 0
        for kind, x, y in steps:
            if kind == "add" and len(live) < 8:
                name = f"t{counter}"
                counter += 1
                c = Communication(name, x, y, size=1000)  # x == y stays intra-node
                engine.add(name, x, y, 1000)
                live[name] = c
            elif kind == "del" and live:
                name = list(live)[x % len(live)]
                engine.remove(name)
                del live[name]
            assert engine.penalties() == model.penalties(CommunicationGraph(live.values()))

    @common_settings
    @given(steps=sequence_strategy)
    # b bridges a and c; its departure must split the component
    @example(steps=[("add", 0, 1), ("add", 2, 1), ("add", 2, 3), ("del", 1, 0)])
    def test_component_partition_matches_batch_computation(self, steps):
        engine = IncrementalPenaltyEngine(GigabitEthernetModel())
        live = {}
        counter = 0
        for kind, x, y in steps:
            if kind == "add" and len(live) < 10:
                name = f"t{counter}"
                counter += 1
                c = Communication(name, x, y, size=1000)
                engine.add(name, x, y, 1000)
                live[name] = c
            elif kind == "del" and live:
                name = list(live)[x % len(live)]
                engine.remove(name)
                del live[name]
            batch = CommunicationGraph(live.values()).conflict_components(
                engine.model.component_rule
            )
            assert engine.components == sorted(batch)


#: a static graph: a pattern of (src, dst) pairs on four hosts (parallel
#: edges and intra-node pairs are common), laid down once or twice; the
#: second copy, on four other hosts, repeats every component isomorphically
static_graph_strategy = st.tuples(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=7),
    st.integers(1, 2),
)


def static_graph(pattern, copies) -> CommunicationGraph:
    graph = CommunicationGraph(name="static-prop")
    for copy in range(copies):
        for index, (src, dst) in enumerate(pattern):
            graph.add(Communication(f"c{copy}.{index}", src + 4 * copy, dst + 4 * copy,
                                    size=1000 + index))
    return graph


def component_count(model, graph) -> int:
    """Conflict components of ``graph`` under the model's rule; without a
    rule, the whole inter-node set is one."""
    if model.component_rule is None:
        return int(any(not comm.is_intra_node for comm in graph))
    return len(graph.conflict_components(model.component_rule))


class TestStaticGraphPricing:
    @pytest.mark.parametrize("factory", MODEL_FACTORIES + RULELESS_FACTORIES, ids=factory_id)
    @common_settings
    @given(patterns=st.lists(static_graph_strategy, min_size=1, max_size=4))
    def test_cached_penalties_equal_the_model_in_graph_order(self, factory, patterns):
        """Graphs priced one after another through one shared cache, then
        through a one-entry cache, give the model's penalties in graph
        order; every communication counts one event, and every component
        one cache hit or miss (one model call when nothing is cached)."""
        model = factory()
        graphs = [static_graph(*pattern) for pattern in patterns]
        for cache in (PenaltyCache(), PenaltyCache(max_entries=1)):
            stats = EngineStats()
            for graph in graphs:
                before = stats.snapshot()
                priced = cached_penalties(model, graph, cache=cache, stats=stats)
                assert list(priced.items()) == list(model.penalties(graph).items())
                assert stats.events - before["events"] == len(graph)
                lookups = (stats.cache_hits + stats.cache_misses
                           - before["cache_hits"] - before["cache_misses"])
                if model.structural_penalties:
                    assert lookups == component_count(model, graph)
                else:
                    assert lookups == 0
                    assert (stats.component_evaluations - before["component_evaluations"]
                            == component_count(model, graph))


PRICED_FACTORIES = MODEL_FACTORIES + [
    lambda: LogGPContentionAdapter(LogGPCostModel(L=5e-6, o=1e-6, g=2e-6, G=1e-8)),
]


def build_graph(triples) -> CommunicationGraph:
    graph = CommunicationGraph(name="component-prop")
    for index, (src, dst, size) in enumerate(triples):
        graph.add(Communication(name=f"c{index}", src=src, dst=dst, size=size))
    return graph


class TestComponentPricingEqualsWholeGraph:
    @pytest.mark.parametrize("factory", PRICED_FACTORIES, ids=lambda f: f().name)
    @common_settings
    @given(triples=graph_strategy)
    def test_components_merge_to_the_whole_graph_penalties(self, factory, triples):
        """Pricing each conflict component (plus the intra-node set) on its
        own — what the incremental engine does per dirty component — merges
        to exactly the whole-graph penalties, as Python floats."""
        model = factory()
        graph = build_graph(triples)
        rule = model.component_rule or ConflictRule.ENDPOINT
        selections = [list(names) for names in graph.conflict_components(rule)]
        intra = [comm.name for comm in graph if comm.is_intra_node]
        if intra:
            selections.append(intra)
        merged = {}
        for names in selections:
            merged.update(model.component_penalties(graph, names))
        assert merged == model.penalties(graph)
        # the trace layer JSON-serialises penalties: no numpy scalars allowed
        assert all(type(value) is float for value in merged.values())

    @pytest.mark.parametrize("factory", PRICED_FACTORIES, ids=lambda f: f().name)
    @common_settings
    @given(triples=graph_strategy, keep=st.integers(0, 1))
    def test_component_subset_prices_alone_in_any_order(self, factory, triples, keep):
        """A dirty set is any sub-collection of conflict components, priced
        in the engine's order rather than the graph's: every other component,
        taken last to first, prices exactly as inside the whole graph and
        reports its own members only."""
        model = factory()
        graph = build_graph(triples)
        whole = model.penalties(graph)
        rule = model.component_rule or ConflictRule.ENDPOINT
        subset = graph.conflict_components(rule)[keep::2]
        for names in reversed(subset):
            priced = model.component_penalties(graph, list(names))
            assert priced == {name: whole[name] for name in names}
