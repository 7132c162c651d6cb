"""Ablation A1 — the paper's models vs the related-work baselines (§II).

The motivation of the paper is that linear models (LogP/LogGP, i.e. no
contention) and the simple path-sharing multiplier of Kim & Lee mispredict
concurrent communications.  This benchmark sweeps a family of random schemes
on each emulated network and reports the average absolute error E_abs of:

* the paper's model for that network,
* ideal fair sharing,
* Kim & Lee's maximum-sharing multiplier,
* the no-contention (LogGP-like) linear model.
"""

from __future__ import annotations

import pytest

from repro.analysis import compare_times, render_table
from repro.benchmark import PenaltyTool
from repro.core import (
    EngineStats,
    FairShareModel,
    KimLeeModel,
    LinearCostModel,
    NoContentionModel,
    PenaltyCache,
    cached_predict,
    model_for_network,
)
from repro.workloads import complete_graph_scheme, random_graph_scheme, random_tree_scheme

NETWORKS = ("ethernet", "myrinet", "infiniband")


def scheme_suite():
    return [
        random_tree_scheme(8, seed=1),
        random_tree_scheme(10, seed=2),
        random_graph_scheme(6, 9, seed=3),
        random_graph_scheme(8, 12, seed=4),
        complete_graph_scheme(5, seed=5),
    ]


def evaluate_models():
    # one penalty cache for the whole sweep: the per-model memo_key namespace
    # keeps the entries apart while isomorphic components (ubiquitous across
    # the random suite) are priced once per model
    cache = PenaltyCache()
    stats = EngineStats()
    rows = {}
    for network in NETWORKS:
        tool = PenaltyTool(network, iterations=1, num_hosts=16)
        cost = LinearCostModel(
            latency=tool.technology.latency,
            bandwidth=tool.technology.single_stream_bandwidth,
            envelope=tool.technology.mpi_envelope,
        )
        models = {
            "paper model": model_for_network(network),
            "fair share": FairShareModel(),
            "kim-lee": KimLeeModel(),
            "no contention": NoContentionModel(),
        }
        errors = {label: [] for label in models}
        for graph in scheme_suite():
            measured = tool.measure(graph).times
            for label, model in models.items():
                predicted = cached_predict(model, graph, cost, cache=cache,
                                           stats=stats).times
                errors[label].append(compare_times(measured, predicted).absolute)
        rows[network] = {
            label: sum(values) / len(values) for label, values in errors.items()
        }
    return rows, stats.snapshot()


@pytest.mark.benchmark(group="ablation-baselines", min_rounds=1, max_time=1.0, warmup=False)
def test_ablation_models_vs_baselines(benchmark, emit):
    rows, cache_stats = benchmark.pedantic(evaluate_models, rounds=1, iterations=1)

    table = render_table(
        ["network", "paper model", "fair share", "kim-lee", "no contention"],
        [[network] + [rows[network][k] for k in
                      ("paper model", "fair share", "kim-lee", "no contention")]
         for network in NETWORKS],
        title="Ablation A1 - mean E_abs [%] over the random scheme suite",
        float_format="{:.1f}",
    )
    table += (
        f"\n\nshared penalty cache: {cache_stats['comm_evaluations']} model "
        f"evaluations, {cache_stats['cache_hits']} hits / "
        f"{cache_stats['cache_misses']} misses"
    )
    emit("ablation_baselines", table)

    # sharing one cache across the sweep must actually pool evaluations
    assert cache_stats["cache_hits"] > 0

    for network in NETWORKS:
        # the paper's contention models must clearly beat the linear (no
        # contention) model on every network — that is the paper's motivation.
        # Kim & Lee and ideal fair sharing are reported for comparison; against
        # the max-min emulator they can be competitive on dense graphs, which
        # is expected (the emulator shares more fairly than real Stop & Go
        # hardware); results/ablation_baselines.txt records the numbers.
        assert rows[network]["paper model"] < rows[network]["no contention"]
        assert rows[network]["paper model"] < 35.0
