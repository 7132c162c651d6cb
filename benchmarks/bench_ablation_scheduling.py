"""Ablation A3 — impact of the task placement policy (RRN / RRP / Random).

The paper evaluates its models under three placements (§VI.D) but does not
compare the placements themselves; this ablation uses the predictive
simulator as the HPC-integrator tool the introduction motivates: for the same
HPL trace and the same cluster, how much does the placement change the total
time and the contention level?
"""

from __future__ import annotations

import pytest

from repro.analysis import render_table
from repro.cluster import custom_cluster
from repro.network import EmulatorRateProvider
from repro.network.topology import CrossbarTopology
from repro.simulator import Simulator
from repro.workloads import generate_linpack

PLACEMENTS = ("RRN", "RRP", "random")


def sweep_placements():
    cluster = custom_cluster(num_nodes=8, cores_per_node=2, technology="myrinet")
    app = generate_linpack(problem_size=6000, block_size=200, num_tasks=16)
    rows = []
    for placement in PLACEMENTS:
        topology = CrossbarTopology(num_hosts=cluster.num_nodes,
                                    technology=cluster.technology)
        provider = EmulatorRateProvider(cluster.technology, topology)
        sim = Simulator(cluster, provider, technology=cluster.technology,
                        mode="emulated",
                        model_name=f"emulator[{cluster.technology.name}]")
        report = sim.run(app, placement=placement, seed=3)
        comm = sum(report.communication_times().values())
        rows.append((placement, report.total_time, comm, report.average_penalty,
                     report.max_penalty))
    return rows


@pytest.mark.benchmark(group="ablation-scheduling", min_rounds=1, max_time=1.0, warmup=False)
def test_ablation_placement_policies(benchmark, emit):
    rows = benchmark.pedantic(sweep_placements, rounds=1, iterations=1)
    table = render_table(
        ["placement", "total time [s]", "sum comm [s]", "avg penalty", "max penalty"],
        [list(r) for r in rows],
        title="Ablation A3 - HPL N=6000 on the emulated Myrinet cluster",
        float_format="{:.3f}",
    )
    emit("ablation_scheduling", table)

    by_policy = {r[0]: r for r in rows}
    # RRP keeps the ring neighbours on the same node, so its communication
    # volume over the network (and usually its total time) is the smallest
    assert by_policy["RRP"][2] <= by_policy["RRN"][2] + 1e-9
    assert all(r[3] >= 1.0 for r in rows)
