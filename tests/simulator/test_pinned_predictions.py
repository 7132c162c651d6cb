"""Predictions pinned to digests recorded from an earlier engine.

The oracle suites compare two paths of one commit, so they cannot tell
whether the engine still predicts what it used to.  These two runs are
pinned to digests taken from the engine that still batched its timeline
(bulk heap merges and partition-and-heapify drains), on runs that took
those batched paths: a 256-rank barrier wave, where every rank's compute
completes at one horizon twelve times over, and a 16-rank pairwise
all-to-all on Myrinet, whose sweeps start many transfers at once.  The
digest has the shape of ``report_digest`` in ``perfbench/workloads.py``:
the makespan as ``float.hex``, the record count and every rank's finish
time as ``float.hex``.

The remaining pins, recorded from the same engine, cover what the two
simulation loops now share: loaded runs of the execution engine and of the
fluid transfer simulator (background flows, a link-degradation window and a
node-slowdown window, under the model and the emulator), plus truncated
HPL runs on the three paper clusters and all-to-alls under the other
models.  A fluid run's digest covers every transfer's finish time as
``float.hex``, in transfer-id order.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import custom_cluster
from repro.core import GigabitEthernetModel, InfinibandModel, MyrinetModel
from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import FluidTransferSimulator, Transfer
from repro.network.technologies import get_technology
from repro.simulator import (
    Application,
    BackgroundTrafficInjector,
    EngineConfig,
    LinkDegradationInjector,
    ModelRateProvider,
    NodeSlowdownInjector,
    Simulator,
)
from repro.units import MiB
from repro.workloads import (
    LinpackParameters,
    generate_linpack,
    pairwise_exchange_alltoall,
    ring_allgather,
)


def report_digest(report) -> str:
    finish = report.finish_time_per_task
    parts = [float(report.total_time).hex(), str(len(report.records))]
    parts.extend(float(finish[rank]).hex() for rank in sorted(finish))
    return hashlib.sha256(",".join(parts).encode("ascii")).hexdigest()


def assert_pinned(report, makespan_hex, records, digest):
    assert float(report.total_time).hex() == makespan_hex
    assert len(report.records) == records
    assert report_digest(report) == digest


def test_barrier_wave_256_ranks():
    """256 ranks, 12 rounds of an identical compute followed by a barrier."""
    num_ranks, rounds = 256, 12
    app = Application(num_tasks=num_ranks, name="barrier-wave")
    for _ in range(rounds):
        for rank in range(num_ranks):
            app.add_compute(rank, duration=0.01)
        app.add_barrier()
    cluster = custom_cluster(num_nodes=num_ranks, cores_per_node=1,
                             technology="ethernet")
    simulator = Simulator(cluster, ModelRateProvider(GigabitEthernetModel(), "ethernet"))
    report = simulator.run(app, placement="RRN")
    assert_pinned(report, "0x1.eb851eb851eb7p-4", 6144,
                  "6ab76b805268209b127bcda9c70a0eca290d541a55a5c03b85d2c51a740bf74e")
    assert simulator.last_engine_stats.steps == rounds


def test_pairwise_alltoall_16_ranks_myrinet():
    """16 ranks exchanging 1 MiB pairwise on the paper's Myrinet cluster."""
    app = pairwise_exchange_alltoall(Application(num_tasks=16, name="alltoall-16"),
                                     1 * MiB)
    simulator = Simulator.predictive("myrinet", MyrinetModel())
    report = simulator.run(app, placement="RRN")
    assert_pinned(report, "0x1.158aaa04b2d14p-3", 480,
                  "5b8abc234a4e9941eb43d853c083ab214dee5c4a3273a4524a47fa1b25f5cc90")
    assert simulator.last_engine_stats.steps == 60


def loaded_injectors():
    """Background flows, a degraded-link window and a slowed-node window."""
    return (
        BackgroundTrafficInjector(rate=400.0, size=1 * MiB, seed=5, max_flows=24),
        LinkDegradationInjector(factor=0.5, start=0.004, until=0.03, hosts=[1, 2]),
        NodeSlowdownInjector(factor=0.5, start=0.0, until=0.02, hosts=[0, 3]),
    )


@pytest.mark.parametrize("mode, makespan_hex, digest, steps", [
    ("predictive", "0x1.b520d41dee2cbp-3",
     "601eda00ffd5295a114d5901d078f95f2acfc422bc6b1f448e2e3d98c0256c4b", 101),
    ("emulated", "0x1.dab823a0e5d4fp-3",
     "09ab5d0faa3be56450b8276c045bee67a9096f3a3f64aa42ab275678310f922e", 96),
])
def test_loaded_engine_run(mode, makespan_hex, digest, steps):
    """8 ranks computing, then a 1 MiB ring allgather, on a loaded GigE fabric."""
    app = Application(num_tasks=8, name="compute-ring")
    for rank in range(8):
        app.add_compute(rank, duration=0.002 * (1 + rank % 3))
    ring_allgather(app, 1 * MiB)
    cluster = custom_cluster(num_nodes=8, cores_per_node=1, technology="ethernet")
    config = EngineConfig(injectors=loaded_injectors())
    if mode == "emulated":
        simulator = Simulator.emulated(cluster, config=config)
    else:
        simulator = Simulator.predictive(cluster, config=config)
    report = simulator.run(app, placement="RRN")
    assert_pinned(report, makespan_hex, 120, digest)
    stats = simulator.last_engine_stats
    assert stats.steps == steps
    assert stats.background_flows == 24
    assert stats.injected_events == 28


@pytest.mark.parametrize("mode, digest", [
    ("predictive", "f85decc302f9ac4aa4dab278fb9153596b1d6c0f8212335b97eb9bc966630eb7"),
    ("emulated", "97331d940a651dcc423a0d55dd7195a7bb8cc3649db468ad589f68abfd675070"),
])
def test_loaded_fluid_run(mode, digest):
    """16 staggered 1 MiB transfers among 8 GigE hosts on a loaded fabric."""
    if mode == "emulated":
        provider = EmulatorRateProvider(get_technology("ethernet"), num_hosts=8)
    else:
        provider = ModelRateProvider(GigabitEthernetModel(), "ethernet")
    transfers = [Transfer(i, i % 8, (3 * i + 1) % 8, 1 * MiB, start_time=0.002 * i)
                 for i in range(16)]
    simulator = FluidTransferSimulator(provider, latency=5e-5,
                                       injectors=loaded_injectors())
    results = simulator.run(transfers)
    assert sorted(results) == list(range(16))
    parts = [f"{tid}:{float(results[tid].finish_time).hex()}" for tid in sorted(results)]
    assert hashlib.sha256(",".join(parts).encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("cluster, model, makespan_hex, digest", [
    ("ethernet", GigabitEthernetModel, "0x1.46e0f658141c2p+0",
     "b6e476c8cd4e0393df884b120469fcd6205794acc9700a0d3e2b1c5e9410c038"),
    ("myrinet", MyrinetModel, "0x1.45b17e23d6974p-1",
     "b1df20c95385a89219974139f037e994dda76eae3377e10cf6d37d07549b4aa8"),
    ("infiniband", InfinibandModel, "0x1.9b20940095af6p-3",
     "0990cb886cb1c1f13b0ab86321164ed319c42ee54c381d79a14a4bf29453b9a7"),
])
def test_hpl_16_ranks(cluster, model, makespan_hex, digest):
    """HPL of order 2400 (NB 120) on 16 ranks of each paper cluster."""
    app = generate_linpack(LinpackParameters(problem_size=2400, block_size=120,
                                             num_tasks=16))
    simulator = Simulator.predictive(cluster, model())
    report = simulator.run(app, placement="RRN")
    assert_pinned(report, makespan_hex, 940, digest)
    assert simulator.last_engine_stats.steps == 920


@pytest.mark.parametrize("cluster, model, makespan_hex, digest, steps", [
    ("ethernet", GigabitEthernetModel, "0x1.e3e3d39e5f9afp-2",
     "fde02bfb5cabf4eaffa7fc1e827ef15fb5ea3c28d45cb221ddf7a44b13890cf1", 58),
    ("infiniband", InfinibandModel, "0x1.a70b3602e01e1p-4",
     "128b47b71e530b650506849d46e87a1d484ffa9d211699abd7ae64661afe74b0", 54),
])
def test_pairwise_alltoall_16_ranks(cluster, model, makespan_hex, digest, steps):
    """16 ranks exchanging 1 MiB pairwise, round-robin over processors."""
    app = pairwise_exchange_alltoall(Application(num_tasks=16, name="a2a"), 1 * MiB)
    simulator = Simulator.predictive(cluster, model())
    report = simulator.run(app, placement="RRP")
    assert_pinned(report, makespan_hex, 480, digest)
    assert simulator.last_engine_stats.steps == steps
