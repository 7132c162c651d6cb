"""Pricing work does not depend on the hash seed.

Injected background flows carry string ids (``background#N``), whose set
order follows ``PYTHONHASHSEED``.  When a departure splits a conflict
component, :class:`~repro.core.incremental.IncrementalPenaltyEngine`
re-partitions the remnants into new components whose ids decide the order
they are priced in, and so the order of the penalty-cache lookups and,
with a bounded cache, which entries are evicted and how many lookups miss.
Each run prices in its own interpreter, the only way to vary the hash seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: a loaded 16-host Myrinet all-to-all, priced through a one-entry cache
#: and through an unbounded one; prints every lookup key and the counters
PROBE = """
import json
from repro.cluster import custom_cluster
from repro.core import MyrinetModel, PenaltyCache
from repro.simulator import (Application, BackgroundTrafficInjector, EngineConfig,
                             ModelRateProvider, Simulator)
from repro.units import MiB
from repro.workloads import pairwise_exchange_alltoall


class RecordingCache(PenaltyCache):
    def __init__(self, max_entries):
        super().__init__(max_entries)
        self.keys = []

    def get(self, key):
        self.keys.append(repr(key))
        return super().get(key)


cluster = custom_cluster(num_nodes=16, cores_per_node=1, technology="myrinet")
outcome = {}
for max_entries in (1, 4096):
    cache = RecordingCache(max_entries)
    provider = ModelRateProvider(MyrinetModel(), cluster.technology, cache=cache)
    background = BackgroundTrafficInjector(rate=400, size=2 * MiB, seed=3, max_flows=30)
    simulator = Simulator(cluster, provider, technology=cluster.technology,
                          config=EngineConfig(injectors=(background,)))
    app = pairwise_exchange_alltoall(Application(num_tasks=16, name="a2a"), 1 * MiB)
    report = simulator.run(app, placement="RRN")
    outcome[max_entries] = {
        "lookups": cache.keys,
        "provider": provider.stats.snapshot(),
        "cache": cache.stats(),
        "background_flows": simulator.last_engine_stats.background_flows,
        "makespan": float(report.total_time).hex(),
    }
print(json.dumps(outcome))
"""


def price_loaded_run(hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    src_root = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cache_lookups_and_counters_do_not_depend_on_the_hash_seed():
    first = price_loaded_run(0)
    second = price_loaded_run(1)
    bounded = first["1"]
    assert bounded["background_flows"] > 0
    assert bounded["cache"]["evictions"] > 0
    for max_entries in ("1", "4096"):
        assert first[max_entries]["lookups"] == second[max_entries]["lookups"]
        assert first[max_entries] == second[max_entries]
