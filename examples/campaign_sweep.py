#!/usr/bin/env python3
"""Scenario campaigns: price a whole design space in one parallel run.

The paper's models answer one question per graph — *how slow does this
contention situation make each communication?* — but an HPC integrator asks
them by the hundreds: which network, which placement, which node count for
this mix of workloads?  The :mod:`repro.campaign` subsystem turns that sweep
into a single declarative **campaign spec**:

* ``workloads`` — library schemes (``kind="scheme"``), generated graphs
  (``kind="synthetic"``: random-tree / complete / random / bipartite-fan /
  hotspot) and simulated applications (``kind="collective"``:
  broadcast / ring-allgather / flat-gather / alltoall, or ``kind="linpack"``);
* ``networks`` / ``models`` — interconnects and contention models
  (``"auto"`` picks the paper's model for each network);
* ``host_counts`` / ``placements`` / ``seeds`` — cluster sizes, task
  placement policies (applications only) and generator seeds.

The cartesian product expands into concrete scenarios; the runner executes
them on worker processes and prices them through one penalty cache, so
isomorphic contention situations — ubiquitous across a sweep — are priced
exactly once.
With a :class:`~repro.campaign.PersistentPenaltyCache` the cache also
survives the process: the second run of the same (or a similar) campaign
skips the model evaluations entirely.

The same sweep is available from the shell::

    python -m repro campaign --spec examples/campaign_sweep.json \
        --workers 4 --cache /tmp/penalties.json \
        --out /tmp/campaign.json --csv /tmp/campaign.csv

Run this file with::

    python examples/campaign_sweep.py
"""

from __future__ import annotations

from pathlib import Path

from repro.campaign import CampaignRunner, CampaignSpec

SPEC_FILE = Path(__file__).with_name("campaign_sweep.json")


def main() -> None:
    spec = CampaignSpec.from_json(SPEC_FILE)
    scenarios = spec.scenarios()
    print(f"campaign {spec.name!r}: {len(scenarios)} scenarios from "
          f"{len(spec.workloads)} workloads × {len(spec.networks)} networks")

    runner = CampaignRunner(spec, max_workers=4)
    store = runner.run()

    print(store.summary_table())
    stats = store.stats
    print(f"\nmodel evaluations: {stats['comm_evaluations']} "
          f"(cache hits: {stats['cache_hits']}, misses: {stats['cache_misses']})")

    # the cheapest network per application workload, straight from the rows
    best: dict = {}
    for row in store.rows():
        if row["kind"] not in ("collective", "linpack"):
            continue
        key = (row["workload"], row["placement"], row["seed"])
        if key not in best or row["total_time"] < best[key][1]:
            best[key] = (row["network"], row["total_time"])
    print("\nfastest network per application scenario:")
    for (workload, placement, seed), (network, total) in sorted(best.items()):
        print(f"  {workload:<10s} {placement:<4s} seed {seed}: "
              f"{network:<10s} ({total:.3f} s)")


if __name__ == "__main__":
    main()
