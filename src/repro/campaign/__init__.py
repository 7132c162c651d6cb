"""Scenario-campaign orchestration: declarative sweeps, a parallel runner and
a persistent cross-run penalty cache.

The contention models are only useful at scale when many scenarios — schemes
× networks × models × placements — can be priced cheaply.  This package
turns the incremental engine of :mod:`repro.core.incremental` into an
orchestration layer:

* :class:`CampaignSpec` expands declarative sweeps into concrete scenarios;
* :class:`CampaignRunner` executes them inline or on worker processes,
  deduplicating the cache-miss component evaluations campaign-wide and
  fanning them out to the workers; a scenario that fails is recorded and
  the sweep goes on;
* :func:`run_scenario` runs one application scenario — the one place a
  scenario becomes a simulator, for the campaign and the CLI alike;
* :class:`PersistentPenaltyCache` keeps the memoized contention situations
  warm across runs;
* :class:`CampaignResultStore` collects the results for
  :mod:`repro.analysis`, JSON and CSV consumers.

Shell entry point: ``python -m repro campaign --spec campaign.json``.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".progress": ["CampaignProgress", "ScenarioProgress"],
    ".spec": ["CampaignSpec", "InterferenceSpec", "ScenarioSpec", "WorkloadSpec"],
    ".runner": ["CampaignRunner", "run_scenario"],
    "..core.registry": ["resolve_model"],
    ".persistence": ["PersistentPenaltyCache", "canonical_key"],
    ".results": ["CampaignResultStore", "ScenarioResult"],
})
