"""Scenario-campaign orchestration: declarative sweeps, a parallel runner and
a persistent cross-run penalty cache.

The contention models are only useful at scale when many scenarios — schemes
× networks × models × placements — can be priced cheaply.  This package
turns the incremental engine of :mod:`repro.core.incremental` into an
orchestration layer:

* :class:`CampaignSpec` expands declarative sweeps into concrete scenarios;
* :class:`CampaignRunner` executes them inline or on worker processes,
  deduplicating the cache-miss component evaluations campaign-wide and
  fanning them out to the workers;
* :class:`PersistentPenaltyCache` keeps the memoized contention situations
  warm across runs;
* :class:`CampaignResultStore` collects the results for
  :mod:`repro.analysis`, JSON and CSV consumers.

Shell entry point: ``python -m repro campaign --spec campaign.json``.
"""

from .persistence import PersistentPenaltyCache, canonical_key
from .progress import CampaignProgress, ScenarioProgress
from .results import CampaignResultStore, ScenarioResult
from .runner import CampaignRunner, resolve_model
from .spec import CampaignSpec, InterferenceSpec, ScenarioSpec, WorkloadSpec

__all__ = [
    "CampaignProgress",
    "ScenarioProgress",
    "CampaignSpec",
    "InterferenceSpec",
    "ScenarioSpec",
    "WorkloadSpec",
    "CampaignRunner",
    "resolve_model",
    "PersistentPenaltyCache",
    "canonical_key",
    "CampaignResultStore",
    "ScenarioResult",
]
