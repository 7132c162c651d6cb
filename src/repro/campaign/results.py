"""Campaign result records and exports.

Every scenario produces one :class:`ScenarioResult` — the sweep coordinates
plus the priced outcome (per-communication penalties and predicted times for
graph scenarios, per-task communication times and the makespan for simulated
applications) — or, when it raised a :class:`~repro.exceptions.ReproError`,
one failure entry.  :class:`CampaignResultStore` collects both in scenario
order (independent of which worker finished first, so inline and
process-pool runs produce identical stores) and exports JSON / CSV rows for
:mod:`repro.analysis` and external tooling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Union

__all__ = ["ScenarioResult", "CampaignResultStore"]

#: fixed CSV/table columns (metrics beyond these stay in the JSON export)
_ROW_COLUMNS = (
    "scenario_id", "kind", "workload", "network", "model", "num_hosts",
    "placement", "seed", "interference", "num_communications", "mean_penalty",
    "max_penalty", "total_time",
)


@dataclass
class ScenarioResult:
    """Outcome of one scenario."""

    #: the sweep coordinates (:meth:`ScenarioSpec.axes`)
    axes: Dict[str, Any]
    #: summary metrics; always includes mean_penalty / max_penalty / total_time
    metrics: Dict[str, float]
    #: per-communication penalties (graph scenarios) — the bit-exactness witness
    penalties: Dict[str, float] = field(default_factory=dict)
    #: per-communication predicted times (graph) or per-task comm times (apps)
    times: Dict[str, float] = field(default_factory=dict)

    @property
    def scenario_id(self) -> str:
        return str(self.axes["scenario_id"])

    def row(self) -> Dict[str, Any]:
        """Flat row with the fixed :data:`_ROW_COLUMNS` entries."""
        row: Dict[str, Any] = dict(self.axes)
        row["num_communications"] = len(self.penalties) or len(self.times)
        for column in ("mean_penalty", "max_penalty", "total_time"):
            row[column] = self.metrics.get(column)
        return {column: row.get(column) for column in _ROW_COLUMNS}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "axes": dict(self.axes),
            "metrics": dict(self.metrics),
            "penalties": dict(self.penalties),
            "times": dict(self.times),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioResult":
        return cls(
            axes=dict(data["axes"]),
            metrics={k: float(v) for k, v in data["metrics"].items()},
            penalties={k: float(v) for k, v in data.get("penalties", {}).items()},
            times={k: float(v) for k, v in data.get("times", {}).items()},
        )


@dataclass
class CampaignResultStore:
    """All scenario results of one campaign run, in scenario order."""

    campaign: str
    results: List[ScenarioResult] = field(default_factory=list)
    #: aggregate engine work counters (EngineStats.snapshot() shape)
    stats: Dict[str, int] = field(default_factory=dict)
    #: scenarios that failed, in scenario order: ``{"axes": ..., "error": ...}``
    failures: List[Dict[str, Any]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def by_id(self, scenario_id: str) -> ScenarioResult:
        for result in self.results:
            if result.scenario_id == scenario_id:
                return result
        raise KeyError(f"no scenario {scenario_id!r} in campaign {self.campaign!r}")

    # -------------------------------------------------------------- exports
    def rows(self) -> List[Dict[str, Any]]:
        return [result.row() for result in self.results]

    def summary_table(self) -> str:
        """Paper-style table of every scenario (feeds the CLI output)."""
        from ..analysis.tables import render_table

        rows = []
        for result in self.results:
            row = result.row()
            rows.append([
                row["scenario_id"], row["network"], row["model"],
                row["placement"] or "-", row["interference"] or "-",
                row["num_communications"],
                row["mean_penalty"], row["max_penalty"], row["total_time"],
            ])
        return render_table(
            ["scenario", "network", "model", "placement", "interference",
             "comms", "mean P", "max P", "total T [s]"],
            rows,
            title=f"campaign {self.campaign!r}: {len(self.results)} scenarios",
            float_format="{:.4f}",
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "stats": dict(self.stats),
            "results": [result.to_dict() for result in self.results],
            "failures": list(self.failures),
        }

    def to_json(self, path: Union[str, Path]) -> None:
        """Write :meth:`to_dict` as JSON, atomically (see
        :func:`~repro.campaign.persistence.atomic_write`)."""
        from .persistence import atomic_write

        with atomic_write(path) as handle:
            handle.write(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "CampaignResultStore":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            campaign=str(data["campaign"]),
            results=[ScenarioResult.from_dict(r) for r in data["results"]],
            stats={k: int(v) for k, v in data.get("stats", {}).items()},
            failures=list(data.get("failures", [])),
        )

    def to_csv(self, path: Union[str, Path]) -> None:
        """Write :meth:`rows` as CSV, atomically (see
        :func:`~repro.campaign.persistence.atomic_write`)."""
        import csv

        from .persistence import atomic_write

        with atomic_write(path, newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(_ROW_COLUMNS))
            writer.writeheader()
            writer.writerows(self.rows())
