"""Penalty measurement software (§IV.B of the paper).

The paper's tool takes (1) an iteration count for ``MPI_Send``, (2) a
referential time — the time of a 20 MB send from node 0 to node 1 with no
other communication — and (3) a scheme description, and reports the penalty
``P_i = T_i / T_ref`` of every communication task.

:class:`PenaltyTool` reproduces that workflow against the calibrated cluster
emulator, whose runs are deterministic (see :meth:`PenaltyTool.measure`);
:meth:`PenaltyTool.compare_with_model` sets a contention model beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from ..core.graph import CommunicationGraph
from ..core.penalty import ContentionModel
from ..exceptions import SimulationError
from ..network.emulator import ClusterEmulator
from ..network.technologies import NetworkTechnology
from ..units import MB, format_time

__all__ = ["PenaltyMeasurement", "PenaltyTool"]


@dataclass
class PenaltyMeasurement:
    """Result of measuring one scheme."""

    scheme_name: str
    network: str
    reference_time: float
    #: per-communication mean time over the iterations (seconds)
    times: Dict[str, float]
    #: per-communication penalty P_i = T_i / T_ref
    penalties: Dict[str, float]
    iterations: int = 1

    def penalty(self, name: str) -> float:
        return self.penalties[name]

    @property
    def mean_penalty(self) -> float:
        return float(np.mean(list(self.penalties.values()))) if self.penalties else 0.0

    @property
    def max_penalty(self) -> float:
        return float(max(self.penalties.values())) if self.penalties else 0.0

    def table(self) -> str:
        """Figure 2 style listing of the measured penalties."""
        lines = [
            f"scheme {self.scheme_name} on {self.network} "
            f"(T_ref = {format_time(self.reference_time)}, {self.iterations} iteration(s))"
        ]
        for name, penalty in self.penalties.items():
            lines.append(
                f"  {name:>4s}  T = {format_time(self.times[name]):>12s}   "
                f"penalty = {penalty:5.2f}"
            )
        return "\n".join(lines)


class PenaltyTool:
    """The paper's measurement software, bound to an emulated cluster."""

    def __init__(
        self,
        network: NetworkTechnology | str | ClusterEmulator = "ethernet",
        iterations: int = 5,
        reference_size: int = 20 * MB,
        num_hosts: int = 64,
    ) -> None:
        if iterations < 1:
            raise SimulationError(f"iterations must be >= 1, got {iterations}")
        if isinstance(network, ClusterEmulator):
            self.emulator = network
        else:
            self.emulator = ClusterEmulator(network, num_hosts=num_hosts)
        self.iterations = int(iterations)
        self.reference_size = int(reference_size)

    # ---------------------------------------------------------------- basics
    @property
    def technology(self) -> NetworkTechnology:
        return self.emulator.technology

    def reference_time(self, size: Optional[int] = None) -> float:
        """The referential time: an isolated send of ``reference_size`` bytes."""
        return self.emulator.reference_time(size or self.reference_size)

    # ------------------------------------------------------------ measurement
    def measure(self, graph: CommunicationGraph) -> PenaltyMeasurement:
        """Measure a scheme: every communication starts together (post-barrier).

        The paper's tool averages ``iterations`` runs against real-cluster
        noise.  The emulator is deterministic, so it runs once and each time
        is the ``np.mean`` of ``iterations`` copies of that run's time: the
        sum of the copies rounds, so the mean can differ from the time in the
        last bit, exactly as the mean of separate identical runs does.
        """
        run = self.emulator.measure_times(graph)
        times = {
            comm.name: float(np.mean([run[comm.name]] * self.iterations)) for comm in graph
        }
        penalties = {
            comm.name: times[comm.name] / self.emulator.reference_time(comm.size) for comm in graph
        }
        return PenaltyMeasurement(
            scheme_name=graph.name,
            network=self.technology.name,
            reference_time=self.reference_time(),
            times=times,
            penalties=penalties,
            iterations=self.iterations,
        )

    def measure_penalties(self, graph: CommunicationGraph) -> Dict[str, float]:
        """Just the penalties (the signature calibration functions expect)."""
        return self.measure(graph).penalties

    def measure_many(
        self, schemes: Mapping[str, CommunicationGraph]
    ) -> Dict[str, PenaltyMeasurement]:
        """Measure a dictionary of schemes (e.g. the Figure 2 ladder)."""
        return {key: self.measure(graph) for key, graph in schemes.items()}

    # ------------------------------------------------------------- comparison
    def compare_with_model(
        self, graph: CommunicationGraph, model: ContentionModel
    ) -> Dict[str, Dict[str, float]]:
        """Measured vs model-predicted penalties for one scheme."""
        measured = self.measure(graph).penalties
        predicted = model.penalties(graph)
        return {
            name: {
                "measured": measured[name],
                "predicted": predicted[name],
                "relative_error_percent": 100.0 * (predicted[name] - measured[name]) / measured[name],
            }
            for name in measured
        }
