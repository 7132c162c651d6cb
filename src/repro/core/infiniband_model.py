"""InfiniBand (InfiniHost III) contention model.

The paper measures InfiniBand penalties (Figure 2) but leaves the model as
future work (§VII: *"We are working too on the model of the Infiniband
InfinihostIII and ConnectX interconnect"*).  This module implements that
extension in the same spirit as the published Gigabit Ethernet model:

* the credit-based flow control of InfiniBand shares the HCA fairly, so the
  basic penalty of ``k`` concurrent outgoing (or incoming) communications is
  ``k · β`` with ``β ≈ 0.87`` (Figure 2: ``1.725/2 = 0.86``, ``2.61/3 =
  0.87``) — the single-stream transfer only reaches ~87 % of what the HCA
  sustains under aggregate load;
* unlike TCP/GigE the measured ladder is symmetric (every communication of a
  conflict gets the same penalty), so the spread parameters ``γ_o``/``γ_i``
  default to zero;
* the measured income/outgo coupling is weak for a single reverse stream and
  significant from the second one on (scheme 4 leaves the outgoing penalties
  untouched, scheme 5 raises them from 2.61 to ≈3.66): this is captured by
  two cross terms ``λ_o`` and ``λ_i`` applied beyond the first reverse
  communication.

Formally, with the same notation as the Ethernet model and writing
``r = Δi(v_s)`` for the number of communications *entering* the source node
and ``s = Δo(v_d)`` for the number of communications *leaving* the
destination node:

.. math::

   p_o' = p_o (1 + λ_o \\max(0, r - 1)),\\qquad
   p_i' = p_i (1 + λ_i \\, s),\\qquad
   p = \\max(1, p_o', p_i')

The default parameters are calibrated on the Figure 2 InfiniHost III column;
:func:`repro.core.calibration.fit_infiniband_parameters` can recalibrate them
against any measured or emulated penalty set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from ..exceptions import ModelError
from .ethernet_model import EthernetParameters, GigabitEthernetModel
from .graph import Communication, CommunicationGraph, ConflictRule
from .penalty import ContentionModel

__all__ = ["InfinibandParameters", "InfinibandModel"]


@dataclass(frozen=True)
class InfinibandParameters:
    """Parameters of the InfiniBand extension model."""

    beta: float = 0.87
    gamma_o: float = 0.0
    gamma_i: float = 0.0
    #: slowdown of outgoing communications per reverse (incoming) communication
    #: at their source node, beyond the first one
    lambda_o: float = 0.42
    #: slowdown of incoming communications per outgoing communication at their
    #: destination node
    lambda_i: float = 0.047

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ModelError(f"beta must be positive, got {self.beta}")
        for label, value in (("gamma_o", self.gamma_o), ("gamma_i", self.gamma_i)):
            if not (0 <= value < 1):
                raise ModelError(f"{label} must lie in [0, 1), got {value}")
        for label, value in (("lambda_o", self.lambda_o), ("lambda_i", self.lambda_i)):
            if value < 0:
                raise ModelError(f"{label} must be non-negative, got {value}")

    @classmethod
    def infinihost3(cls) -> "InfinibandParameters":
        """Parameters calibrated on the paper's InfiniHost III column of Figure 2."""
        return cls()

    def base_parameters(self) -> EthernetParameters:
        """The (β, γo, γi) triple reused from the Ethernet functional form."""
        return EthernetParameters(beta=self.beta, gamma_o=self.gamma_o, gamma_i=self.gamma_i)


class InfinibandModel(ContentionModel):
    """Credit-based flow-control penalty model for InfiniBand HCAs."""

    name = "infiniband"
    network = "InfiniBand (InfiniHost III)"
    # the λ cross terms couple a communication to the flows *entering its
    # source* and *leaving its destination*, which are not ENDPOINT
    # conflicts — the model is only local under the coarser ANY_NODE
    # components (connected host groups).
    component_rule = ConflictRule.ANY_NODE
    structural_penalties = True

    def __init__(self, parameters: InfinibandParameters | None = None) -> None:
        self.parameters = parameters or InfinibandParameters.infinihost3()
        self._base = GigabitEthernetModel(self.parameters.base_parameters())

    def memo_key(self) -> tuple:
        return super().memo_key() + (self.parameters,)

    def communication_penalty(self, graph: CommunicationGraph, comm: Communication | str) -> float:
        comm = graph[comm] if isinstance(comm, str) else graph[comm.name]
        if comm.is_intra_node:
            return 1.0
        params = self.parameters
        po = self._base.outgoing_penalty(graph, comm)
        pi = self._base.incoming_penalty(graph, comm)
        reverse_at_source = graph.in_degree(comm.src)
        forward_at_destination = graph.out_degree(comm.dst)
        po_prime = po * (1.0 + params.lambda_o * max(0, reverse_at_source - 1))
        pi_prime = pi * (1.0 + params.lambda_i * forward_at_destination)
        return max(1.0, po_prime, pi_prime)

    def penalties(self, graph: CommunicationGraph) -> Dict[str, float]:
        graph.validate()
        return {comm.name: self.communication_penalty(graph, comm) for comm in graph}

    def details(self, graph: CommunicationGraph) -> Dict[str, Mapping[str, float]]:
        result: Dict[str, Mapping[str, float]] = {}
        for comm in graph:
            po = self._base.outgoing_penalty(graph, comm)
            pi = self._base.incoming_penalty(graph, comm)
            result[comm.name] = {
                "delta_o": float(graph.delta_o(comm)),
                "delta_i": float(graph.delta_i(comm)),
                "p_o": po,
                "p_i": pi,
                "reverse_at_source": float(graph.in_degree(comm.src)),
                "forward_at_destination": float(graph.out_degree(comm.dst)),
                "penalty": self.communication_penalty(graph, comm),
            }
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = self.parameters
        return (
            f"InfinibandModel(beta={p.beta}, lambda_o={p.lambda_o}, lambda_i={p.lambda_i})"
        )
