"""Gigabit Ethernet contention model (§V.A of the paper).

The model is *quantitative*: it combines the structure of the communication
graph (degrees and strongly-slowed sets) with three parameters measured once
per NIC:

* ``β`` ("beta") — the basic resource-sharing penalty factor.  It is measured
  from simple outgoing conflicts: with ``k`` concurrent outgoing
  communications each one is slowed by ``k·β`` (Figure 2 gives ``β = 0.75``:
  ``1.5/2 = 2.25/3 = 0.75``).
* ``γ_o`` ("gamma_o") — the additional spread between strongly-slowed and
  other *outgoing* communications.
* ``γ_i`` ("gamma_i") — the same for *incoming* communications.

For a communication ``c_i`` with ``Δo(i)`` outgoing siblings at its source
and ``Δi(i)`` incoming siblings at its destination (Definition 1 gives the
strongly-slowed sets ``C^m_o`` / ``C^m_i``):

.. math::

   p_o = \\begin{cases}
       1 & \\text{if } Δo(i) = 1 \\\\
       Δo(i)\\,β\\,(1 + γ_o (Δo(i) - |C^m_o|)) & \\text{if } c_i ∈ C^m_o \\\\
       Δo(i)\\,β\\,(1 - γ_o / |C^m_o|) & \\text{otherwise}
   \\end{cases}

``p_i`` is defined symmetrically with ``Δi`` and ``γ_i``, and the penalty of
the communication is ``p = max(p_o, p_i)``.

The default parameters are the ones the paper estimates on its IBM e326 /
BCM5704 cluster (β = 0.75, γ_o = 0.115, γ_i = 0.036); use
:mod:`repro.core.calibration` to estimate them for another emulated or real
card.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from ..exceptions import ModelError
from .graph import Communication, CommunicationGraph, ConflictRule
from .penalty import ContentionModel

__all__ = ["EthernetParameters", "GigabitEthernetModel"]


@dataclass(frozen=True)
class EthernetParameters:
    """The three card-specific parameters of the Gigabit Ethernet model.

    The model's ``memo_key`` holds the parameters, so every penalty-cache
    lookup hashes them.  The hash is computed once, at construction: the
    generated ``__hash__`` of a frozen dataclass is Python code that builds
    the field tuple on every call.  It equals the generated one,
    ``hash((beta, gamma_o, gamma_i))``; equality, ``dataclasses.fields``
    and the persisted cache keys are unchanged.
    """

    beta: float = 0.75
    gamma_o: float = 0.115
    gamma_i: float = 0.036

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ModelError(f"beta must be positive, got {self.beta}")
        if not (0 <= self.gamma_o < 1):
            raise ModelError(f"gamma_o must lie in [0, 1), got {self.gamma_o}")
        if not (0 <= self.gamma_i < 1):
            raise ModelError(f"gamma_i must lie in [0, 1), got {self.gamma_i}")
        object.__setattr__(self, "_hash", hash((self.beta, self.gamma_o, self.gamma_i)))

    def __hash__(self) -> int:
        return self._hash

    #: parameters published in the paper for the BCM5704 Gigabit Ethernet card
    @classmethod
    def paper(cls) -> "EthernetParameters":
        return cls(beta=0.75, gamma_o=0.115, gamma_i=0.036)


class GigabitEthernetModel(ContentionModel):
    """Analytic penalty model for TCP over Gigabit Ethernet (§V.A)."""

    name = "gigabit-ethernet"
    network = "Gigabit Ethernet (TCP)"
    # p depends on Δo/Δi and the strongly-slowed sets, all of which are
    # contained in the ENDPOINT conflict component of the communication.
    component_rule = ConflictRule.ENDPOINT
    structural_penalties = True

    def __init__(self, parameters: EthernetParameters | None = None) -> None:
        self.parameters = parameters or EthernetParameters.paper()

    def memo_key(self) -> tuple:
        return super().memo_key() + (self.parameters,)

    # ------------------------------------------------------------------ model
    def outgoing_penalty(self, graph: CommunicationGraph, comm: Communication | str) -> float:
        """``p_o``: penalty contribution of the conflict in emission."""
        comm = graph[comm] if isinstance(comm, str) else graph[comm.name]
        if comm.is_intra_node:
            return 1.0
        delta_o = graph.delta_o(comm)
        if delta_o <= 1:
            return 1.0
        params = self.parameters
        strongly = graph.strongly_slowed_outgoing(comm)
        card = max(1, len(strongly))
        if graph.is_strongly_slowed_outgoing(comm):
            return delta_o * params.beta * (1.0 + params.gamma_o * (delta_o - card))
        return delta_o * params.beta * (1.0 - params.gamma_o / card)

    def incoming_penalty(self, graph: CommunicationGraph, comm: Communication | str) -> float:
        """``p_i``: penalty contribution of the conflict in reception."""
        comm = graph[comm] if isinstance(comm, str) else graph[comm.name]
        if comm.is_intra_node:
            return 1.0
        delta_i = graph.delta_i(comm)
        if delta_i <= 1:
            return 1.0
        params = self.parameters
        strongly = graph.strongly_slowed_incoming(comm)
        card = max(1, len(strongly))
        if graph.is_strongly_slowed_incoming(comm):
            return delta_i * params.beta * (1.0 + params.gamma_i * (delta_i - card))
        return delta_i * params.beta * (1.0 - params.gamma_i / card)

    def communication_penalty(self, graph: CommunicationGraph, comm: Communication | str) -> float:
        """``p = max(p_o, p_i)`` clamped to at least 1 (a transfer cannot speed up)."""
        po = self.outgoing_penalty(graph, comm)
        pi = self.incoming_penalty(graph, comm)
        return max(1.0, po, pi)

    # -------------------------------------------------------------- interface
    def penalties(self, graph: CommunicationGraph) -> Dict[str, float]:
        graph.validate()
        return {comm.name: self.communication_penalty(graph, comm) for comm in graph}

    def details(self, graph: CommunicationGraph) -> Dict[str, Mapping[str, float]]:
        """Per-communication diagnostics: Δ degrees, p_o/p_i, memberships, cards."""
        result: Dict[str, Mapping[str, float]] = {}
        for comm in graph:
            po = self.outgoing_penalty(graph, comm)
            pi = self.incoming_penalty(graph, comm)
            result[comm.name] = {
                "delta_o": float(graph.delta_o(comm)),
                "delta_i": float(graph.delta_i(comm)),
                "p_o": po,
                "p_i": pi,
                "penalty": max(1.0, po, pi),
                "in_cmo": float(graph.is_strongly_slowed_outgoing(comm)),
                "in_cmi": float(graph.is_strongly_slowed_incoming(comm)),
                "card_cmo": float(len(graph.strongly_slowed_outgoing(comm))),
                "card_cmi": float(len(graph.strongly_slowed_incoming(comm))),
            }
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = self.parameters
        return (
            f"GigabitEthernetModel(beta={p.beta}, gamma_o={p.gamma_o}, gamma_i={p.gamma_i})"
        )
