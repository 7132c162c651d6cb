"""Penalty abstractions shared by every contention model.

The paper's central quantity is the *penalty* of a communication,

.. math::  P_i = T_i / T_{ref}

the ratio between the duration of the communication under contention and the
duration of the same transfer alone on the network (§IV.B).  A model
therefore needs two ingredients:

* a **contention-free cost model** turning a message size into a reference
  time ``T_ref`` (a classic linear latency/bandwidth model, the wormhole
  "overhead + rate" model discussed in §II), and
* a **penalty function** mapping a communication graph to one penalty per
  communication.

:class:`ContentionModel` is the abstract interface implemented by the
Gigabit Ethernet model, the Myrinet model, the InfiniBand extension and the
baselines; :class:`LinearCostModel` is the shared reference-time model;
:class:`PenaltyPrediction` packages the result.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from ..exceptions import ModelError
from ..units import MB, format_time
from .graph import Communication, CommunicationGraph

__all__ = [
    "LinearCostModel",
    "PenaltyPrediction",
    "ContentionModel",
]


@dataclass(frozen=True)
class LinearCostModel:
    """Contention-free communication cost: ``T_ref(L) = latency + L / bandwidth``.

    Parameters
    ----------
    latency:
        Per-message overhead in seconds (the ``o`` / ``L`` terms of LogP).
    bandwidth:
        Sustained single-stream bandwidth in bytes per second.  This is the
        bandwidth a *single* MPI_Send achieves on an idle network, i.e. the
        quantity measured by the paper's "referential time" of a 20 MB send.
    envelope:
        Constant number of bytes added by the MPI implementation to every
        message (the paper notes the effective length is always greater than
        the specified length, so a 0-byte send is not free).
    """

    latency: float
    bandwidth: float
    envelope: int = 0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ModelError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ModelError(f"latency must be non-negative, got {self.latency}")
        if self.envelope < 0:
            raise ModelError(f"envelope must be non-negative, got {self.envelope}")

    @classmethod
    def for_technology(cls, technology) -> "LinearCostModel":
        """Cost model of a :class:`~repro.network.technologies.NetworkTechnology`.

        The single construction used by the CLI, the experiment runner and
        the campaign runner, so the technology → (latency, bandwidth,
        envelope) mapping lives in one place.
        """
        return cls(
            latency=technology.latency,
            bandwidth=technology.single_stream_bandwidth,
            envelope=technology.mpi_envelope,
        )

    def time(self, size: int) -> float:
        """Reference (uncontended) duration of a ``size``-byte message."""
        if size < 0:
            raise ModelError(f"negative message size {size}")
        return self.latency + (size + self.envelope) / self.bandwidth

    def reference_time(self, size: int = 20 * MB) -> float:
        """``T_ref``: duration of the paper's reference 20 MB message."""
        return self.time(size)

    def effective_bandwidth(self, size: int) -> float:
        """Achieved bandwidth (bytes/s) for a message of ``size`` bytes."""
        duration = self.time(size)
        if duration == 0:
            return float("inf")
        return size / duration


@dataclass
class PenaltyPrediction:
    """Result of applying a contention model to a communication graph."""

    model_name: str
    graph_name: str
    penalties: Dict[str, float]
    #: predicted durations in seconds; empty when no cost model was supplied
    times: Dict[str, float] = field(default_factory=dict)
    #: optional per-communication diagnostic details (model specific)
    details: Dict[str, Mapping[str, float]] = field(default_factory=dict)

    def penalty(self, name: str) -> float:
        try:
            return self.penalties[name]
        except KeyError:
            raise ModelError(f"no penalty predicted for communication {name!r}") from None

    def time(self, name: str) -> float:
        try:
            return self.times[name]
        except KeyError:
            raise ModelError(f"no time predicted for communication {name!r}") from None

    @property
    def mean_penalty(self) -> float:
        if not self.penalties:
            return 0.0
        return sum(self.penalties.values()) / len(self.penalties)

    @property
    def max_penalty(self) -> float:
        return max(self.penalties.values(), default=0.0)

    def as_table(self) -> str:
        """Paper-style two-column table: communication name, penalty (and time)."""
        lines = [f"{self.model_name} on {self.graph_name or '(unnamed graph)'}"]
        for name in self.penalties:
            row = f"  {name:>4s}  penalty = {self.penalties[name]:6.3f}"
            if name in self.times:
                row += f"  predicted T = {format_time(self.times[name])}"
            lines.append(row)
        return "\n".join(lines)


class ContentionModel(abc.ABC):
    """Abstract contention model: communication graph → per-communication penalties."""

    #: short machine-readable identifier ("ethernet", "myrinet", ...)
    name: str = "abstract"
    #: network technology the model was designed for (free-form label)
    network: str = "generic"
    #: conflict rule under which the model is *component-local*: the penalty
    #: of a communication only depends on the connected component of the
    #: conflict graph (under this rule) it belongs to.  ``None`` means the
    #: model makes no locality promise and :meth:`component_penalties` falls
    #: back to whole-graph evaluation.  All shipped models are local under
    #: :data:`~repro.core.graph.ConflictRule.ENDPOINT` except the InfiniBand
    #: extension, whose income/outgo cross terms couple communications that
    #: merely share a node (→ ``ANY_NODE``).
    component_rule: str | None = None
    #: True when penalties depend only on the *structure* of the graph (node
    #: identities up to relabelling; never on message sizes or names), which
    #: makes evaluations memoizable by canonical component snapshot
    #: (:meth:`CommunicationGraph.canonical_component`).  Every model of the
    #: paper has this property (penalties are size-free ratios); the
    #: conservative default for third-party subclasses is False.
    structural_penalties: bool = False

    @abc.abstractmethod
    def penalties(self, graph: CommunicationGraph) -> Dict[str, float]:
        """Return the penalty of every communication of ``graph`` (≥ 1).

        Contract: intra-node communications never touch the NIC and must be
        given penalty exactly 1.0 (every shipped model does).  The
        incremental engine relies on this and prices intra-node flows
        without consulting the model.
        """

    def memo_key(self) -> tuple:
        """Hashable identity of the model *and its parameters*.

        Namespaces shared penalty caches: two models may only exchange
        memoized component evaluations when their ``memo_key`` is equal.
        Subclasses with tunable parameters that change penalties must
        include them (see the ethernet/myrinet/infiniband overrides).
        """
        return (type(self).__module__, type(self).__qualname__)

    def component_penalties(
        self, graph: CommunicationGraph, names: Iterable[str]
    ) -> Dict[str, float]:
        """Penalties of the named communications only.

        When :attr:`component_rule` is set, ``names`` must be a union of
        connected components of the conflict graph under that rule (plus any
        intra-node communications); evaluation is then scoped to their
        subgraph, which is exactly equivalent to evaluating the whole graph.
        Models without a locality promise evaluate the whole graph and
        restrict the result.
        """
        names = list(names)
        if self.component_rule is None:
            full = self.penalties(graph)
            return {n: full[n] for n in names}
        return self.penalties(graph.subgraph(names))

    def penalty(self, graph: CommunicationGraph, comm: Communication | str) -> float:
        """Penalty of a single communication (convenience wrapper)."""
        name = comm if isinstance(comm, str) else comm.name
        return self.penalties(graph)[name]

    def details(self, graph: CommunicationGraph) -> Dict[str, Mapping[str, float]]:
        """Optional per-communication diagnostics; empty by default."""
        return {}

    def predict(
        self,
        graph: CommunicationGraph,
        cost_model: Optional[LinearCostModel] = None,
    ) -> PenaltyPrediction:
        """Predict penalties and, when a cost model is given, durations.

        The predicted duration of communication ``c`` is
        ``penalty(c) × T_ref(size(c))`` — contention multiplies the
        contention-free transfer time, which is how the paper converts
        penalties back into seconds for Figures 4 and 7.
        """
        pens = self.penalties(graph)
        times: Dict[str, float] = {}
        if cost_model is not None:
            for comm in graph:
                times[comm.name] = pens[comm.name] * cost_model.time(comm.size)
        return PenaltyPrediction(
            model_name=self.name,
            graph_name=graph.name,
            penalties=pens,
            times=times,
            details=self.details(graph),
        )

    def predict_times(
        self, graph: CommunicationGraph, cost_model: LinearCostModel
    ) -> Dict[str, float]:
        """Predicted duration (seconds) of every communication of ``graph``."""
        return self.predict(graph, cost_model).times

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} network={self.network!r}>"
