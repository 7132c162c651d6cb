"""Baseline models from the related work (§II of the paper).

The paper motivates its contention models by showing that the classic linear
communication models predict concurrent communications poorly.  To be able to
reproduce that comparison, this module implements the baselines:

* :class:`NoContentionModel` — the plain "wormhole" linear model (overhead +
  rate × length) with no sharing at all: every penalty is 1.
* :class:`LogPCostModel` / :class:`LogGPCostModel` — the LogP [4] and
  LogGP [5] cost models.  They are *cost* models (size → time), not
  contention models; :class:`LogGPContentionAdapter` exposes them behind the
  :class:`~repro.core.penalty.ContentionModel` interface with unit penalties
  so that the benchmark harness can sweep them alongside the paper's models.
* :class:`KimLeeModel` — the path-sharing model of Kim & Lee [7]: the linear
  cost of a communication is multiplied by the maximum number of
  communications inside any sharing conflict it traverses.  On a
  full-bisection fat tree the sharing conflicts are located at the end-point
  NICs, so the multiplier reduces to ``max(Δo(i), Δi(i))``; an optional
  ``path_provider`` lets callers add switch-level sharing for oversubscribed
  topologies.
* :class:`FairShareModel` — ideal max-min sharing of the NIC: penalty equals
  the number of flows sharing the most loaded endpoint, without any
  technology-specific inefficiency.  Used by the ablation benchmarks as the
  "perfect fair sharing" reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..exceptions import ModelError
from .graph import Communication, CommunicationGraph, ConflictRule
from .penalty import ContentionModel, LinearCostModel

__all__ = [
    "NoContentionModel",
    "FairShareModel",
    "KimLeeModel",
    "LogPCostModel",
    "LogGPCostModel",
    "LogGPContentionAdapter",
]


class NoContentionModel(ContentionModel):
    """Linear model without any bandwidth sharing: every penalty is exactly 1."""

    name = "no-contention"
    network = "any (linear model)"
    component_rule = ConflictRule.ENDPOINT
    structural_penalties = True

    def penalties(self, graph: CommunicationGraph) -> Dict[str, float]:
        graph.validate()
        return {comm.name: 1.0 for comm in graph}

class FairShareModel(ContentionModel):
    """Ideal max-min fair sharing of the end-point NICs.

    The penalty of a communication is the number of communications sharing
    its most loaded endpoint, ``max(Δo(i), Δi(i))`` — what a perfectly fair,
    perfectly efficient NIC would do.  Real technologies deviate from this
    (GigE by the factor β < 1, Myrinet by Stop & Go serialisation), which is
    exactly what the paper's models capture.
    """

    name = "fair-share"
    network = "ideal NIC"
    component_rule = ConflictRule.ENDPOINT
    structural_penalties = True

    def penalties(self, graph: CommunicationGraph) -> Dict[str, float]:
        graph.validate()
        result: Dict[str, float] = {}
        for comm in graph:
            if comm.is_intra_node:
                result[comm.name] = 1.0
            else:
                result[comm.name] = float(max(1, graph.delta_o(comm), graph.delta_i(comm)))
        return result

PathProvider = Callable[[Communication], Sequence[Tuple[int, int]]]


class KimLeeModel(ContentionModel):
    """Path-sharing model of Kim & Lee (J. Parallel Distrib. Comput. 2001, [7]).

    The communication delay is a piece-wise linear function of the message
    length; when the communication shares part of its path with others, the
    delay is multiplied by the **maximum number of communications within the
    sharing conflict**.

    Parameters
    ----------
    path_provider:
        Optional callable returning, for a communication, the sequence of
        directed network segments it traverses (e.g. switch-to-switch links).
        When omitted, only the source NIC and the destination NIC are
        considered shared segments, which is exact for non-blocking fat
        trees such as the paper's clusters.
    """

    name = "kim-lee"
    network = "Myrinet (GM/BIP workstation network)"

    def __init__(self, path_provider: Optional[PathProvider] = None) -> None:
        self.path_provider = path_provider
        # with a custom path provider, communications may share switch-level
        # segments without sharing endpoints: no locality promise then.
        self.component_rule = None if path_provider is not None else ConflictRule.ENDPOINT
        self.structural_penalties = path_provider is None

    def _segments(self, comm: Communication) -> Sequence[Tuple[int, int]]:
        if self.path_provider is not None:
            return tuple(self.path_provider(comm))
        # endpoint NICs only: the TX port of the source and the RX port of
        # the destination, encoded as (node, direction) pairs.
        return ((comm.src, 0), (comm.dst, 1))

    def penalties(self, graph: CommunicationGraph) -> Dict[str, float]:
        graph.validate()
        usage: Dict[Tuple[int, int], int] = {}
        segments: Dict[str, Sequence[Tuple[int, int]]] = {}
        for comm in graph:
            if comm.is_intra_node:
                segments[comm.name] = ()
                continue
            segs = self._segments(comm)
            segments[comm.name] = segs
            for seg in segs:
                usage[seg] = usage.get(seg, 0) + 1
        result: Dict[str, float] = {}
        for comm in graph:
            segs = segments[comm.name]
            if not segs:
                result[comm.name] = 1.0
            else:
                result[comm.name] = float(max(usage[seg] for seg in segs))
        return result

@dataclass(frozen=True)
class LogPCostModel:
    """The LogP model of Culler et al. [4].

    ``L`` is the network delay, ``o`` the send/receive CPU overhead, ``g``
    the minimum gap between consecutive messages and ``P`` the number of
    processors.  A single short-message transmission costs ``L + 2o``; a
    message of ``n`` fragments costs ``L + 2o + (n - 1) · max(g, o)``.
    """

    L: float
    o: float
    g: float
    P: int = 2
    fragment_size: int = 1024

    def __post_init__(self) -> None:
        if min(self.L, self.o, self.g) < 0:
            raise ModelError("LogP parameters must be non-negative")
        if self.P < 1:
            raise ModelError(f"P must be >= 1, got {self.P}")
        if self.fragment_size <= 0:
            raise ModelError(f"fragment_size must be positive, got {self.fragment_size}")

    def time(self, size: int) -> float:
        """Transfer time of a ``size``-byte message split into fragments."""
        if size < 0:
            raise ModelError(f"negative message size {size}")
        fragments = max(1, -(-size // self.fragment_size))
        return self.L + 2 * self.o + (fragments - 1) * max(self.g, self.o)

    def to_linear(self) -> LinearCostModel:
        """Equivalent latency/bandwidth model for large messages."""
        per_byte = max(self.g, self.o) / self.fragment_size
        return LinearCostModel(latency=self.L + 2 * self.o, bandwidth=1.0 / per_byte)


@dataclass(frozen=True)
class LogGPCostModel:
    """The LogGP model of Alexandrov et al. [5] (LogP + a per-byte Gap ``G``).

    A ``k``-byte message costs ``L + 2o + (k - 1) · G``; consecutive messages
    are separated by ``g``.
    """

    L: float
    o: float
    g: float
    G: float
    P: int = 2

    def __post_init__(self) -> None:
        if min(self.L, self.o, self.g, self.G) < 0:
            raise ModelError("LogGP parameters must be non-negative")
        if self.P < 1:
            raise ModelError(f"P must be >= 1, got {self.P}")

    def time(self, size: int) -> float:
        if size < 0:
            raise ModelError(f"negative message size {size}")
        if size == 0:
            return self.L + 2 * self.o
        return self.L + 2 * self.o + (size - 1) * self.G

    def gap_between_messages(self) -> float:
        return self.g

    def to_linear(self) -> LinearCostModel:
        """Equivalent latency/bandwidth model (bandwidth = 1/G)."""
        if self.G == 0:
            raise ModelError("cannot convert a LogGP model with G=0 to a linear model")
        return LinearCostModel(latency=self.L + 2 * self.o, bandwidth=1.0 / self.G)

    @classmethod
    def from_linear(cls, cost: LinearCostModel, overhead_fraction: float = 0.1) -> "LogGPCostModel":
        """Build a LogGP model matching a latency/bandwidth description."""
        if not (0 <= overhead_fraction < 1):
            raise ModelError("overhead_fraction must lie in [0, 1)")
        o = cost.latency * overhead_fraction / 2.0
        L = cost.latency * (1.0 - overhead_fraction)
        return cls(L=L, o=o, g=o, G=1.0 / cost.bandwidth)


class LogGPContentionAdapter(ContentionModel):
    """Expose a LogP/LogGP cost model behind the contention-model interface.

    The adapter predicts *no* contention (penalty 1 everywhere), which is the
    behaviour the paper criticises: "these linear models poorly predict
    communication delays" when messages overlap.  It is used by the baseline
    ablation benchmark to quantify that gap.
    """

    name = "loggp"
    network = "any (LogGP linear model)"
    component_rule = ConflictRule.ENDPOINT
    structural_penalties = True

    def __init__(self, cost_model: LogGPCostModel | LogPCostModel) -> None:
        self.cost_model = cost_model

    def penalties(self, graph: CommunicationGraph) -> Dict[str, float]:
        graph.validate()
        return {comm.name: 1.0 for comm in graph}

    def predict_times_loggp(self, graph: CommunicationGraph) -> Dict[str, float]:
        """Predicted durations using the wrapped LogP/LogGP cost directly."""
        return {comm.name: self.cost_model.time(comm.size) for comm in graph}
