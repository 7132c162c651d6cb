"""Communication graphs.

The contention models of the paper reason about a *communication graph*: a
directed multigraph whose vertices are **cluster nodes** (hosts, not MPI
ranks) and whose arcs are the point-to-point communications that are in
flight during a given interval of time.

This module provides :class:`Communication` (one arc) and
:class:`CommunicationGraph` (the multigraph) together with every structural
quantity the models need:

* out-degree ``Δo(v)`` and in-degree ``Δi(v)`` of a node,
* the per-communication degrees ``Δo(i) = Δo(src)`` and ``Δi(i) = Δi(dst)``,
* the sets ``Co`` (same source) and ``Ci`` (same destination),
* the *strongly slowed* sets ``C^m_o`` / ``C^m_i`` of Definition 1 (§V.A),
* the Myrinet conflict graph (communications sharing a source node or a
  destination node) and its connected components.

A graph is a snapshot of one contention situation: it is built once and
then only read.

The graph maintains per-node endpoint indices, so every degree/conflict
query is proportional to the local neighbourhood, not to the whole graph.
:meth:`CommunicationGraph.canonical_component` gives a selection's
canonical, order-independent key, on which the penalty cache of
:mod:`repro.core.incremental` memoizes per-component evaluations across
repeated contention situations.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from ..exceptions import GraphError
from ..units import MB

if TYPE_CHECKING:  # networkx loads only when a conversion runs
    import networkx as nx

__all__ = ["Communication", "CommunicationGraph", "ConflictRule"]


NodeId = int


@dataclass(frozen=True)
class Communication:
    """A single point-to-point communication between two cluster nodes.

    Parameters
    ----------
    name:
        Unique label of the communication inside its graph (the paper labels
        them ``a``, ``b``, ``c``...).
    src, dst:
        Identifiers of the source and destination *nodes* (hosts).
    size:
        Message length in bytes as specified to ``MPI_Send`` (the effective
        wire length includes a small envelope,
        :attr:`repro.network.technologies.NetworkTechnology.mpi_envelope`).
    task_src, task_dst:
        Optional MPI rank identifiers, kept for reporting purposes when the
        graph is derived from an application trace.
    """

    name: str
    src: NodeId
    dst: NodeId
    size: int = 20 * MB
    task_src: int | None = None
    task_dst: int | None = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise GraphError(f"communication {self.name!r} has negative size {self.size}")

    @property
    def is_intra_node(self) -> bool:
        """True when source and destination are the same host."""
        return self.src == self.dst

    @property
    def endpoints(self) -> Tuple[NodeId, NodeId]:
        return (self.src, self.dst)

    def with_size(self, size: int) -> "Communication":
        """Return a copy with a different message size."""
        return replace(self, size=size)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}: {self.src}->{self.dst} ({self.size} B)"


class ConflictRule:
    """Rules deciding when two communications conflict.

    ``ENDPOINT`` is the rule of the Myrinet model (§V.B): a sending
    communication forces into the *wait* state every communication that has
    the same source node **or** the same destination node.  ``ANY_NODE`` is a
    stricter alternative (sharing any endpoint) kept for ablation studies.
    """

    ENDPOINT = "endpoint"
    ANY_NODE = "any-node"

    ALL = (ENDPOINT, ANY_NODE)

    @staticmethod
    def conflicts(rule: str, a: Communication, b: Communication) -> bool:
        """Return True when ``a`` and ``b`` conflict under ``rule``."""
        if rule == ConflictRule.ENDPOINT:
            return a.src == b.src or a.dst == b.dst
        if rule == ConflictRule.ANY_NODE:
            return bool({a.src, a.dst} & {b.src, b.dst})
        raise GraphError(f"unknown conflict rule {rule!r}")


class CommunicationGraph:
    """A directed multigraph of concurrent communications between nodes.

    The graph is the single input of every contention model.  It can be built
    programmatically (:meth:`add`, :meth:`add_edge`), from a compact edge
    list (:meth:`from_edges`) or from the scheme description language
    (:mod:`repro.scheme.language`).
    """

    def __init__(self, communications: Iterable[Communication] = (), name: str = "") -> None:
        self.name = name
        self._comms: Dict[str, Communication] = {}
        # endpoint indices over *inter-node* communications; the inner dicts
        # are used as ordered sets (name -> None) so per-node query results
        # preserve graph insertion order.
        self._by_src: Dict[NodeId, Dict[str, None]] = defaultdict(dict)
        self._by_dst: Dict[NodeId, Dict[str, None]] = defaultdict(dict)
        for comm in communications:
            self.add(comm)

    # ------------------------------------------------------------------ build
    def add(self, comm: Communication) -> Communication:
        """Add a prebuilt :class:`Communication` to the graph."""
        if comm.name in self._comms:
            raise GraphError(f"duplicate communication name {comm.name!r}")
        self._comms[comm.name] = comm
        if not comm.is_intra_node:
            self._by_src[comm.src][comm.name] = None
            self._by_dst[comm.dst][comm.name] = None
        return comm

    def add_edge(
        self,
        src: NodeId,
        dst: NodeId,
        size: int = 20 * MB,
        name: str | None = None,
        task_src: int | None = None,
        task_dst: int | None = None,
    ) -> Communication:
        """Create and add a communication; auto-name it ``a``, ``b``, ... if needed."""
        if name is None:
            name = self._auto_name()
        comm = Communication(name=name, src=src, dst=dst, size=size,
                             task_src=task_src, task_dst=task_dst)
        return self.add(comm)

    def _auto_name(self) -> str:
        index = len(self._comms)
        letters = "abcdefghijklmnopqrstuvwxyz"
        name = ""
        while True:
            name = letters[index % 26] + name
            index = index // 26 - 1
            if index < 0:
                break
        candidate = name
        counter = 1
        while candidate in self._comms:
            candidate = f"{name}{counter}"
            counter += 1
        return candidate

    @classmethod
    def from_edges(
        cls,
        edges: Sequence[Tuple[NodeId, NodeId]] | Sequence[Tuple[NodeId, NodeId, int]],
        size: int = 20 * MB,
        name: str = "",
        names: Sequence[str] | None = None,
    ) -> "CommunicationGraph":
        """Build a graph from ``(src, dst)`` or ``(src, dst, size)`` tuples.

        >>> g = CommunicationGraph.from_edges([(0, 1), (0, 2)])
        >>> sorted(c.name for c in g)
        ['a', 'b']
        """
        graph = cls(name=name)
        for i, edge in enumerate(edges):
            if len(edge) == 2:
                src, dst = edge  # type: ignore[misc]
                sz = size
            elif len(edge) == 3:
                src, dst, sz = edge  # type: ignore[misc]
            else:
                raise GraphError(f"edge {edge!r} must be (src, dst) or (src, dst, size)")
            comm_name = names[i] if names is not None else None
            graph.add_edge(src, dst, size=sz, name=comm_name)
        return graph

    def subgraph(self, names: Iterable[str]) -> "CommunicationGraph":
        """Return the sub-multigraph containing only the named communications."""
        wanted = set(names)
        missing = wanted - set(self._comms)
        if missing:
            raise GraphError(f"unknown communications {sorted(missing)!r}")
        return CommunicationGraph(
            (self._comms[n] for n in self._comms if n in wanted),
            name=self.name,
        )

    def with_sizes(self, size: int) -> "CommunicationGraph":
        """Return a copy of the graph where every message has ``size`` bytes."""
        return CommunicationGraph((c.with_size(size) for c in self), name=self.name)

    # -------------------------------------------------------------- container
    def __len__(self) -> int:
        return len(self._comms)

    def __iter__(self) -> Iterator[Communication]:
        return iter(self._comms.values())

    def __contains__(self, name: object) -> bool:
        return name in self._comms

    def __getitem__(self, name: str) -> Communication:
        try:
            return self._comms[name]
        except KeyError:
            raise GraphError(f"unknown communication {name!r}") from None

    @property
    def communications(self) -> Tuple[Communication, ...]:
        return tuple(self._comms.values())

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._comms.keys())

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        seen: Dict[NodeId, None] = {}
        for comm in self:
            seen.setdefault(comm.src)
            seen.setdefault(comm.dst)
        return tuple(seen)

    @property
    def inter_node_communications(self) -> Tuple[Communication, ...]:
        """Communications whose endpoints are on different hosts."""
        return tuple(c for c in self if not c.is_intra_node)

    @property
    def intra_node_communications(self) -> Tuple[Communication, ...]:
        return tuple(c for c in self if c.is_intra_node)

    # ---------------------------------------------------------------- degrees
    def out_degree(self, node: NodeId) -> int:
        """Number of communications leaving ``node`` (``Δo(v)`` in the paper)."""
        return len(self._by_src.get(node, ()))

    def in_degree(self, node: NodeId) -> int:
        """Number of communications entering ``node`` (``Δi(v)`` in the paper)."""
        return len(self._by_dst.get(node, ()))

    def delta_o(self, comm: Communication | str) -> int:
        """``Δo(i)``: out-degree of the source node of communication ``i``."""
        comm = self._resolve(comm)
        return self.out_degree(comm.src)

    def delta_i(self, comm: Communication | str) -> int:
        """``Δi(i)``: in-degree of the destination node of communication ``i``."""
        comm = self._resolve(comm)
        return self.in_degree(comm.dst)

    def _resolve(self, comm: Communication | str) -> Communication:
        if isinstance(comm, str):
            return self[comm]
        if comm.name in self._comms and self._comms[comm.name].endpoints == comm.endpoints:
            return self._comms[comm.name]
        raise GraphError(f"communication {comm!r} does not belong to this graph")

    # --------------------------------------------------------- conflict sets
    def outgoing_set(self, comm: Communication | str) -> Tuple[Communication, ...]:
        """``Co``: communications sharing the source node of ``comm`` (including it)."""
        comm = self._resolve(comm)
        return tuple(self._comms[n] for n in self._by_src.get(comm.src, ()))

    def incoming_set(self, comm: Communication | str) -> Tuple[Communication, ...]:
        """``Ci``: communications sharing the destination node of ``comm`` (including it)."""
        comm = self._resolve(comm)
        return tuple(self._comms[n] for n in self._by_dst.get(comm.dst, ()))

    def strongly_slowed_outgoing(self, comm: Communication | str) -> Tuple[Communication, ...]:
        """``C^m_o`` restricted to the source node of ``comm``.

        Definition 1 of the paper: among the communications leaving the same
        source node, those whose destination in-degree ``Δi`` is maximal are
        *strongly slowed outgoing* communications.
        """
        comm = self._resolve(comm)
        co = self.outgoing_set(comm)
        if not co:
            return ()
        max_delta_i = max(self.delta_i(c) for c in co)
        return tuple(c for c in co if self.delta_i(c) == max_delta_i)

    def strongly_slowed_incoming(self, comm: Communication | str) -> Tuple[Communication, ...]:
        """``C^m_i`` restricted to the destination node of ``comm`` (Definition 1)."""
        comm = self._resolve(comm)
        ci = self.incoming_set(comm)
        if not ci:
            return ()
        max_delta_o = max(self.delta_o(c) for c in ci)
        return tuple(c for c in ci if self.delta_o(c) == max_delta_o)

    def is_strongly_slowed_outgoing(self, comm: Communication | str) -> bool:
        comm = self._resolve(comm)
        return any(c.name == comm.name for c in self.strongly_slowed_outgoing(comm))

    def is_strongly_slowed_incoming(self, comm: Communication | str) -> bool:
        comm = self._resolve(comm)
        return any(c.name == comm.name for c in self.strongly_slowed_incoming(comm))

    # --------------------------------------------------------- conflict graph
    def conflict_adjacency(self, rule: str = ConflictRule.ENDPOINT) -> Dict[str, FrozenSet[str]]:
        """Undirected conflict graph between communications.

        Two communications are adjacent when they conflict under ``rule``
        (sharing a source node or a destination node for the Myrinet model).
        Intra-node communications never conflict (they do not use the NIC).
        """
        comms = [c for c in self if not c.is_intra_node]
        adjacency: Dict[str, set] = {c.name: set() for c in comms}
        if rule == ConflictRule.ENDPOINT:
            groups: Iterable[Iterable[str]] = itertools.chain(
                self._by_src.values(), self._by_dst.values()
            )
        elif rule == ConflictRule.ANY_NODE:
            by_node: Dict[NodeId, List[str]] = defaultdict(list)
            for c in comms:
                by_node[c.src].append(c.name)
                by_node[c.dst].append(c.name)
            groups = by_node.values()
        else:
            raise GraphError(f"unknown conflict rule {rule!r}")
        for group in groups:
            for a, b in itertools.combinations(group, 2):
                if a != b:
                    adjacency[a].add(b)
                    adjacency[b].add(a)
        return {k: frozenset(v) for k, v in adjacency.items()}

    def conflict_components(self, rule: str = ConflictRule.ENDPOINT) -> List[Tuple[str, ...]]:
        """Connected components of the conflict graph (lists of communication names)."""
        adjacency = self.conflict_adjacency(rule)
        seen: set = set()
        components: List[Tuple[str, ...]] = []
        for start in adjacency:
            if start in seen:
                continue
            stack = [start]
            component: List[str] = []
            seen.add(start)
            while stack:
                current = stack.pop()
                component.append(current)
                for neighbour in adjacency[current]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
            components.append(tuple(sorted(component)))
        return components

    @staticmethod
    def conflict_resources(
        src: NodeId, dst: NodeId, rule: str = ConflictRule.ENDPOINT
    ) -> Tuple[Tuple[str, NodeId], ...]:
        """The endpoint resources an inter-node ``src -> dst`` flow occupies under ``rule``.

        Two inter-node communications conflict exactly when they share one of
        these opaque resource keys, so connected components of the conflict
        graph are equivalence classes of resource co-occupancy.  The
        incremental engine uses this to merge/split components on flow
        arrival/departure without rebuilding the adjacency.
        """
        if rule == ConflictRule.ENDPOINT:
            return (("src", src), ("dst", dst))
        if rule == ConflictRule.ANY_NODE:
            return (("node", src), ("node", dst))
        raise GraphError(f"unknown conflict rule {rule!r}")

    # ----------------------------------------------------------- canonical key
    def canonical_component(
        self, names: Iterable[str]
    ) -> Tuple[Tuple[Tuple[int, int], ...], Dict[str, Tuple[int, int]]]:
        """Canonical key of a selection plus each member's canonical endpoints.

        Nodes are relabelled by their rank among the sorted node identifiers
        of the selection, and the key is the sorted tuple of relabelled
        ``(src_rank, dst_rank)`` edges.  Two selections get the same key
        whenever the order-preserving relabelling of their nodes maps one
        onto the other, whatever the communication names, sizes or
        insertion order.  Key equality therefore implies isomorphism (the
        converse is not attempted: canonical labelling of arbitrary graphs
        is as hard as isomorphism testing), which makes the key safe to
        memoize structural penalty evaluations on.

        >>> g1 = CommunicationGraph.from_edges([(0, 1), (0, 2)])
        >>> g2 = CommunicationGraph.from_edges([(7, 9), (7, 8)])
        >>> g1.canonical_component(g1.names)[0] == g2.canonical_component(g2.names)[0]
        True

        The second element maps every selected communication to its
        ``(src_rank, dst_rank)`` pair under the same node relabelling the key
        is built from, so a memoized result for an isomorphic selection can
        be transported back onto these communications.  Keeping key and
        per-communication ranks derived from one relabelling in one place is
        what makes the penalty cache sound.
        """
        comms = [self[n] for n in names]
        nodes = sorted({c.src for c in comms} | {c.dst for c in comms})
        rank = {node: i for i, node in enumerate(nodes)}
        endpoint_ranks = {c.name: (rank[c.src], rank[c.dst]) for c in comms}
        key = tuple(sorted(endpoint_ranks.values()))
        return key, endpoint_ranks

    # ------------------------------------------------------------ conversions
    def to_networkx(self) -> "nx.MultiDiGraph":
        """Export as a :class:`networkx.MultiDiGraph` (nodes = hosts, edges = comms)."""
        import networkx as nx

        graph = nx.MultiDiGraph(name=self.name)
        for node in self.nodes:
            graph.add_node(node)
        for comm in self:
            graph.add_edge(comm.src, comm.dst, key=comm.name, size=comm.size,
                           task_src=comm.task_src, task_dst=comm.task_dst)
        return graph

    @classmethod
    def from_networkx(cls, graph: "nx.MultiDiGraph", name: str = "") -> "CommunicationGraph":
        """Build from a networkx multi-digraph produced by :meth:`to_networkx`."""
        result = cls(name=name or graph.name or "")
        for src, dst, key, data in graph.edges(keys=True, data=True):
            result.add_edge(src, dst, size=int(data.get("size", 20 * MB)), name=str(key),
                            task_src=data.get("task_src"), task_dst=data.get("task_dst"))
        return result

    def to_edge_list(self) -> List[Tuple[NodeId, NodeId, int]]:
        """Return ``(src, dst, size)`` tuples in insertion order."""
        return [(c.src, c.dst, c.size) for c in self]

    # ------------------------------------------------------------- validation
    def validate(self, allow_intra_node: bool = True) -> None:
        """Raise :class:`GraphError` if the graph violates basic invariants."""
        for comm in self:
            if comm.size < 0:
                raise GraphError(f"negative size on {comm.name!r}")
            if not allow_intra_node and comm.is_intra_node:
                raise GraphError(f"intra-node communication {comm.name!r} not allowed here")

    # -------------------------------------------------------------- equality
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunicationGraph):
            return NotImplemented
        return self.to_edge_list() == other.to_edge_list() and self.names == other.names

    def __hash__(self) -> int:
        return hash((self.names, tuple(self.to_edge_list())))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"<CommunicationGraph{label} {len(self)} communications on {len(self.nodes)} nodes>"

    def describe(self) -> str:
        """Multi-line human readable description (used by examples and reports)."""
        lines = [f"CommunicationGraph {self.name or '(unnamed)'}"]
        for comm in self:
            lines.append(
                f"  {comm.name}: node {comm.src} -> node {comm.dst}"
                f"  size={comm.size} B  Δo={self.delta_o(comm)} Δi={self.delta_i(comm)}"
            )
        return "\n".join(lines)
