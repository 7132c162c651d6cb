"""Task placement (the "scheduling of tasks on nodes" input of §VI.A).

The paper evaluates three placements of MPI tasks on nodes:

* **RRN** — Round-Robin per Node: task ``i`` runs on node ``i mod N`` (tasks
  are spread across nodes first);
* **RRP** — Round-Robin per Processor: nodes are filled core by core (task
  ``i`` runs on node ``i // cores_per_node``);
* **Random** — tasks are assigned to cores uniformly at random (seeded).

A :class:`Placement` maps every MPI rank to a ``(node, core)`` pair and is
what turns a rank-level application trace into the node-level communication
graphs the contention models consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..exceptions import SchedulingError
from .spec import ClusterSpec

__all__ = [
    "Placement",
    "round_robin_per_node",
    "round_robin_per_processor",
    "random_placement",
    "user_defined_placement",
    "make_placement",
    "PLACEMENT_POLICIES",
]


@dataclass(frozen=True)
class Placement:
    """Mapping from MPI rank to (node, core)."""

    policy: str
    #: rank -> node index
    node_of_rank: Tuple[int, ...]
    #: rank -> core index inside the node
    core_of_rank: Tuple[int, ...]
    cluster: ClusterSpec | None = None

    def __post_init__(self) -> None:
        if len(self.node_of_rank) != len(self.core_of_rank):
            raise SchedulingError("node and core mappings must have the same length")

    @property
    def num_tasks(self) -> int:
        return len(self.node_of_rank)

    def node(self, rank: int) -> int:
        self._check_rank(rank)
        return self.node_of_rank[rank]

    def core(self, rank: int) -> int:
        self._check_rank(rank)
        return self.core_of_rank[rank]

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.num_tasks):
            raise SchedulingError(f"rank {rank} outside placement of {self.num_tasks} tasks")

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """True when both ranks share an SMP node (intra-node communication)."""
        return self.node(rank_a) == self.node(rank_b)

    @property
    def nodes_used(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.node_of_rank)))

    def ranks_on_node(self, node: int) -> Tuple[int, ...]:
        return tuple(r for r, n in enumerate(self.node_of_rank) if n == node)

    def tasks_per_node(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for node in self.node_of_rank:
            counts[node] = counts.get(node, 0) + 1
        return counts

    def describe(self) -> str:
        lines = [f"Placement ({self.policy}) of {self.num_tasks} tasks:"]
        for node in self.nodes_used:
            ranks = ", ".join(str(r) for r in self.ranks_on_node(node))
            lines.append(f"  node {node}: ranks {ranks}")
        return "\n".join(lines)


def _check_capacity(cluster: ClusterSpec, num_tasks: int, oversubscribe: bool) -> None:
    if num_tasks < 1:
        raise SchedulingError(f"need at least one task, got {num_tasks}")
    if not oversubscribe and num_tasks > cluster.total_cores:
        raise SchedulingError(
            f"{num_tasks} tasks do not fit on {cluster.total_cores} cores of "
            f"{cluster.name!r}; pass oversubscribe=True to allow it"
        )


def round_robin_per_node(
    cluster: ClusterSpec, num_tasks: int, oversubscribe: bool = False
) -> Placement:
    """RRN: ranks are dealt to nodes cyclically (rank i -> node i mod N)."""
    _check_capacity(cluster, num_tasks, oversubscribe)
    nodes_needed = min(cluster.num_nodes, num_tasks)
    node_of_rank: List[int] = []
    core_counter: Dict[int, int] = {}
    for rank in range(num_tasks):
        node = rank % nodes_needed
        node_of_rank.append(node)
        core_counter[node] = core_counter.get(node, 0)
    core_of_rank: List[int] = []
    seen: Dict[int, int] = {}
    for node in node_of_rank:
        core_of_rank.append(seen.get(node, 0))
        seen[node] = seen.get(node, 0) + 1
    return Placement("RRN", tuple(node_of_rank), tuple(core_of_rank), cluster)


def round_robin_per_processor(
    cluster: ClusterSpec, num_tasks: int, oversubscribe: bool = False
) -> Placement:
    """RRP: nodes are filled core by core (rank i -> node i // cores_per_node)."""
    _check_capacity(cluster, num_tasks, oversubscribe)
    cores = cluster.cores_per_node
    node_of_rank = tuple((rank // cores) % cluster.num_nodes for rank in range(num_tasks))
    core_of_rank = tuple(rank % cores for rank in range(num_tasks))
    return Placement("RRP", node_of_rank, core_of_rank, cluster)


def random_placement(
    cluster: ClusterSpec, num_tasks: int, seed: int = 0, oversubscribe: bool = False
) -> Placement:
    """Random placement: tasks are assigned to free cores uniformly at random."""
    _check_capacity(cluster, num_tasks, oversubscribe)
    rng = np.random.default_rng(seed)
    slots = [(node, core) for node in range(cluster.num_nodes)
             for core in range(cluster.cores_per_node)]
    if num_tasks <= len(slots):
        chosen_indices = rng.permutation(len(slots))[:num_tasks]
        chosen = [slots[i] for i in chosen_indices]
    else:
        # oversubscribed: sample with replacement beyond the core count
        chosen = [slots[i] for i in rng.integers(0, len(slots), size=num_tasks)]
    node_of_rank = tuple(node for node, _ in chosen)
    core_of_rank = tuple(core for _, core in chosen)
    return Placement(f"Random(seed={seed})", node_of_rank, core_of_rank, cluster)


def user_defined_placement(
    cluster: ClusterSpec, node_of_rank: Sequence[int], core_of_rank: Sequence[int] | None = None
) -> Placement:
    """User-defined placement (the paper's simulator also accepts explicit maps)."""
    node_of_rank = tuple(int(n) for n in node_of_rank)
    for node in node_of_rank:
        if not (0 <= node < cluster.num_nodes):
            raise SchedulingError(f"node {node} outside cluster of {cluster.num_nodes} nodes")
    if core_of_rank is None:
        seen: Dict[int, int] = {}
        cores: List[int] = []
        for node in node_of_rank:
            cores.append(seen.get(node, 0))
            seen[node] = seen.get(node, 0) + 1
        core_of_rank = tuple(cores)
    else:
        core_of_rank = tuple(int(c) for c in core_of_rank)
    return Placement("user-defined", node_of_rank, core_of_rank, cluster)


PLACEMENT_POLICIES = {
    "rrn": round_robin_per_node,
    "round-robin-per-node": round_robin_per_node,
    "rrp": round_robin_per_processor,
    "round-robin-per-processor": round_robin_per_processor,
    "random": random_placement,
}


def make_placement(
    policy: str, cluster: ClusterSpec, num_tasks: int, seed: int = 0,
    oversubscribe: bool = False,
) -> Placement:
    """Build a placement by policy name (``"RRN"``, ``"RRP"``, ``"random"``)."""
    key = policy.lower()
    if key not in PLACEMENT_POLICIES:
        raise SchedulingError(
            f"unknown placement policy {policy!r}; known: {', '.join(sorted(PLACEMENT_POLICIES))}"
        )
    factory = PLACEMENT_POLICIES[key]
    if key == "random":
        return factory(cluster, num_tasks, seed=seed, oversubscribe=oversubscribe)
    return factory(cluster, num_tasks, oversubscribe=oversubscribe)
