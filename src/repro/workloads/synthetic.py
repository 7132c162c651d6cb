"""Synthetic communication-scheme generators.

The paper evaluates its models on synthetic graphs — a tree (MK1) and a
complete graph (MK2) — before moving to Linpack.  These generators produce
families of such graphs (random trees, complete graphs, random digraphs,
bipartite fan patterns) so that the ablation benchmarks can sweep model
accuracy and enumeration cost over graph size and density.

All generators are deterministic given their ``seed``.  A random tree is
networkx 3.x's ``random_labeled_tree`` stream, drawn and decoded here
without networkx (:func:`random_tree_scheme`): campaign results and the
stored benchmark digests depend on every tree staying the same.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Sequence, Tuple

import numpy as np

from ..core.graph import CommunicationGraph
from ..exceptions import WorkloadError
from ..units import MB

__all__ = [
    "random_tree_scheme",
    "complete_graph_scheme",
    "random_graph_scheme",
    "bipartite_fan_scheme",
    "hotspot_scheme",
    "scheme_family",
]


def _check_nodes(num_nodes: int, minimum: int = 2) -> None:
    if num_nodes < minimum:
        raise WorkloadError(f"need at least {minimum} nodes, got {num_nodes}")


def random_tree_scheme(
    num_nodes: int, seed: int = 0, size: int = 4 * MB, name: str = ""
) -> CommunicationGraph:
    """A random spanning tree with randomly oriented communications (MK1-like).

    The tree is the one networkx 3.x's ``random_labeled_tree(num_nodes,
    seed=s)`` returns, where ``s`` is the first draw of
    ``numpy.random.default_rng(seed)``: a Prüfer sequence of
    ``num_nodes - 2`` draws of ``random.Random(s).choice(range(num_nodes))``,
    decoded.  Its edges are taken as sorted ``(low, high)`` pairs, and the
    generator's next draw reverses each with probability one half.
    Campaign results and their stored digests depend on this exact stream.
    """
    _check_nodes(num_nodes)
    rng = np.random.default_rng(seed)
    draws = random.Random(int(rng.integers(0, 2**31 - 1)))
    sequence = [draws.choice(range(num_nodes)) for _ in range(num_nodes - 2)]
    graph = CommunicationGraph(name=name or f"random-tree-{num_nodes}-s{seed}")
    for u, v in _prufer_tree_edges(sequence, num_nodes):
        if rng.random() < 0.5:
            u, v = v, u
        graph.add_edge(u, v, size=size)
    return graph


def _prufer_tree_edges(sequence: Sequence[int], num_nodes: int) -> List[Tuple[int, int]]:
    """The tree on ``0..num_nodes-1`` with Prüfer sequence ``sequence``.

    Each step joins the smallest leaf to the sequence's next node and drops
    the leaf; the last two nodes are joined.  Edges are sorted ``(low, high)``
    pairs.
    """
    degree = [1] * num_nodes
    for node in sequence:
        degree[node] += 1
    leaves = [node for node in range(num_nodes) if degree[node] == 1]  # sorted: a heap
    edges = []
    for node in sequence:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, node) if leaf < node else (node, leaf))
        degree[node] -= 1
        if degree[node] == 1:
            heapq.heappush(leaves, node)
    low, high = sorted(leaves)
    edges.append((low, high))
    return sorted(edges)


def complete_graph_scheme(
    num_nodes: int, seed: int = 0, size: int = 4 * MB, name: str = ""
) -> CommunicationGraph:
    """One communication per unordered node pair, random orientation (MK2-like)."""
    _check_nodes(num_nodes)
    rng = np.random.default_rng(seed)
    graph = CommunicationGraph(name=name or f"complete-{num_nodes}-s{seed}")
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            src, dst = (u, v) if rng.random() < 0.5 else (v, u)
            graph.add_edge(src, dst, size=size)
    return graph


def random_graph_scheme(
    num_nodes: int,
    num_communications: int,
    seed: int = 0,
    size: int = 4 * MB,
    allow_parallel: bool = False,
    name: str = "",
) -> CommunicationGraph:
    """``num_communications`` random directed communications among ``num_nodes`` nodes."""
    _check_nodes(num_nodes)
    if num_communications < 1:
        raise WorkloadError(f"need at least one communication, got {num_communications}")
    max_pairs = num_nodes * (num_nodes - 1)
    if not allow_parallel and num_communications > max_pairs:
        raise WorkloadError(
            f"{num_communications} distinct ordered pairs requested but only "
            f"{max_pairs} exist among {num_nodes} nodes"
        )
    rng = np.random.default_rng(seed)
    graph = CommunicationGraph(name=name or f"random-{num_nodes}n-{num_communications}c-s{seed}")
    used: set = set()
    attempts = 0
    while len(graph) < num_communications:
        attempts += 1
        if attempts > 1000 * num_communications:
            raise WorkloadError("random scheme generation did not converge")
        src = int(rng.integers(0, num_nodes))
        dst = int(rng.integers(0, num_nodes))
        if src == dst:
            continue
        if not allow_parallel and (src, dst) in used:
            continue
        used.add((src, dst))
        graph.add_edge(src, dst, size=size)
    return graph


def bipartite_fan_scheme(
    num_senders: int, num_receivers: int, seed: int = 0, size: int = 4 * MB,
    density: float = 1.0, name: str = "",
) -> CommunicationGraph:
    """Senders 0..S-1 transmit to receivers S..S+R-1 (all-to-all or thinned)."""
    if num_senders < 1 or num_receivers < 1:
        raise WorkloadError("need at least one sender and one receiver")
    if not (0 < density <= 1):
        raise WorkloadError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    graph = CommunicationGraph(name=name or f"fan-{num_senders}x{num_receivers}-s{seed}")
    for s in range(num_senders):
        for r in range(num_receivers):
            if density >= 1.0 or rng.random() < density:
                graph.add_edge(s, num_senders + r, size=size)
    if len(graph) == 0:
        graph.add_edge(0, num_senders, size=size)
    return graph


def hotspot_scheme(
    num_sources: int, hotspot: int = 0, size: int = 4 * MB, name: str = ""
) -> CommunicationGraph:
    """Every source node sends to one hotspot node (pure incoming conflict)."""
    if num_sources < 1:
        raise WorkloadError(f"need at least one source, got {num_sources}")
    graph = CommunicationGraph(name=name or f"hotspot-{num_sources}")
    for i in range(num_sources):
        src = i + 1 if i + 1 != hotspot else num_sources + 1
        graph.add_edge(src, hotspot, size=size)
    return graph


def scheme_family(
    kind: str, sizes: Sequence[int], seed: int = 0, message_size: int = 4 * MB
) -> List[CommunicationGraph]:
    """A family of schemes of growing size, for sweeps (``kind`` in tree/complete/random)."""
    builders = {
        "tree": lambda n, s: random_tree_scheme(n, seed=s, size=message_size),
        "complete": lambda n, s: complete_graph_scheme(n, seed=s, size=message_size),
        "random": lambda n, s: random_graph_scheme(n, 2 * n, seed=s, size=message_size),
    }
    if kind not in builders:
        raise WorkloadError(f"unknown scheme family {kind!r}; known: {sorted(builders)}")
    return [builders[kind](n, seed + i) for i, n in enumerate(sizes)]
