"""Myrinet 2000 contention model (§V.B of the paper).

Myrinet NICs use a *Stop & Go* flow control with cut-through routing: while a
communication is transmitting ("send" state), the communications that share
its source node or its destination node are blocked ("wait" state).  The
model is *descriptive*: it enumerates every possible combination of
communication states allowed by that single rule and derives penalties from
the combinatorics.

Algorithm (Figures 5 and 6 of the paper):

1. Build the **conflict graph**: one vertex per communication, an edge
   between two communications that share a source node or share a
   destination node.
2. Enumerate all **state sets** — maximal sets of communications that can be
   simultaneously in the "send" state, i.e. maximal independent sets of the
   conflict graph.
3. The **emission coefficient** of a communication is the number of state
   sets in which it sends.
4. Communications leaving the same node share the NIC fairly, so each of
   them is aligned on the **minimum** emission coefficient of the outgoing
   communications of that node (worst case assumption of the paper).
5. ``penalty = (number of state sets) / (adjusted emission coefficient)``.

Enumerating maximal independent sets is exponential in the worst case; the
implementation therefore decomposes the conflict graph into connected
components first (the penalty of a communication only depends on its own
component: the total number of state sets and the emission coefficient are
both multiplied by the same product over the other components) and uses a
Bron–Kerbosch search with pivoting inside each component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Sequence, Tuple

from ..exceptions import ModelError
from .graph import CommunicationGraph, ConflictRule
from .penalty import ContentionModel

__all__ = [
    "maximal_independent_sets",
    "StateSetAnalysis",
    "MyrinetModel",
]


def maximal_independent_sets(adjacency: Mapping[str, FrozenSet[str]]) -> List[FrozenSet[str]]:
    """Enumerate the maximal independent sets of an undirected graph.

    ``adjacency`` maps each vertex to the frozenset of its neighbours.  The
    maximal independent sets of a graph are exactly the maximal cliques of
    its complement; we run Bron–Kerbosch with pivoting on the complement.

    The result is returned in a deterministic order (sorted by the sorted
    tuple of members) so that downstream reports are reproducible.
    """
    vertices = list(adjacency)
    vertex_set = set(vertices)
    # complement adjacency: neighbours in the complement graph
    complement: Dict[str, set] = {
        v: (vertex_set - set(adjacency[v]) - {v}) for v in vertices
    }

    results: List[FrozenSet[str]] = []

    def bron_kerbosch(r: set, p: set, x: set) -> None:
        if not p and not x:
            results.append(frozenset(r))
            return
        # pivot on the vertex of P ∪ X with the most complement-neighbours in P
        pivot_pool = p | x
        pivot = max(pivot_pool, key=lambda v: len(complement[v] & p))
        for v in list(p - complement[pivot]):
            bron_kerbosch(r | {v}, p & complement[v], x & complement[v])
            p.remove(v)
            x.add(v)

    if vertices:
        bron_kerbosch(set(), set(vertices), set())
    return sorted(results, key=lambda s: tuple(sorted(s)))


@dataclass
class StateSetAnalysis:
    """Full result of the Myrinet state-set analysis of one communication graph.

    Attributes
    ----------
    state_sets:
        The maximal sets of simultaneously sending communications.  When the
        analysis was run per connected component (the default for the model),
        these are the state sets of the *whole* graph only if
        ``decomposed`` is False; otherwise they are per-component sets glued
        together for reporting and their count is ``num_state_sets``.
    emission:
        Raw emission coefficient of each communication (number of state sets
        in which it sends).
    adjusted_emission:
        Emission after the per-source-node minimum alignment (step 4).
    penalties:
        ``num_state_sets / adjusted_emission`` for each communication.
    """

    graph_name: str
    state_sets: Tuple[FrozenSet[str], ...]
    num_state_sets: int
    emission: Dict[str, int]
    adjusted_emission: Dict[str, int]
    penalties: Dict[str, float]
    decomposed: bool = False

    def table(self) -> str:
        """Figure 6 style table: Sum / Minimum / penalty rows."""
        names = list(self.emission)
        header = "Communications".ljust(16) + "".join(f"{n:>8s}" for n in names)
        sum_row = "Sum".ljust(16) + "".join(f"{self.emission[n]:>8d}" for n in names)
        min_row = "Minimum".ljust(16) + "".join(f"{self.adjusted_emission[n]:>8d}" for n in names)
        pen_row = "penalty".ljust(16) + "".join(f"{self.penalties[n]:>8.2f}" for n in names)
        title = f"state sets: {self.num_state_sets}"
        return "\n".join([title, header, sum_row, min_row, pen_row])


def _analyse_component(
    graph: CommunicationGraph,
    component: Sequence[str],
    adjacency: Mapping[str, FrozenSet[str]],
) -> Tuple[List[FrozenSet[str]], Dict[str, int], Dict[str, int], Dict[str, float]]:
    """Run steps 2–5 of the model on one connected component of the conflict graph."""
    sub_adj = {name: adjacency[name] & frozenset(component) for name in component}
    sets = maximal_independent_sets(sub_adj)
    num_sets = len(sets)
    emission = {name: sum(1 for s in sets if name in s) for name in component}

    # step 4: per-source-node minimum among outgoing communications
    adjusted: Dict[str, int] = dict(emission)
    by_source: Dict[int, List[str]] = {}
    for name in component:
        by_source.setdefault(graph[name].src, []).append(name)
    for names in by_source.values():
        minimum = min(emission[n] for n in names)
        for n in names:
            adjusted[n] = minimum

    penalties = {name: num_sets / adjusted[name] for name in component}
    return sets, emission, adjusted, penalties


class MyrinetModel(ContentionModel):
    """Descriptive Stop & Go state-set model for Myrinet 2000 (§V.B)."""

    name = "myrinet"
    network = "Myrinet 2000 (MX)"
    structural_penalties = True

    def __init__(
        self,
        conflict_rule: str = ConflictRule.ENDPOINT,
        max_component_size: int = 26,
        decompose: bool = True,
    ) -> None:
        """
        Parameters
        ----------
        conflict_rule:
            Which sharing rule defines a conflict; the paper's rule is
            :data:`ConflictRule.ENDPOINT` (same source node or same
            destination node).
        max_component_size:
            Safety cap on the size of a conflict-graph component handed to
            the exponential enumeration.  Larger components raise
            :class:`ModelError` so callers notice they need coarser phases.
        decompose:
            Analyse each connected component of the conflict graph
            separately (recommended; mathematically equivalent penalties).
        """
        if conflict_rule not in ConflictRule.ALL:
            raise ModelError(f"unknown conflict rule {conflict_rule!r}")
        self.conflict_rule = conflict_rule
        self.max_component_size = int(max_component_size)
        self.decompose = bool(decompose)
        # the state-set analysis is component-local under the model's own
        # conflict rule (it decomposes along exactly these components).  With
        # decompose=False the caller explicitly asked for whole-graph
        # analysis — declaring locality would let the incremental engine
        # decompose anyway, which keeps the penalties identical but changes
        # the max_component_size error semantics vs a full recomputation.
        self.component_rule = conflict_rule if self.decompose else None

    def memo_key(self) -> tuple:
        return super().memo_key() + (
            self.conflict_rule, self.max_component_size, self.decompose,
        )

    # -------------------------------------------------------------- analysis
    def analyse(self, graph: CommunicationGraph) -> StateSetAnalysis:
        """Run the full state-set analysis and return every intermediate quantity."""
        graph.validate()
        adjacency = graph.conflict_adjacency(self.conflict_rule)
        inter = [c.name for c in graph if not c.is_intra_node]
        intra = [c.name for c in graph if c.is_intra_node]

        if not self.decompose:
            components: List[Tuple[str, ...]] = [tuple(inter)] if inter else []
        else:
            components = graph.conflict_components(self.conflict_rule)

        all_sets: List[FrozenSet[str]] = []
        emission: Dict[str, int] = {}
        adjusted: Dict[str, int] = {}
        penalties: Dict[str, float] = {}
        num_sets_global = 1 if inter else 0

        for component in components:
            if len(component) > self.max_component_size:
                raise ModelError(
                    f"conflict component of size {len(component)} exceeds the "
                    f"enumeration cap ({self.max_component_size}); split the phase "
                    "or raise max_component_size"
                )
            sets, em, adj, pen = _analyse_component(graph, component, adjacency)
            all_sets.extend(sets)
            emission.update(em)
            adjusted.update(adj)
            penalties.update(pen)
            num_sets_global *= max(1, len(sets))

        if not self.decompose and components:
            num_sets_global = len(all_sets)

        # intra-node communications never conflict on the NIC: penalty 1
        for name in intra:
            emission[name] = max(1, num_sets_global)
            adjusted[name] = max(1, num_sets_global)
            penalties[name] = 1.0

        # preserve the insertion order of the graph for reporting
        order = [c.name for c in graph]
        return StateSetAnalysis(
            graph_name=graph.name,
            state_sets=tuple(all_sets),
            num_state_sets=(len(all_sets) if not self.decompose else num_sets_global),
            emission={n: emission[n] for n in order},
            adjusted_emission={n: adjusted[n] for n in order},
            penalties={n: max(1.0, penalties[n]) for n in order},
            decomposed=self.decompose,
        )

    # -------------------------------------------------------------- interface
    def penalties(self, graph: CommunicationGraph) -> Dict[str, float]:
        return self.analyse(graph).penalties

    def details(self, graph: CommunicationGraph) -> Dict[str, Mapping[str, float]]:
        analysis = self.analyse(graph)
        return {
            name: {
                "emission": float(analysis.emission[name]),
                "adjusted_emission": float(analysis.adjusted_emission[name]),
                "num_state_sets": float(analysis.num_state_sets),
                "penalty": analysis.penalties[name],
            }
            for name in analysis.penalties
        }
