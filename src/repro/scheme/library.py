"""Library of the paper's communication schemes.

Every scheme the paper uses in its figures is reconstructed here:

* the Figure 2 ladder (six schemes of growing contention, 20 MB messages),
* the β-estimation outgoing ladders,
* the Figure 4 parameter-verification scheme (4 MB messages),
* the Figure 5 example graph of the Myrinet state-set analysis,
* the Figure 7 synthetic graphs MK1 (tree) and MK2 (complete graph).

The original PDF renders these graphs as (partially garbled) diagrams; the
reconstructions below satisfy every numeric constraint stated in the text —
the degree counts used by the γ derivation for Figure 4, the state-set sums
and minima of Figure 6 for Figure 5, tree/complete structure for Figure 7 —
and each builder's docstring states the constraints it reconstructs from;
the figure's benchmark (``benchmarks/bench_fig*.py``) checks the result.
"""

from __future__ import annotations

from typing import Dict

from ..core.graph import CommunicationGraph
from ..exceptions import WorkloadError
from ..units import MB

__all__ = [
    "single_communication_scheme",
    "outgoing_conflict_scheme",
    "incoming_conflict_scheme",
    "figure2_schemes",
    "figure4_scheme",
    "figure5_graph",
    "mk1_tree",
    "mk2_complete",
    "SCHEME_BUILDERS",
    "get_scheme",
]


def single_communication_scheme(size: int = 20 * MB) -> CommunicationGraph:
    """Figure 2, scheme 1: a single communication (the reference measurement)."""
    return CommunicationGraph.from_edges([(0, 1)], size=size, name="fig2-s1", names=["a"])


def outgoing_conflict_scheme(fanout: int, size: int = 20 * MB) -> CommunicationGraph:
    """Node 0 sends the same message to ``fanout`` distinct nodes (C←X→ conflict).

    This is the ladder used to estimate β (§V.A): every communication is
    penalised by ``fanout × β`` on Gigabit Ethernet.
    """
    if fanout < 1:
        raise WorkloadError(f"fanout must be >= 1, got {fanout}")
    edges = [(0, i + 1) for i in range(fanout)]
    return CommunicationGraph.from_edges(edges, size=size, name=f"outgoing-{fanout}")


def incoming_conflict_scheme(fanin: int, size: int = 20 * MB) -> CommunicationGraph:
    """``fanin`` nodes send to node 0 simultaneously (C→X← conflict)."""
    if fanin < 1:
        raise WorkloadError(f"fanin must be >= 1, got {fanin}")
    edges = [(i + 1, 0) for i in range(fanin)]
    return CommunicationGraph.from_edges(edges, size=size, name=f"incoming-{fanin}")


def figure2_schemes(size: int = 20 * MB) -> Dict[str, CommunicationGraph]:
    """The six schemes of Figure 2, keyed ``"S1"`` … ``"S6"``.

    * S1: a single communication 0→1;
    * S2: node 0 sends to nodes 1 and 2;
    * S3: node 0 sends to nodes 1, 2 and 3;
    * S4: S3 plus node 4 sending to node 0 (income/outgo conflict);
    * S5: S4 plus node 5 sending to node 0;
    * S6: S5 plus node 6 sending to node 4.
    """
    schemes: Dict[str, CommunicationGraph] = {}
    schemes["S1"] = single_communication_scheme(size)
    schemes["S2"] = CommunicationGraph.from_edges(
        [(0, 1), (0, 2)], size=size, name="fig2-s2", names=["a", "b"])
    schemes["S3"] = CommunicationGraph.from_edges(
        [(0, 1), (0, 2), (0, 3)], size=size, name="fig2-s3", names=["a", "b", "c"])
    schemes["S4"] = CommunicationGraph.from_edges(
        [(0, 1), (0, 2), (0, 3), (4, 0)], size=size, name="fig2-s4",
        names=["a", "b", "c", "d"])
    schemes["S5"] = CommunicationGraph.from_edges(
        [(0, 1), (0, 2), (0, 3), (4, 0), (5, 0)], size=size, name="fig2-s5",
        names=["a", "b", "c", "d", "e"])
    schemes["S6"] = CommunicationGraph.from_edges(
        [(0, 1), (0, 2), (0, 3), (4, 0), (5, 0), (6, 4)], size=size, name="fig2-s6",
        names=["a", "b", "c", "d", "e", "f"])
    return schemes


def figure4_scheme(size: int = 4 * MB) -> CommunicationGraph:
    """The parameter-verification scheme of Figure 4 (4 MB messages).

    Reconstruction constraints taken from the text:

    * node 0 sends three communications ``a``, ``b``, ``c`` (γ_o is derived
      from ``t_a`` with a factor 3·β);
    * communication ``f`` arrives at a node that receives three
      communications and its source sends nothing else (γ_i is derived from
      ``t_f`` with the same 3·β factor, and ``p_o(f) = 1``);
    * ``a`` and ``b`` are *not* strongly slowed outgoing communications
      (their predicted time equals ``3·β·(1-γ_o)·t_ref``), so the unique
      most-contended destination among node 0's targets belongs to ``c``;
    * ``d`` arrives at a node with in-degree 2 shared with ``b``; ``e``
      arrives at the same 3-receiver node as ``c`` and ``f``.
    """
    graph = CommunicationGraph(name="fig4-verification")
    graph.add_edge(0, 1, size=size, name="a")
    graph.add_edge(0, 2, size=size, name="b")
    graph.add_edge(0, 3, size=size, name="c")
    graph.add_edge(1, 2, size=size, name="d")
    graph.add_edge(1, 3, size=size, name="e")
    graph.add_edge(4, 3, size=size, name="f")
    return graph


def figure5_graph(size: int = 20 * MB) -> CommunicationGraph:
    """The example graph of the Myrinet state-set analysis (Figures 5 and 6).

    Reconstructed so that the state-set table of Figure 6 is reproduced
    exactly: 5 state sets, emission sums (1, 2, 2, 2, 2, 3) for
    (a, b, c, d, e, f), per-source minima (1, 1, 1, 2, 2, 2) and penalties
    (5, 5, 5, 2.5, 2.5, 2.5).
    """
    graph = CommunicationGraph(name="fig5-myrinet-example")
    graph.add_edge(0, 2, size=size, name="a")   # into the doubly-contended node
    graph.add_edge(0, 1, size=size, name="b")
    graph.add_edge(0, 3, size=size, name="c")
    graph.add_edge(4, 2, size=size, name="d")
    graph.add_edge(3, 2, size=size, name="e")
    graph.add_edge(3, 5, size=size, name="f")
    return graph


def mk1_tree(size: int = 4 * MB) -> CommunicationGraph:
    """MK1: the tree-shaped synthetic graph of Figure 7 (best-effort reconstruction).

    Eight nodes, seven communications forming a tree, mixing outgoing,
    incoming and income/outgo conflicts so that the Myrinet and Ethernet
    models can be compared against the emulator exactly as in the paper.
    """
    graph = CommunicationGraph(name="mk1-tree")
    graph.add_edge(0, 1, size=size, name="a")
    graph.add_edge(0, 2, size=size, name="b")
    graph.add_edge(3, 0, size=size, name="c")
    graph.add_edge(4, 1, size=size, name="d")
    graph.add_edge(1, 5, size=size, name="e")
    graph.add_edge(6, 3, size=size, name="f")
    graph.add_edge(3, 7, size=size, name="g")
    return graph


def mk2_complete(size: int = 4 * MB) -> CommunicationGraph:
    """MK2: the complete-graph synthetic benchmark of Figure 7.

    Five nodes, one communication per unordered pair (10 communications
    ``a`` … ``j``), oriented so that node 0 sends to everyone — the densest
    conflict situation of the paper's synthetic evaluation.
    """
    graph = CommunicationGraph(name="mk2-complete")
    graph.add_edge(0, 1, size=size, name="a")
    graph.add_edge(0, 2, size=size, name="b")
    graph.add_edge(0, 3, size=size, name="c")
    graph.add_edge(0, 4, size=size, name="d")
    graph.add_edge(2, 1, size=size, name="e")
    graph.add_edge(1, 4, size=size, name="f")
    graph.add_edge(1, 3, size=size, name="g")
    graph.add_edge(4, 3, size=size, name="h")
    graph.add_edge(3, 2, size=size, name="i")
    graph.add_edge(4, 2, size=size, name="j")
    return graph


SCHEME_BUILDERS = {
    "fig2-s1": lambda size=20 * MB: figure2_schemes(size)["S1"],
    "fig2-s2": lambda size=20 * MB: figure2_schemes(size)["S2"],
    "fig2-s3": lambda size=20 * MB: figure2_schemes(size)["S3"],
    "fig2-s4": lambda size=20 * MB: figure2_schemes(size)["S4"],
    "fig2-s5": lambda size=20 * MB: figure2_schemes(size)["S5"],
    "fig2-s6": lambda size=20 * MB: figure2_schemes(size)["S6"],
    "fig4": figure4_scheme,
    "fig5": figure5_graph,
    "mk1": mk1_tree,
    "mk2": mk2_complete,
}


def get_scheme(name: str, size: int | None = None) -> CommunicationGraph:
    """Build one of the paper's schemes by name (see :data:`SCHEME_BUILDERS`)."""
    key = name.lower()
    if key not in SCHEME_BUILDERS:
        raise WorkloadError(
            f"unknown scheme {name!r}; known: {', '.join(sorted(SCHEME_BUILDERS))}"
        )
    builder = SCHEME_BUILDERS[key]
    return builder(size) if size is not None else builder()
