"""Workload generators: synthetic schemes, collectives, HPL/Linpack traces."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".linpack": ["LinpackParameters", "generate_linpack", "hpl_total_flops"],
    ".synthetic": ["random_tree_scheme", "complete_graph_scheme", "random_graph_scheme",
                   "bipartite_fan_scheme", "hotspot_scheme", "scheme_family"],
    ".collectives": ["binomial_broadcast", "ring_allgather", "flat_gather",
                     "pairwise_exchange_alltoall", "broadcast_application"],
    ".traces": ["write_trace", "read_trace", "trace_to_text", "apply_tracing_overhead",
                "MPE_TRACING_OVERHEAD"],
})
