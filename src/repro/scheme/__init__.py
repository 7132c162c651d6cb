"""Communication schemes: description language and the paper's scheme library."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".language": ["parse_scheme", "format_scheme", "parse_edge_line"],
    ".library": ["figure2_schemes", "figure4_scheme", "figure5_graph", "mk1_tree",
                 "mk2_complete", "outgoing_conflict_scheme", "incoming_conflict_scheme",
                 "single_communication_scheme", "get_scheme", "SCHEME_BUILDERS"],
})
