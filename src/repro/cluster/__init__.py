"""Cluster descriptions and task placement.

The "definition of the cluster" and "scheduling of tasks on nodes" inputs of
the paper's simulator (§VI.A): SMP node specs, the three clusters the paper
measured, and the RRN / RRP / Random / user-defined placement policies.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".node": ["NodeSpec", "OPTERON_246", "OPTERON_248", "WOODCREST_2_4"],
    ".spec": ["ClusterSpec", "IBM_E326_GIGE", "IBM_E325_MYRINET", "BULL_NOVASCALE_IB",
              "PAPER_CLUSTERS", "get_cluster", "custom_cluster"],
    ".placement": ["Placement", "round_robin_per_node", "round_robin_per_processor",
                   "random_placement", "user_defined_placement", "make_placement",
                   "PLACEMENT_POLICIES"],
})
