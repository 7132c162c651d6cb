"""Simulated MPI layer: rank programs, operations and the runtime."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "..simulator.events": ["ANY_SOURCE"],
    ".api": ["Rank"],
    ".runtime": ["MpiRuntime", "ring_program", "fanout_program"],
})
