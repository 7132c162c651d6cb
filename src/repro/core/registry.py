"""Model registry.

Maps short technology names ("ethernet", "myrinet", "infiniband", baseline
names) to contention-model factories, so that the simulator, the benchmark
harness and the examples can select a model from a configuration string —
this mirrors the "definition of the kind of model" input of the paper's
simulator (§VI.A).

Importing the registry loads no model: each shipped model's module is
imported when that model is first built.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List

from ..exceptions import ModelError
from .penalty import ContentionModel

__all__ = [
    "register_model",
    "get_model",
    "available_models",
    "available_networks",
    "model_for_network",
    "resolve_model",
]


ModelFactory = Callable[..., ContentionModel]

_REGISTRY: Dict[str, ModelFactory] = {}

#: aliases accepted by :func:`model_for_network`
_NETWORK_ALIASES: Dict[str, str] = {
    "gigabit-ethernet": "ethernet",
    "gige": "ethernet",
    "gbe": "ethernet",
    "tcp": "ethernet",
    "ethernet": "ethernet",
    "myrinet": "myrinet",
    "myrinet-2000": "myrinet",
    "mx": "myrinet",
    "infiniband": "infiniband",
    "ib": "infiniband",
    "infinihost3": "infiniband",
    "infinihost-iii": "infiniband",
    "infiniband-infinihost3": "infiniband",
}


def register_model(name: str, factory: ModelFactory, overwrite: bool = False) -> None:
    """Register a model factory under ``name`` (lower-cased)."""
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ModelError(f"model {name!r} is already registered")
    _REGISTRY[key] = factory


def get_model(name: str, **kwargs) -> ContentionModel:
    """Instantiate a registered contention model by name.

    >>> get_model("ethernet").name
    'gigabit-ethernet'
    """
    key = name.lower()
    if key not in _REGISTRY:
        hint = ""
        if key in _NETWORK_ALIASES:
            hint = (
                f"; {name!r} is a network alias for the {_NETWORK_ALIASES[key]!r} "
                f"model — use model_for_network({name!r})"
            )
        raise ModelError(
            f"unknown model {name!r}; available models: "
            f"{', '.join(sorted(_REGISTRY))}{hint}"
        )
    return _REGISTRY[key](**kwargs)


def available_models() -> List[str]:
    """Sorted list of registered model names."""
    return sorted(_REGISTRY)


def available_networks() -> List[str]:
    """Sorted list of network names/aliases accepted by :func:`model_for_network`."""
    return sorted(_NETWORK_ALIASES)


def model_for_network(network: str, **kwargs) -> ContentionModel:
    """Return the paper's model for a network technology name or alias."""
    key = network.lower()
    if key not in _NETWORK_ALIASES:
        raise ModelError(
            f"no model associated with network {network!r}; known "
            f"networks/aliases: {', '.join(sorted(_NETWORK_ALIASES))}; "
            f"registered models: {', '.join(sorted(_REGISTRY))}"
        )
    return get_model(_NETWORK_ALIASES[key], **kwargs)


def resolve_model(name: str, network: str) -> ContentionModel:
    """Model axis entry → model instance (``"auto"`` = the network's model)."""
    if name in ("auto", "paper"):
        return model_for_network(network)
    try:
        return model_for_network(name)
    except ModelError:
        return get_model(name)


def _shipped(module: str, name: str) -> ModelFactory:
    """Factory of the model class ``name`` of ``module``, imported on first use."""
    def build(**kwargs) -> ContentionModel:
        return getattr(importlib.import_module(module, __package__), name)(**kwargs)
    return build


# ---------------------------------------------------------------------------
# built-in registrations
register_model("ethernet", _shipped(".ethernet_model", "GigabitEthernetModel"))
register_model("myrinet", _shipped(".myrinet_model", "MyrinetModel"))
register_model("infiniband", _shipped(".infiniband_model", "InfinibandModel"))
register_model("no-contention", _shipped(".baselines", "NoContentionModel"))
register_model("fair-share", _shipped(".baselines", "FairShareModel"))
register_model("kim-lee", _shipped(".baselines", "KimLeeModel"))
