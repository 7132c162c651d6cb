"""Declarative campaign specifications.

A *campaign* prices many scenarios — workloads × networks × models × host
counts × placement policies — in one orchestrated run.  The spec layer is
purely declarative: :class:`CampaignSpec` holds the sweep axes (loadable from
a plain dict or a JSON file, so campaigns can live next to the experiment
they document), and :meth:`CampaignSpec.scenarios` expands the cartesian
product into concrete, self-describing :class:`ScenarioSpec` rows that the
runner executes.

Two families of workloads are supported:

* **graph workloads** (``kind="scheme"`` library schemes, ``kind="synthetic"``
  generated graphs) produce a static :class:`~repro.core.graph.CommunicationGraph`
  that is priced by a contention model — the post-barrier "every
  communication starts together" situation of the paper's penalty tool;
* **application workloads** (``kind="collective"``, ``kind="linpack"``)
  produce an :class:`~repro.simulator.application.Application` that is run
  through the predictive simulator on a cluster of ``num_hosts`` nodes under
  a placement policy.

A sweep runs few distinct applications across many networks, placements and
seeds, so :meth:`ScenarioSpec.build_application` builds each one once per
process: it returns frozen (validated, immutable) applications from a memo
keyed by the workload kind, name and resolved
:meth:`ScenarioSpec.application_args`, bounded by the events it retains
(:data:`APPLICATION_MEMO_EVENTS`).  The memo is per process, not per runner,
because callers that run one point at a time build one runner per point.

Spec dict / JSON format::

    {
      "name": "ladder-sweep",
      "workloads": [
        {"kind": "scheme",    "name": "fig2-s4"},
        {"kind": "synthetic", "name": "random-tree", "params": {"size": "4M"}},
        {"kind": "collective","name": "broadcast",  "params": {"size": "1M"}},
        {"kind": "linpack",   "name": "hpl",
         "params": {"problem_size": 4000, "block_size": 200, "num_tasks": 8}}
      ],
      "networks": ["ethernet", "myrinet"],
      "models": ["auto"],
      "host_counts": [8, 16],
      "placements": ["RRP", "RRN"],
      "seeds": [0],
      "interference": [
        "none",
        {"name": "loaded",
         "background": {"rate": 200, "size": "4M", "max_flows": 64},
         "link_degradation": {"factor": 0.5, "start": 0.0, "until": 0.2}}
      ]
    }

``"auto"`` selects the paper's model for the scenario's network.  Axes that a
workload does not consume are collapsed (library schemes ignore the host
count, graph workloads ignore placements, and only application workloads —
which run through the execution engine — sweep the ``interference`` axis) so
the expansion never produces duplicate scenarios.

The ``interference`` axis sweeps clean vs. loaded fabrics: each entry is
either the string ``"none"`` or a mapping with a ``name`` plus any of the
``background`` / ``link_degradation`` / ``node_slowdown`` sections, whose
keyword parameters feed the injector constructors of
:mod:`repro.simulator.interference` (the scenario seed offsets the
background injector's seed, so repetitions decorrelate the interference).

A ``"trace_dir"`` entry turns on per-scenario tracing: every application
scenario writes its structured :mod:`repro.trace` record stream to
``<trace_dir>/<scenario_id>.jsonl``, and ``repro campaign`` prints a
trace-summary table next to the results.  Omitted (the default), tracing is
off and every run is bit-exact with the untraced path.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..cluster.placement import PLACEMENT_POLICIES
from ..core.graph import CommunicationGraph
from ..exceptions import ReproError, WorkloadError
from ..scheme.library import get_scheme
from ..simulator.application import Application
from ..simulator.interference import Injector, build_injectors
from ..units import MB, parse_size
from ..workloads import (
    bipartite_fan_scheme,
    broadcast_application,
    complete_graph_scheme,
    flat_gather,
    generate_linpack,
    hotspot_scheme,
    pairwise_exchange_alltoall,
    random_graph_scheme,
    random_tree_scheme,
    ring_allgather,
)

__all__ = ["WorkloadSpec", "InterferenceSpec", "ScenarioSpec", "CampaignSpec"]


GRAPH_KINDS = ("scheme", "synthetic")
APPLICATION_KINDS = ("collective", "linpack")

SYNTHETIC_GENERATORS = ("random-tree", "complete", "random", "bipartite-fan", "hotspot")
COLLECTIVE_PATTERNS = ("broadcast", "ring-allgather", "flat-gather", "alltoall")


#: events the application build memo retains at most: about 25 MB at the
#: ~190 B an event costs
APPLICATION_MEMO_EVENTS = 1 << 17


class _ApplicationMemo:
    """Frozen applications by build key, least recently used first out.

    It retains at most ``max_events`` events; an application larger than
    that is returned frozen but not retained.  Sharing is safe only because
    the applications are frozen: no caller can change what another sees.
    """

    def __init__(self, max_events: int) -> None:
        self.max_events = max_events
        self.events = 0
        self._entries: "OrderedDict[Hashable, Tuple[Application, int]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, build: Callable[[], Application]) -> Application:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry[0]
        application = build().freeze()
        size = application.num_events
        if size <= self.max_events:
            while self.events + size > self.max_events:
                _, (_, evicted) = self._entries.popitem(last=False)
                self.events -= evicted
            self._entries[key] = (application, size)
            self.events += size
        return application


_APPLICATIONS = _ApplicationMemo(APPLICATION_MEMO_EVENTS)


def _size_param(params: Dict[str, Any], default: int) -> int:
    value = params.get("size", default)
    if isinstance(value, str):
        return parse_size(value)
    return int(value)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload axis entry of a campaign."""

    kind: str
    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in GRAPH_KINDS + APPLICATION_KINDS:
            raise WorkloadError(
                f"unknown workload kind {self.kind!r}; known: "
                f"{', '.join(GRAPH_KINDS + APPLICATION_KINDS)}"
            )
        if self.kind == "synthetic" and self.name not in SYNTHETIC_GENERATORS:
            raise WorkloadError(
                f"unknown synthetic generator {self.name!r}; known: "
                f"{', '.join(SYNTHETIC_GENERATORS)}"
            )
        if self.kind == "collective" and self.name not in COLLECTIVE_PATTERNS:
            raise WorkloadError(
                f"unknown collective {self.name!r}; known: "
                f"{', '.join(COLLECTIVE_PATTERNS)}"
            )

    @property
    def is_application(self) -> bool:
        return self.kind in APPLICATION_KINDS

    @property
    def uses_hosts(self) -> bool:
        """Library schemes carry their own node set; everything else scales with hosts."""
        return self.kind != "scheme"

    @property
    def uses_seed(self) -> bool:
        return self.kind == "synthetic" or self.is_application

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind, "name": self.name}
        if self.params:
            data["params"] = self.param_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSpec":
        if "kind" not in data or "name" not in data:
            raise WorkloadError(f"workload entry {data!r} needs 'kind' and 'name'")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise WorkloadError(f"workload params must be a mapping, got {params!r}")
        return cls(
            kind=str(data["kind"]),
            name=str(data["name"]),
            params=tuple(sorted(params.items())),
        )


def _freeze(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class InterferenceSpec:
    """One interference-axis entry: a named injector configuration.

    Pure data (picklable, like every spec): the sections hold the keyword
    parameters of the matching injector constructors in
    :mod:`repro.simulator.interference`, stored as sorted item tuples.  The
    default instance is the clean fabric (``name="none"``, no sections).
    """

    name: str = "none"
    background: Tuple[Tuple[str, Any], ...] = ()
    link_degradation: Tuple[Tuple[str, Any], ...] = ()
    node_slowdown: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        try:
            self.build_injectors(seed=0)
        except ReproError:
            raise
        except TypeError as exc:
            raise WorkloadError(f"bad interference spec {self.name!r}: {exc}") from exc

    @property
    def is_clean(self) -> bool:
        """True when the configuration provably injects nothing."""
        return not self.build_injectors(seed=0)

    def _section(self, field_name: str) -> Optional[Dict[str, Any]]:
        items = getattr(self, field_name)
        if not items:
            return None
        params = {key: _thaw(value) for key, value in items}
        if isinstance(params.get("size"), str):
            params["size"] = parse_size(params["size"])
        return params

    def build_injectors(self, seed: Optional[int] = None) -> Tuple[Injector, ...]:
        """Materialize the injectors (``seed`` offsets the background seed)."""
        return build_injectors(
            background=self._section("background"),
            link_degradation=self._section("link_degradation"),
            node_slowdown=self._section("node_slowdown"),
            seed=seed,
        )

    # ------------------------------------------------------------- loaders
    def to_dict(self) -> Union[str, Dict[str, Any]]:
        # only the canonical clean entry collapses to the "none" shorthand;
        # any other name must round-trip as a mapping (from_dict rejects
        # unknown bare strings)
        if self.name == "none" and not (
            self.background or self.link_degradation or self.node_slowdown
        ):
            return self.name
        data: Dict[str, Any] = {"name": self.name}
        for field_name in ("background", "link_degradation", "node_slowdown"):
            items = getattr(self, field_name)
            if items:
                data[field_name] = {key: _thaw(value) for key, value in items}
        return data

    @classmethod
    def from_dict(cls, data: Union[str, Dict[str, Any]]) -> "InterferenceSpec":
        if isinstance(data, str):
            if data != "none":
                raise WorkloadError(
                    f"unknown interference shorthand {data!r} (only 'none')"
                )
            return cls()
        if not isinstance(data, dict):
            raise WorkloadError(f"interference entry must be 'none' or a mapping, "
                                f"got {data!r}")
        unknown = set(data) - {"name", "background", "link_degradation",
                               "node_slowdown"}
        if unknown:
            raise WorkloadError(f"unknown interference spec keys: {sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        for field_name in ("background", "link_degradation", "node_slowdown"):
            section = data.get(field_name)
            if section is None:
                continue
            if not isinstance(section, dict):
                raise WorkloadError(
                    f"interference section {field_name!r} must be a mapping"
                )
            kwargs[field_name] = tuple(sorted(
                (str(key), _freeze(value)) for key, value in section.items()
            ))
        return cls(name=str(data.get("name", "interference")), **kwargs)


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-resolved point of the sweep (pure data, picklable)."""

    scenario_id: str
    workload: WorkloadSpec
    network: str
    model: str
    num_hosts: Optional[int]
    placement: Optional[str]
    seed: Optional[int]
    #: interference configuration; ``None`` for workloads that cannot be
    #: loaded (static graph pricing has no time dimension)
    interference: Optional[InterferenceSpec] = None

    @property
    def is_application(self) -> bool:
        return self.workload.is_application

    def axes(self) -> Dict[str, Any]:
        """The identifying coordinates, for result rows and exports.

        ``workload_params`` is a canonical string of the workload's
        parameters: two same-name workload entries differing only in params
        (e.g. a 1 MB and a 4 MB broadcast) stay distinguishable in result
        rows — the interference analysis keys its clean-twin pairing on it.
        """
        return {
            "scenario_id": self.scenario_id,
            "kind": self.workload.kind,
            "workload": self.workload.name,
            "workload_params": repr(tuple(sorted(self.workload.params))),
            "network": self.network,
            "model": self.model,
            "num_hosts": self.num_hosts,
            "placement": self.placement,
            "seed": self.seed,
            "interference": self.interference.name if self.interference else None,
        }

    def build_injectors(self) -> Tuple[Injector, ...]:
        """Injectors of this scenario (empty for clean/graph scenarios)."""
        if self.interference is None:
            return ()
        return self.interference.build_injectors(seed=self.seed)

    # ------------------------------------------------------------- builders
    def build_graph(self) -> CommunicationGraph:
        """Materialize a graph workload (deterministic given the spec)."""
        workload = self.workload
        params = workload.param_dict()
        seed = 0 if self.seed is None else int(self.seed)
        if workload.kind == "scheme":
            size = params.get("size")
            if isinstance(size, str):
                size = parse_size(size)
            return get_scheme(workload.name, size=size)
        hosts = int(self.num_hosts or 0)
        size = _size_param(params, 4 * MB)
        if workload.name == "random-tree":
            return random_tree_scheme(hosts, seed=seed, size=size)
        if workload.name == "complete":
            return complete_graph_scheme(hosts, seed=seed, size=size)
        if workload.name == "random":
            num_comms = int(params.get("num_communications", 2 * hosts))
            return random_graph_scheme(hosts, num_comms, seed=seed, size=size)
        if workload.name == "bipartite-fan":
            senders = int(params.get("num_senders", hosts // 2))
            receivers = int(params.get("num_receivers", hosts - hosts // 2))
            density = float(params.get("density", 1.0))
            return bipartite_fan_scheme(senders, receivers, seed=seed, size=size,
                                        density=density)
        if workload.name == "hotspot":
            return hotspot_scheme(max(1, hosts - 1), size=size)
        raise WorkloadError(f"unhandled synthetic generator {workload.name!r}")

    def application_args(self) -> Dict[str, Any]:
        """The arguments :meth:`build_application` uses, defaults applied."""
        params = self.workload.param_dict()
        args: Dict[str, Any] = {
            "num_tasks": int(params.get("num_tasks", self.num_hosts or 2)),
        }
        if self.workload.kind == "linpack":
            args["problem_size"] = int(params.get("problem_size", 4000))
            args["block_size"] = int(params.get("block_size", 200))
            args["panel_fraction"] = float(params.get("panel_fraction", 1.0))
        else:
            args["size"] = _size_param(params, 1 * MB)
            args["root"] = int(params.get("root", 0))
        return args

    def build_application(self) -> Application:
        """The scenario's application, frozen, from the per-process memo.

        Scenarios with equal workload kind, name and resolved
        :meth:`application_args` share one application object.
        """
        args = self.application_args()
        key = (self.workload.kind, self.workload.name, tuple(sorted(args.items())))
        return _APPLICATIONS.get(key, lambda: self._build_application(args))

    def _build_application(self, args: Dict[str, Any]) -> Application:
        workload = self.workload
        num_tasks = args["num_tasks"]
        if workload.kind == "linpack":
            return generate_linpack(
                problem_size=args["problem_size"],
                block_size=args["block_size"],
                num_tasks=num_tasks,
                panel_fraction=args["panel_fraction"],
            )
        size = args["size"]
        if workload.name == "broadcast":
            return broadcast_application(num_tasks, size, root=args["root"])
        app = Application(num_tasks=num_tasks,
                          name=f"{workload.name}-{num_tasks}")
        if workload.name == "ring-allgather":
            return ring_allgather(app, size)
        if workload.name == "flat-gather":
            return flat_gather(app, root=args["root"], size=size)
        if workload.name == "alltoall":
            return pairwise_exchange_alltoall(app, size)
        raise WorkloadError(f"unhandled collective {workload.name!r}")

    # ------------------------------------------------------------ run.meta
    def run_meta(self, cores_per_node: int, mode: str = "predictive") -> Dict[str, Any]:
        """Payload of the ``run.meta`` header of a trace of this scenario.

        It holds every argument of :meth:`build_application` plus the
        cluster and run settings, so :meth:`from_run_meta` rebuilds the
        scenario from a trace alone (``repro trace replay``).  Arguments
        the workload kind does not take are ``None``.
        """
        args = self.application_args()
        return {
            "scenario_id": self.scenario_id,
            "workload": self.workload.name,
            "kind": self.workload.kind,
            "hosts": self.num_hosts,
            "tasks": args["num_tasks"],
            "size": args.get("size"),
            "root": args.get("root"),
            "problem_size": args.get("problem_size"),
            "block_size": args.get("block_size"),
            "panel_fraction": args.get("panel_fraction"),
            "network": self.network,
            "model": self.model,
            "placement": self.placement or "RRP",
            "seed": int(self.seed or 0),
            "cores_per_node": cores_per_node,
            "mode": mode,
            "interference": (self.interference.to_dict()
                             if self.interference else "none"),
        }

    @classmethod
    def from_run_meta(cls, meta: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild the scenario a ``run.meta`` payload describes.

        Reads traces written before the payload carried ``kind``,
        ``model``, ``root`` or ``panel_fraction``: the kind follows the
        workload name (``"linpack"`` or a collective), the model is the
        network's own and the two arguments take their defaults.
        """
        name = str(meta.get("workload"))
        kind = str(meta.get("kind") or ("linpack" if name == "linpack" else "collective"))
        wanted = (("problem_size", "block_size", "panel_fraction") if kind == "linpack"
                  else ("size", "root"))
        params = {key: meta[key] for key in wanted if meta.get(key) is not None}
        if meta.get("tasks") is not None:
            params["num_tasks"] = int(meta["tasks"])
        hosts = meta.get("hosts")
        seed = meta.get("seed")
        return cls(
            scenario_id=str(meta.get("scenario_id") or f"replay-{name}"),
            workload=WorkloadSpec(kind=kind, name=name, params=tuple(sorted(params.items()))),
            network=str(meta.get("network", "ethernet")),
            model=str(meta.get("model", "auto")),
            num_hosts=None if hosts is None else int(hosts),
            placement=str(meta.get("placement") or "RRP"),
            seed=0 if seed is None else int(seed),
            interference=InterferenceSpec.from_dict(meta.get("interference", "none")),
        )


@dataclass
class CampaignSpec:
    """The sweep axes of a campaign."""

    name: str
    workloads: List[WorkloadSpec]
    networks: List[str] = field(default_factory=lambda: ["ethernet"])
    models: List[str] = field(default_factory=lambda: ["auto"])
    host_counts: List[int] = field(default_factory=lambda: [16])
    placements: List[str] = field(default_factory=lambda: ["RRP"])
    seeds: List[int] = field(default_factory=lambda: [0])
    interference: List[InterferenceSpec] = field(
        default_factory=lambda: [InterferenceSpec()]
    )
    cores_per_node: int = 2
    #: directory for per-scenario JSONL trace files (``<scenario_id>.jsonl``,
    #: application scenarios only — graph pricing has no time dimension);
    #: ``None`` disables tracing (the bit-exact default)
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.workloads:
            raise WorkloadError(f"campaign {self.name!r} has no workloads")
        for axis_name in ("networks", "models", "host_counts", "placements",
                          "seeds", "interference"):
            if not getattr(self, axis_name):
                raise WorkloadError(f"campaign {self.name!r} has an empty {axis_name} axis")
        for placement in self.placements:
            if placement.lower() not in PLACEMENT_POLICIES:
                raise WorkloadError(
                    f"unknown placement policy {placement!r}; known: "
                    f"{', '.join(sorted(PLACEMENT_POLICIES))}"
                )
        if self.cores_per_node < 1:
            raise WorkloadError(f"cores_per_node must be >= 1, got {self.cores_per_node}")

    # ----------------------------------------------------------- expansion
    def scenarios(self) -> List[ScenarioSpec]:
        """Deterministic cartesian expansion of the sweep axes.

        Axes a workload does not consume are collapsed to a single ``None``
        value so the expansion stays duplicate-free.
        """
        scenarios: List[ScenarioSpec] = []
        for workload in self.workloads:
            hosts_axis: Sequence[Optional[int]] = (
                self.host_counts if workload.uses_hosts else [None]
            )
            placement_axis: Sequence[Optional[str]] = (
                self.placements if workload.is_application else [None]
            )
            seed_axis: Sequence[Optional[int]] = (
                self.seeds if workload.uses_seed else [None]
            )
            # only application workloads run through the execution engine,
            # so only they can be loaded with interference
            interference_axis: Sequence[Optional[InterferenceSpec]] = (
                self.interference if workload.is_application else [None]
            )
            for network in self.networks:
                for model in self.models:
                    for hosts in hosts_axis:
                        for placement in placement_axis:
                            for seed in seed_axis:
                                for interference in interference_axis:
                                    parts = [f"{len(scenarios):03d}", workload.name,
                                             network, model]
                                    if hosts is not None:
                                        parts.append(f"h{hosts}")
                                    if placement is not None:
                                        parts.append(placement)
                                    if seed is not None:
                                        parts.append(f"s{seed}")
                                    if interference is not None and \
                                            interference.name != "none":
                                        parts.append(interference.name)
                                    scenarios.append(ScenarioSpec(
                                        scenario_id="-".join(parts),
                                        workload=workload,
                                        network=network,
                                        model=model,
                                        num_hosts=hosts,
                                        placement=placement,
                                        seed=seed,
                                        interference=interference,
                                    ))
        return scenarios

    def __len__(self) -> int:
        return len(self.scenarios())

    # ------------------------------------------------------------- loaders
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "workloads": [w.to_dict() for w in self.workloads],
            "networks": list(self.networks),
            "models": list(self.models),
            "host_counts": list(self.host_counts),
            "placements": list(self.placements),
            "seeds": list(self.seeds),
            "interference": [i.to_dict() for i in self.interference],
            "cores_per_node": self.cores_per_node,
            **({"trace_dir": self.trace_dir} if self.trace_dir else {}),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise WorkloadError(f"campaign spec must be a mapping, got {type(data).__name__}")
        unknown = set(data) - {
            "name", "workloads", "networks", "models", "host_counts",
            "placements", "seeds", "interference", "cores_per_node",
            "trace_dir",
        }
        if unknown:
            raise WorkloadError(f"unknown campaign spec keys: {sorted(unknown)}")
        workloads = [WorkloadSpec.from_dict(w) for w in data.get("workloads", [])]
        kwargs: Dict[str, Any] = {}
        for axis in ("networks", "models", "placements"):
            if axis in data:
                kwargs[axis] = [str(v) for v in data[axis]]
        if "host_counts" in data:
            kwargs["host_counts"] = [int(v) for v in data["host_counts"]]
        if "seeds" in data:
            kwargs["seeds"] = [int(v) for v in data["seeds"]]
        if "interference" in data:
            kwargs["interference"] = [
                InterferenceSpec.from_dict(entry) for entry in data["interference"]
            ]
        if "cores_per_node" in data:
            kwargs["cores_per_node"] = int(data["cores_per_node"])
        if data.get("trace_dir") is not None:
            kwargs["trace_dir"] = str(data["trace_dir"])
        return cls(name=str(data.get("name", "campaign")), workloads=workloads, **kwargs)

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a spec from a JSON file (the ``repro campaign --spec`` input)."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise WorkloadError(f"cannot read campaign spec {str(path)!r}: {exc}") from exc
        return cls.from_dict(data)

    def to_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
