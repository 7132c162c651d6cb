"""Interference injection: background traffic, link degradation, node slowdown.

The paper's contention models price *foreground* MPI traffic on an otherwise
idle fabric.  Real clusters are messier: the workload of interest shares the
interconnect with other jobs and occasionally runs over degraded links or
throttled nodes.  This module turns the event-calendar execution machinery
into a loaded-fabric simulator: **injectors** are small stateful event
sources whose entries ride the same timeline heap as compute completions and
transfer readiness, and whose effects travel through the exact same
:class:`~repro.network.fluid.TransferCalendar` / ``RateProvider.update``
delta path as foreground transfers.

Injector contract
-----------------
An injector exposes three methods (duck-typed; :class:`Injector` is the
reference base class)::

    reset()                      # fresh run: rewind all mutable state
    next_event(now) -> float|None  # absolute time of the next event, or None
    apply(state)                 # fire the events due at state.now

``next_event`` is called once after ``reset()`` (with ``now = 0.0``) and once
after every ``apply``; returning ``None`` retires the injector for the rest
of the run.  A **neutral configuration** (zero background intensity, scaling
factor 1.0, empty window) must return ``None`` from the very first
``next_event`` call so that a disabled injector provably never perturbs the
simulation — with no events fired the engine and the fluid simulator are
bit-for-bit identical to an injector-free run (property-tested in
``tests/property/test_interference_properties.py``).

``apply`` receives an **injection state** — the one surface both simulation
loops drive: :class:`~repro.network.fluid.FluidInjectionState` keeps the
background flows and rate scales, and the execution engine's subclass
(:mod:`repro.simulator.engine`) adds the compute-scale windows:

* ``state.now`` — the simulation clock;
* ``state.hosts`` — the host/node universe of the run;
* ``state.start_flow(src, dst, size, owner)`` / ``state.end_flow(tid)`` —
  activate/deactivate a background transfer.  Background flows enter the
  calendar like foreground ones (they contend in the rate provider — model
  or emulator) but are excluded from task completion, message matching and
  the returned results;
* ``state.add_rate_scale(fn, info=None)`` / ``state.remove_rate_scale(handle)``
  — install a per-transfer rate multiplier (capacity degradation).  Every
  change must be followed by ``state.reprice()``.  ``info`` is the scale's
  replay payload (``{"factor": ..., "hosts": ...}``): the injection state
  records it in the trace (``inject.rate_scale_on``) so
  :class:`repro.trace.TraceReplayInjector` can rebuild the window via
  :func:`make_rate_scale`;
* ``state.add_compute_scale(fn, info=None)`` /
  ``state.remove_compute_scale(handle)`` — install a per-node compute-rate
  multiplier, applied to compute events that *start* while the scale is
  active (a no-op in the pure fluid simulator); ``info`` as above, rebuilt
  via :func:`make_compute_scale`;
* ``state.reprice()`` — force a full re-rate of the in-flight set through
  ``provider.reset()`` + re-add, for effects the delta contract cannot
  express.

Determinism: injectors draw randomness exclusively from their own seeded
:class:`random.Random`, so a (workload, placement, injector-config, seed)
tuple always reproduces the same loaded run.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable, List, Optional, Protocol, Sequence, Tuple

from ..exceptions import SimulationError
from ..network.fluid import Transfer, compose_rate_scales

__all__ = [
    "InjectionState",
    "Injector",
    "BackgroundTrafficInjector",
    "LinkDegradationInjector",
    "NodeSlowdownInjector",
    "build_injectors",
    "compose_rate_scales",
    "make_rate_scale",
    "make_compute_scale",
]


def make_rate_scale(
    factor: float, hosts: Optional[Sequence[int]] = None
) -> Callable[[Transfer], float]:
    """Per-transfer rate multiplier: ``factor`` on transfers touching ``hosts``.

    ``hosts=None`` scales every transfer.  This is the closure shape
    :class:`LinkDegradationInjector` installs; it is shared with
    :class:`repro.trace.TraceReplayInjector`, which rebuilds recorded
    windows from their ``{factor, hosts}`` trace payload.
    """
    factor = float(factor)
    if hosts is None:
        def scale(transfer: Transfer) -> float:
            return factor
    else:
        degraded = frozenset(int(h) for h in hosts)

        def scale(transfer: Transfer) -> float:
            if transfer.src in degraded or transfer.dst in degraded:
                return factor
            return 1.0

    return scale


def make_compute_scale(
    factor: float, hosts: Optional[Sequence[int]] = None
) -> Callable[[int], float]:
    """Per-node compute-rate multiplier (the :class:`NodeSlowdownInjector`
    closure shape, shared with trace replay)."""
    factor = float(factor)
    if hosts is None:
        def scale(node: int) -> float:
            return factor
    else:
        affected = frozenset(int(h) for h in hosts)

        def scale(node: int) -> float:
            return factor if node in affected else 1.0

    return scale


class InjectionState(Protocol):
    """What a simulation loop exposes to :meth:`Injector.apply` (see module doc)."""

    now: float
    hosts: Tuple[int, ...]

    def start_flow(self, src: int, dst: int, size: float,
                   owner: str = "background") -> Hashable: ...  # pragma: no cover

    def end_flow(self, tid: Hashable) -> None: ...  # pragma: no cover

    def add_rate_scale(
        self, scale: Callable[[Transfer], float], info: Optional[dict] = None
    ) -> Optional[int]: ...  # pragma: no cover

    def remove_rate_scale(self, handle: Optional[int]) -> None: ...  # pragma: no cover

    def add_compute_scale(
        self, scale: Callable[[int], float], info: Optional[dict] = None
    ) -> Optional[int]: ...  # pragma: no cover

    def remove_compute_scale(self, handle: Optional[int]) -> None: ...  # pragma: no cover

    def reprice(self) -> None: ...  # pragma: no cover


class Injector:
    """Base class with the shared window plumbing.

    Parameters
    ----------
    name:
        Label used in background-flow ids, diagnostics and reports.
    start, until:
        Active window ``[start, until)`` in simulated seconds; ``until=None``
        keeps the injector active for the whole run.
    """

    def __init__(self, name: str, start: float = 0.0,
                 until: Optional[float] = None) -> None:
        if start < 0:
            raise SimulationError(f"injector {name!r}: start must be >= 0")
        if until is not None and until <= start:
            raise SimulationError(f"injector {name!r}: empty window [{start}, {until})")
        self.name = name
        self.start = float(start)
        self.until = None if until is None else float(until)

    # -------------------------------------------------------------- contract
    def reset(self) -> None:  # pragma: no cover - trivial default
        """Rewind mutable state for a fresh run."""

    def next_event(self, now: float) -> Optional[float]:
        raise NotImplementedError

    def apply(self, state: InjectionState) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------- reporting
    def describe(self) -> dict:
        """Loggable summary of the configuration."""
        data = {"injector": type(self).__name__, "name": self.name,
                "start": self.start}
        if self.until is not None:
            data["until"] = self.until
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v!r}" for k, v in self.describe().items()
                           if k != "injector")
        return f"{type(self).__name__}({fields})"


def _pick_pair(rng: random.Random, hosts: Sequence[int]) -> Optional[Tuple[int, int]]:
    if len(set(hosts)) < 2:
        return None
    src = rng.choice(hosts)
    dst = rng.choice(hosts)
    while dst == src:
        dst = rng.choice(hosts)
    return src, dst


class BackgroundTrafficInjector(Injector):
    """Seeded stochastic background flows between host pairs.

    Flow arrivals form a Poisson process of ``rate`` flows per second inside
    the active window; each flow carries ``size`` bytes (jittered by
    ``size_jitter``) between a random ordered pair of distinct hosts and
    completes through the calendar like any transfer — so while it lives it
    contends with the foreground traffic in whichever rate provider the run
    uses.  ``pairs`` pins the endpoint universe to explicit ``(src, dst)``
    pairs; ``hosts`` restricts it to a host subset; by default the run's
    host universe is used.

    A zero ``rate``/``size``/``max_flows`` is the **neutral configuration**:
    ``next_event`` returns ``None`` immediately and the run is bit-exact
    with an injector-free one.
    """

    def __init__(
        self,
        rate: float,
        size: float,
        seed: int = 0,
        name: str = "background",
        start: float = 0.0,
        until: Optional[float] = None,
        max_flows: Optional[int] = None,
        size_jitter: float = 0.0,
        hosts: Optional[Sequence[int]] = None,
        pairs: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        super().__init__(name, start=start, until=until)
        if rate < 0:
            raise SimulationError(f"injector {name!r}: negative arrival rate")
        if size < 0:
            raise SimulationError(f"injector {name!r}: negative flow size")
        if not 0.0 <= size_jitter < 1.0:
            raise SimulationError(f"injector {name!r}: size_jitter must be in [0, 1)")
        self.rate = float(rate)
        self.size = float(size)
        self.seed = int(seed)
        self.max_flows = None if max_flows is None else int(max_flows)
        self.size_jitter = float(size_jitter)
        self.hosts = None if hosts is None else tuple(int(h) for h in hosts)
        self.pairs = None if pairs is None else tuple(
            (int(s), int(d)) for s, d in pairs
        )
        if self.pairs is not None:
            for src, dst in self.pairs:
                if src == dst:
                    raise SimulationError(
                        f"injector {name!r}: background pair {src}->{dst} is a loop"
                    )
        self.reset()

    @property
    def is_neutral(self) -> bool:
        return (self.rate <= 0.0 or self.size <= 0.0 or self.max_flows == 0
                or self.pairs == ())

    def reset(self) -> None:
        self._rng = random.Random(self.seed)
        self._started = 0
        self._next: Optional[float] = None
        if not self.is_neutral:
            self._next = self.start + self._rng.expovariate(self.rate)

    def next_event(self, now: float) -> Optional[float]:
        if self._next is None:
            return None
        if self.until is not None and self._next >= self.until:
            self._next = None
            return None
        return self._next

    def apply(self, state: InjectionState) -> None:
        if self.pairs is not None:
            pair: Optional[Tuple[int, int]] = self._rng.choice(self.pairs)
        else:
            universe = self.hosts if self.hosts is not None else state.hosts
            pair = _pick_pair(self._rng, universe)
        if pair is None:
            self._next = None  # fewer than two hosts: no flow can ever start
            return
        size = self.size
        if self.size_jitter > 0.0:
            size *= 1.0 + self.size_jitter * (2.0 * self._rng.random() - 1.0)
        state.start_flow(pair[0], pair[1], size, owner=self.name)
        self._started += 1
        if self.max_flows is not None and self._started >= self.max_flows:
            self._next = None
            return
        self._next = state.now + self._rng.expovariate(self.rate)

    def describe(self) -> dict:
        data = super().describe()
        data.update({"rate": self.rate, "size": self.size, "seed": self.seed})
        if self.max_flows is not None:
            data["max_flows"] = self.max_flows
        if self.size_jitter:
            data["size_jitter"] = self.size_jitter
        if self.hosts is not None:
            data["hosts"] = list(self.hosts)
        if self.pairs is not None:
            data["pairs"] = [list(p) for p in self.pairs]
        return data


class _WindowInjector(Injector):
    """Shared on/off plumbing of the window-scoped injectors.

    Two events per run: the window opens at ``start`` (install the effect)
    and closes at ``until`` (remove it); ``until=None`` leaves the effect
    installed until the run ends.  A ``factor`` of exactly 1.0 is the
    neutral configuration — no events are ever scheduled.
    """

    def __init__(self, name: str, factor: float, start: float = 0.0,
                 until: Optional[float] = None,
                 hosts: Optional[Sequence[int]] = None) -> None:
        super().__init__(name, start=start, until=until)
        if factor <= 0.0:
            raise SimulationError(
                f"injector {name!r}: scaling factor must be positive"
            )
        self.factor = float(factor)
        self.hosts = None if hosts is None else frozenset(int(h) for h in hosts)
        self.reset()

    @property
    def is_neutral(self) -> bool:
        return self.factor == 1.0 or self.hosts == frozenset()

    def reset(self) -> None:
        self._handle: Optional[int] = None
        self._phase = 0  # 0 = before the window, 1 = inside, 2 = done

    def next_event(self, now: float) -> Optional[float]:
        if self.is_neutral:
            return None
        if self._phase == 0:
            return self.start
        if self._phase == 1 and self.until is not None:
            return self.until
        return None

    def apply(self, state: InjectionState) -> None:
        if self._phase == 0:
            self._handle = self._install(state)
            self._phase = 1
        elif self._phase == 1:
            self._remove(state, self._handle)
            self._handle = None
            self._phase = 2

    def _install(self, state: InjectionState) -> Optional[int]:
        raise NotImplementedError

    def _remove(self, state: InjectionState, handle: Optional[int]) -> None:
        raise NotImplementedError

    def describe(self) -> dict:
        data = super().describe()
        data["factor"] = self.factor
        if self.hosts is not None:
            data["hosts"] = sorted(self.hosts)
        return data


class LinkDegradationInjector(_WindowInjector):
    """Time-windowed capacity scaling of a host set's links.

    While the window is open, every transfer touching a degraded host (or
    every transfer, when ``hosts`` is ``None``) progresses at ``factor`` ×
    its provider-allocated rate — the fluid equivalent of a link
    renegotiating to a lower speed or a flapping port dropping frames.  Both
    window edges force a full :meth:`~repro.network.fluid.TransferCalendar.
    reprice` (provider ``reset()`` + re-add), because a capacity change
    re-rates incumbents without any membership delta.
    """

    def __init__(self, factor: float, start: float = 0.0,
                 until: Optional[float] = None,
                 hosts: Optional[Sequence[int]] = None,
                 name: str = "link-degradation") -> None:
        super().__init__(name, factor, start=start, until=until, hosts=hosts)

    def _install(self, state: InjectionState) -> Optional[int]:
        hosts = None if self.hosts is None else sorted(self.hosts)
        handle = state.add_rate_scale(
            make_rate_scale(self.factor, hosts),
            info={"factor": self.factor, "hosts": hosts},
        )
        state.reprice()
        return handle

    def _remove(self, state: InjectionState, handle: Optional[int]) -> None:
        state.remove_rate_scale(handle)
        state.reprice()


class NodeSlowdownInjector(_WindowInjector):
    """Time-windowed compute-rate scaling of a node set.

    While the window is open, compute events *starting* on an affected node
    run at ``factor`` × their nominal rate (``factor=0.5`` doubles their
    duration) — thermal throttling, a co-scheduled CPU hog, a failing fan.
    Transfers are untouched, so no reprice is needed; the pure fluid
    simulator ignores this injector (nothing computes there).
    """

    def __init__(self, factor: float, start: float = 0.0,
                 until: Optional[float] = None,
                 hosts: Optional[Sequence[int]] = None,
                 name: str = "node-slowdown") -> None:
        super().__init__(name, factor, start=start, until=until, hosts=hosts)

    def _install(self, state: InjectionState) -> Optional[int]:
        hosts = None if self.hosts is None else sorted(self.hosts)
        return state.add_compute_scale(
            make_compute_scale(self.factor, hosts),
            info={"factor": self.factor, "hosts": hosts},
        )

    def _remove(self, state: InjectionState, handle: Optional[int]) -> None:
        state.remove_compute_scale(handle)


def build_injectors(
    background: Optional[dict] = None,
    link_degradation: Optional[dict] = None,
    node_slowdown: Optional[dict] = None,
    seed: Optional[int] = None,
) -> Tuple[Injector, ...]:
    """Assemble injectors from plain keyword dicts (campaign/CLI backend).

    Neutral or missing sections produce no injector at all, so a "clean"
    configuration yields an empty tuple and the caller can skip the
    injection machinery entirely.  ``seed`` offsets the background
    injector's own seed so campaign scenario seeds decorrelate the
    interference across repetitions.
    """
    injectors: List[Injector] = []
    if background:
        params = dict(background)
        if seed is not None:
            params["seed"] = int(params.get("seed", 0)) + int(seed)
        injector = BackgroundTrafficInjector(**params)
        if not injector.is_neutral:
            injectors.append(injector)
    if link_degradation:
        degradation = LinkDegradationInjector(**dict(link_degradation))
        if not degradation.is_neutral:
            injectors.append(degradation)
    if node_slowdown:
        slowdown = NodeSlowdownInjector(**dict(node_slowdown))
        if not slowdown.is_neutral:
            injectors.append(slowdown)
    return tuple(injectors)
