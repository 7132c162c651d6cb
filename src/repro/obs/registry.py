"""The unified metrics registry.

One :class:`MetricsRegistry` instance is the single observability surface of
a run.  It owns the :class:`PhaseTimer` instruments around the hot phases
(calendar flush, dirty-component pricing, water-fill, the engine's ready
sweep and due-event drain) and reads registered *sources* — zero-argument
callables returning a mapping of live counter values, the adapter that lets
the existing telemetry surfaces (the incremental pricing engine's
:class:`~repro.core.incremental.EngineStats`, the penalty caches' ``stats()``
dicts, the calendar's :class:`~repro.network.fluid.CalendarStats`, the
allocator's counters) join the registry without changing their own API.

:meth:`MetricsRegistry.snapshot` flattens everything into one
``{"name": number}`` dict (source values are prefixed ``source.key``), and
:meth:`MetricsRegistry.sample_record` wraps that snapshot in a
``metrics.sample`` :class:`~repro.trace.TraceRecord` so the periodic samples
ride the existing trace pipeline.  Attaching a registry is opt-in
(:attr:`~repro.simulator.engine.EngineConfig.metrics`); with no registry
attached every hot path pays exactly one ``is not None`` test, mirroring
the trace-sink contract, and the simulation results are bit-exact either
way (``tests/obs/test_metrics_integration.py``).

Timer values are wall-clock durations, so a trace containing
``metrics.sample`` records is *not* byte-reproducible across runs — the
records are monitoring data, not simulation state (the simulated results
stay bit-exact).

Thread-safety: timer/source registration is locked; :meth:`PhaseTimer.
observe` is a plain attribute update — atomic enough under the GIL for
monitoring data, and free of locking cost on the hot paths.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Mapping, Optional

from ..trace.records import TraceRecord

__all__ = [
    "PhaseTimer",
    "MetricsRegistry",
]


class PhaseTimer:
    """Streaming moments (count / total / min / max / mean) of phase durations.

    Hot sites time every call: they take two ``perf_counter`` readings and
    pass the difference to :meth:`observe`.  Scalars rather than buckets
    keep :meth:`observe` allocation-free; the consumers (benchmark records,
    ``metrics.sample`` payloads, the campaign progress rollup) want scalar
    aggregates.  Units belong in the name (``calendar.flush_s``).
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            f"{self.name}.count": self.count,
            f"{self.name}.total": self.total,
            f"{self.name}.mean": self.mean,
            f"{self.name}.min": self.min if self.min is not None else 0.0,
            f"{self.name}.max": self.max if self.max is not None else 0.0,
        }


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class MetricsRegistry:
    """Create-or-get phase timers plus pluggable stats sources; one flat view.

    :meth:`timer` returns the existing timer when the name is taken, so
    independent layers can share one metric.  :meth:`register_source`
    adapts an existing telemetry surface (any ``() -> Mapping[str,
    number]``, e.g. ``PenaltyCache.stats`` or a stats dataclass's
    ``snapshot``); sources are read lazily at :meth:`snapshot` time, so
    registering one costs nothing per event.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._timers: Dict[str, PhaseTimer] = {}
        self._sources: Dict[str, Callable[[], Mapping[str, Any]]] = {}

    def timer(self, name: str) -> PhaseTimer:
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = PhaseTimer(name)
            return timer

    def register_source(self, name: str,
                        source: Callable[[], Mapping[str, Any]]) -> None:
        """Attach a live stats surface under ``name`` (replaces a previous one).

        Re-registration is deliberate: an engine run registers its per-run
        stats objects under stable names, so the registry always reflects
        the *current* run.
        """
        with self._lock:
            self._sources[name] = source

    def snapshot(self) -> Dict[str, float]:
        """One flat ``name -> number`` view of every timer and source.

        Source values are prefixed with the source name
        (``"penalty_cache.hits"``); non-numeric source values are skipped.
        Keys are sorted so samples and JSON dumps are stable.
        """
        with self._lock:
            timers = list(self._timers.values())
            sources = list(self._sources.items())
        out: Dict[str, float] = {}
        for timer in timers:
            out.update(timer.snapshot())
        for name, source in sources:
            for key, value in source().items():
                if _is_number(value):
                    out[f"{name}.{key}"] = value
        return {key: out[key] for key in sorted(out)}

    def sample_record(self, now: float) -> TraceRecord:
        """The :meth:`snapshot` wrapped as a ``metrics.sample`` trace record."""
        return TraceRecord(now, "metrics.sample", None, self.snapshot())
