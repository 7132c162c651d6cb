"""The unified metrics registry.

One :class:`MetricsRegistry` instance is the single observability surface of
a run: every layer that used to keep private counters (the incremental
pricing engine's :class:`~repro.core.incremental.EngineStats`, the penalty
caches' ``stats()`` dicts, the calendar's
:class:`~repro.network.fluid.CalendarStats`, the allocator's warm-start
counter) publishes into it, either through owned *instruments*
(:class:`Counter` / :class:`Gauge` / :class:`Histogram` /
:class:`PhaseTimer`) or through registered *sources* — zero-argument
callables returning a mapping of live counter values, the adapter that lets
the existing telemetry surfaces join the registry without changing their
own API (every pre-existing ``stats()`` / ``snapshot()`` consumer keeps
working).

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

Thread-safety: instrument/source registration is locked; the increment
paths (``add``/``set``/``observe``) are plain attribute updates — atomic
enough under the GIL for monitoring counters, and free of locking cost on
the hot paths.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Callable, Dict, Mapping, Optional, Type, TypeVar, Union, cast

from ..exceptions import ReproError
from ..trace.records import TraceRecord

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "PhaseTimer",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> Dict[str, float]:
        return {self.name: self.value}


class Gauge:
    """A point-in-time value (queue depth, active set size, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self) -> Dict[str, float]:
        return {self.name: self.value}


class Histogram:
    """Streaming moments (count / total / min / max / mean) of a quantity.

    Deliberately not a bucketed histogram: the consumers (benchmark records,
    ``metrics.sample`` payloads, the campaign progress rollup) want scalar
    aggregates, and scalars keep :meth:`observe` allocation-free on hot
    paths.  Units belong in the name (``calendar.flush_s``).
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

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def snapshot(self) -> Dict[str, float]:
        return {
            f"{self.name}.count": self.count,
            f"{self.name}.total": self.total,
            f"{self.name}.mean": self.mean,
            f"{self.name}.min": self.min if self.min is not None else 0.0,
            f"{self.name}.max": self.max if self.max is not None else 0.0,
        }


class PhaseTimer(Histogram):
    """A histogram of phase durations in seconds.

    The profiling hook around the hot phases (calendar flush, dirty-component
    pricing, water-fill).  Hot sites call :meth:`observe` with a
    ``perf_counter`` delta directly — the context-manager form
    (:meth:`time`) is for coarse phases where ``with`` overhead is noise.

    ``sample_every`` (default 1 = time every call) turns the timer into a
    1-in-N sampler: hot sites gate their two ``perf_counter`` calls on
    :meth:`due`, so N−1 out of N phase executions pay only one integer
    increment.  Sampled aggregates estimate the full population (the mean
    stays unbiased for steady phases); the snapshot exposes the factor as
    ``<name>.sample_every`` whenever it is not 1 so consumers can scale
    ``count``/``total`` back up.
    """

    __slots__ = ("sample_every", "_tick")

    def __init__(self, name: str, sample_every: int = 1) -> None:
        super().__init__(name)
        if sample_every < 1:
            raise ReproError(
                f"timer {name!r}: sample_every must be >= 1, got {sample_every}"
            )
        self.sample_every = sample_every
        self._tick = 0

    def due(self) -> bool:
        """True when this call should be timed (every call at factor 1)."""
        every = self.sample_every
        if every == 1:
            return True
        self._tick += 1
        if self._tick >= every:
            self._tick = 0
            return True
        return False

    def snapshot(self) -> Dict[str, float]:
        out = super().snapshot()
        if self.sample_every != 1:
            out[f"{self.name}.sample_every"] = self.sample_every
        return out

    def time(self) -> "_Timing":
        return _Timing(self)


class _Timing:
    __slots__ = ("_timer", "_start")

    def __init__(self, timer: PhaseTimer) -> None:
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_Timing":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._timer.observe(perf_counter() - self._start)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: everything the registry can own — all four expose snapshot() and reset()
Instrument = Union[Counter, Gauge, Histogram, PhaseTimer]

_InstrumentT = TypeVar("_InstrumentT", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Create-or-get instruments plus pluggable stats sources; one flat view.

    ``counter`` / ``gauge`` / ``histogram`` / ``timer`` return the existing
    instrument when the name is taken (so independent layers can share one
    metric), raising :class:`~repro.exceptions.ReproError` on a kind
    mismatch.  :meth:`register_source` adapts an existing telemetry surface
    (any ``() -> Mapping[str, number]``, e.g. ``PenaltyCache.stats`` or a
    stats dataclass's ``snapshot``); sources are read lazily at
    :meth:`snapshot` time, so registering one costs nothing per event.
    """

    def __init__(self, timer_sample_every: int = 1) -> None:
        if timer_sample_every < 1:
            raise ReproError(
                f"timer_sample_every must be >= 1, got {timer_sample_every}"
            )
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}
        self._sources: Dict[str, Callable[[], Mapping[str, Any]]] = {}
        #: default 1-in-N sampling factor of :meth:`timer`-created PhaseTimers
        self.timer_sample_every = int(timer_sample_every)

    # ------------------------------------------------------------ instruments
    def _instrument(self, name: str, kind: Type[_InstrumentT]) -> _InstrumentT:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name)
                self._instruments[name] = instrument
            elif type(instrument) is not kind:
                raise ReproError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return cast(_InstrumentT, instrument)

    def counter(self, name: str) -> Counter:
        return self._instrument(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(name, Histogram)

    def timer(self, name: str) -> PhaseTimer:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = PhaseTimer(name, self.timer_sample_every)
                self._instruments[name] = instrument
            elif type(instrument) is not PhaseTimer:
                raise ReproError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not PhaseTimer"
                )
            return instrument

    # ---------------------------------------------------------------- sources
    def register_source(self, name: str,
                        source: Callable[[], Mapping[str, Any]]) -> None:
        """Attach a live stats surface under ``name`` (replaces a previous one).

        Re-registration is deliberate: an engine run registers its per-run
        stats objects under stable names, so the registry always reflects
        the *current* run.
        """
        with self._lock:
            self._sources[name] = source

    def unregister_source(self, name: str) -> None:
        with self._lock:
            self._sources.pop(name, None)

    # ------------------------------------------------------------------ views
    def snapshot(self) -> Dict[str, float]:
        """One flat ``name -> number`` view of every instrument and source.

        Source values are prefixed with the source name
        (``"penalty_cache.hits"``); non-numeric source values are skipped.
        Keys are sorted so samples and JSON dumps are stable.
        """
        with self._lock:
            instruments = list(self._instruments.values())
            sources = list(self._sources.items())
        out: Dict[str, float] = {}
        for instrument in instruments:
            out.update(instrument.snapshot())
        for name, source in sources:
            for key, value in source().items():
                if _is_number(value):
                    out[f"{name}.{key}"] = value
        return {key: out[key] for key in sorted(out)}

    def sample_record(self, now: float) -> TraceRecord:
        """The :meth:`snapshot` wrapped as a ``metrics.sample`` trace record."""
        return TraceRecord(now, "metrics.sample", None, self.snapshot())

    def reset(self) -> None:
        """Zero every owned instrument (registered sources are left alone)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.reset()
