"""Unified observability layer: metrics registry, instruments, phase timers.

See :mod:`repro.obs.registry` for the design.  Quick tour::

    from repro.obs import MetricsRegistry
    from repro.simulator import EngineConfig, Simulator

    registry = MetricsRegistry()
    config = EngineConfig(trace=sink, metrics=registry)
    Simulator.predictive(cluster, config=config).run(application)
    registry.snapshot()          # flat {"calendar.flush_s.total": ..., ...}

Attaching ``metrics`` lights up the whole stack: the engine registers its
loop and calendar counters as sources, the rate provider registers its
pricing stats and installs phase timers around the hot phases (calendar
flush, dirty-component pricing, water-fill), and — when a trace sink is attached
too — periodic ``metrics.sample`` records are emitted every
:attr:`~repro.simulator.engine.EngineConfig.metrics_sample_every` steps.
"""

from .registry import Counter, Gauge, Histogram, MetricsRegistry, PhaseTimer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "PhaseTimer",
    "MetricsRegistry",
]
