"""Predictive simulator (§VI.A of the paper).

Applications are per-task sequences of compute and communication events; the
execution engine advances them above a fluid transfer layer whose rates come
either from a contention model (prediction) or from the calibrated cluster
emulator (measurement).
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".application": ["Application", "TaskTrace"],
    ".engine": ["EngineConfig", "EngineLoopStats", "ExecutionEngine"],
    ".interference": ["Injector", "BackgroundTrafficInjector", "LinkDegradationInjector",
                      "NodeSlowdownInjector", "build_injectors"],
    ".events": ["ANY_SOURCE", "ComputeEvent", "SendEvent", "RecvEvent", "BarrierEvent",
                "Event"],
    ".providers": ["ModelRateProvider"],
    "..network.allocator": ["EmulatorRateProvider"],
    ".report": ["EventRecord", "SimulationReport"],
    ".simulator": ["Simulator"],
    "..cluster.placement": ["make_placement"],
    ".scheduling": ["PAPER_POLICIES"],
})
