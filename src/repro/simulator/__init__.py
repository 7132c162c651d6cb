"""Predictive simulator (§VI.A of the paper).

Applications are per-task sequences of compute and communication events; the
execution engine advances them above a fluid transfer layer whose rates come
either from a contention model (prediction) or from the calibrated cluster
emulator (measurement).
"""

from .application import Application, TaskTrace
from .engine import EngineConfig, EngineLoopStats, ExecutionEngine
from .events import ANY_SOURCE, BarrierEvent, ComputeEvent, Event, RecvEvent, SendEvent
from .interference import (
    BackgroundTrafficInjector,
    Injector,
    LinkDegradationInjector,
    NodeSlowdownInjector,
    build_injectors,
)
from .providers import EmulatorRateProvider, ModelRateProvider
from .report import EventRecord, SimulationReport
from .scheduling import PAPER_POLICIES, make_placement
from .simulator import Simulator

__all__ = [
    "Application",
    "TaskTrace",
    "EngineConfig",
    "EngineLoopStats",
    "ExecutionEngine",
    "Injector",
    "BackgroundTrafficInjector",
    "LinkDegradationInjector",
    "NodeSlowdownInjector",
    "build_injectors",
    "ANY_SOURCE",
    "ComputeEvent",
    "SendEvent",
    "RecvEvent",
    "BarrierEvent",
    "Event",
    "ModelRateProvider",
    "EmulatorRateProvider",
    "EventRecord",
    "SimulationReport",
    "Simulator",
    "make_placement",
    "PAPER_POLICIES",
]
