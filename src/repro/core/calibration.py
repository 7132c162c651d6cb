"""Parameter estimation for the contention models (§V.A of the paper).

The Gigabit Ethernet model has three card-specific parameters.  The paper
estimates them from two very small experiments:

* **β** from the *outgoing conflict ladder*: node 0 sends the same message to
  ``k`` distinct nodes; every communication is penalised by ``k·β``, so β is
  the measured penalty divided by ``k`` (Figure 2: ``1.5/2 = 2.25/3 =
  0.75``).
* **γ_o** and **γ_i** from the Figure 4 verification scheme: a communication
  ``a`` that is only slowed by its outgoing conflict and a communication
  ``f`` that is only slowed by its incoming conflict.  With ``t_ref`` the
  time of the same message without concurrency,

  .. math:: γ_o = 1 - t_a / (3 β t_{ref}), \\qquad γ_i = 1 - t_f / (3 β t_{ref})

This module implements those estimators, a generic least-squares fit of the
full parameter vector against a set of measured penalties (useful when the
measurements come from the cluster emulator instead of the two canonical
schemes), and the equivalent fit for the InfiniBand extension model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence, Tuple

from .._numpy import np
from ..exceptions import CalibrationError
from .ethernet_model import EthernetParameters, GigabitEthernetModel
from .graph import CommunicationGraph
from .infiniband_model import InfinibandModel, InfinibandParameters

__all__ = [
    "estimate_beta",
    "estimate_beta_from_times",
    "estimate_gammas",
    "CalibrationMeasurement",
    "fit_ethernet_parameters",
    "fit_infiniband_parameters",
    "calibrate_from_measurer",
]


def estimate_beta(penalties_by_fanout: Mapping[int, float]) -> float:
    """Estimate β from measured penalties of simple outgoing conflicts.

    ``penalties_by_fanout`` maps the number of concurrent outgoing
    communications ``k`` (k ≥ 2) to the measured penalty of one of them.

    >>> round(estimate_beta({2: 1.5, 3: 2.25}), 3)
    0.75
    """
    ratios = []
    for fanout, penalty in penalties_by_fanout.items():
        if fanout < 2:
            raise CalibrationError(f"β estimation needs fan-out >= 2, got {fanout}")
        if penalty <= 0:
            raise CalibrationError(f"penalty must be positive, got {penalty} for k={fanout}")
        ratios.append(penalty / fanout)
    if not ratios:
        raise CalibrationError("no measurements supplied for β estimation")
    return float(np.mean(ratios))


def estimate_beta_from_times(
    times_by_fanout: Mapping[int, float], reference_time: float
) -> float:
    """Estimate β from raw communication times instead of penalties."""
    if reference_time <= 0:
        raise CalibrationError(f"reference time must be positive, got {reference_time}")
    penalties = {k: t / reference_time for k, t in times_by_fanout.items()}
    return estimate_beta(penalties)


def estimate_gammas(
    time_a: float,
    time_f: float,
    reference_time: float,
    beta: float,
    fanout: int = 3,
) -> Tuple[float, float]:
    """Estimate ``(γ_o, γ_i)`` from the Figure 4 scheme measurements.

    ``time_a`` is the duration of the communication governed by γ_o (it
    leaves a node with ``fanout`` outgoing communications and is *not*
    strongly slowed), ``time_f`` the one governed by γ_i (symmetric on the
    receive side), and ``reference_time`` the duration of the same message
    without concurrency.
    """
    if min(time_a, time_f, reference_time) <= 0:
        raise CalibrationError("times must be positive")
    if beta <= 0:
        raise CalibrationError(f"beta must be positive, got {beta}")
    if fanout < 2:
        raise CalibrationError(f"fanout must be >= 2, got {fanout}")
    gamma_o = 1.0 - time_a / (fanout * beta * reference_time)
    gamma_i = 1.0 - time_f / (fanout * beta * reference_time)
    for label, value in (("gamma_o", gamma_o), ("gamma_i", gamma_i)):
        if not (-0.5 <= value < 1.0):
            raise CalibrationError(
                f"estimated {label}={value:.3f} is outside the plausible range;"
                " check the measurement scheme"
            )
    return float(np.clip(gamma_o, 0.0, 0.999)), float(np.clip(gamma_i, 0.0, 0.999))


@dataclass(frozen=True)
class CalibrationMeasurement:
    """One measured contention situation used by the least-squares fits."""

    graph: CommunicationGraph
    #: measured penalty of every communication of the graph
    penalties: Mapping[str, float]
    #: relative weight of this measurement in the fit
    weight: float = 1.0


def _stack_measurements(
    measurements: Sequence[CalibrationMeasurement],
) -> Tuple[Sequence[CalibrationMeasurement], np.ndarray, np.ndarray]:
    if not measurements:
        raise CalibrationError("at least one calibration measurement is required")
    observed = []
    weights = []
    for measurement in measurements:
        for comm in measurement.graph:
            if comm.name not in measurement.penalties:
                raise CalibrationError(
                    f"measurement for graph {measurement.graph.name!r} misses "
                    f"communication {comm.name!r}"
                )
            observed.append(float(measurement.penalties[comm.name]))
            weights.append(float(measurement.weight))
    return measurements, np.asarray(observed, dtype=float), np.asarray(weights, dtype=float)


def fit_ethernet_parameters(
    measurements: Sequence[CalibrationMeasurement],
    initial: EthernetParameters | None = None,
) -> EthernetParameters:
    """Least-squares fit of (β, γ_o, γ_i) against measured penalties.

    This generalises the paper's two-scheme estimation to an arbitrary set of
    measured graphs — convenient when the measurements come from the cluster
    emulator, a real testbed or a trace.
    """
    from scipy import optimize  # deferred: only the fits need scipy

    measurements, observed, weights = _stack_measurements(measurements)
    start = initial or EthernetParameters.paper()
    x0 = np.array([start.beta, start.gamma_o, start.gamma_i], dtype=float)

    def residuals(x: np.ndarray) -> np.ndarray:
        beta, gamma_o, gamma_i = x
        beta = max(beta, 1e-6)
        gamma_o = float(np.clip(gamma_o, 0.0, 0.999))
        gamma_i = float(np.clip(gamma_i, 0.0, 0.999))
        model = GigabitEthernetModel(EthernetParameters(beta, gamma_o, gamma_i))
        predicted = []
        for measurement in measurements:
            pens = model.penalties(measurement.graph)
            predicted.extend(pens[c.name] for c in measurement.graph)
        return (np.asarray(predicted) - observed) * np.sqrt(weights)

    result = optimize.least_squares(
        residuals, x0, bounds=([1e-6, 0.0, 0.0], [5.0, 0.999, 0.999])
    )
    if not result.success:  # pragma: no cover - scipy rarely fails here
        raise CalibrationError(f"least-squares fit failed: {result.message}")
    beta, gamma_o, gamma_i = result.x
    return EthernetParameters(beta=float(beta), gamma_o=float(gamma_o), gamma_i=float(gamma_i))


def fit_infiniband_parameters(
    measurements: Sequence[CalibrationMeasurement],
    initial: InfinibandParameters | None = None,
) -> InfinibandParameters:
    """Least-squares fit of the InfiniBand extension parameters (β, λ_o, λ_i)."""
    from scipy import optimize  # deferred: only the fits need scipy

    measurements, observed, weights = _stack_measurements(measurements)
    start = initial or InfinibandParameters.infinihost3()
    x0 = np.array([start.beta, start.lambda_o, start.lambda_i], dtype=float)

    def residuals(x: np.ndarray) -> np.ndarray:
        beta, lambda_o, lambda_i = x
        params = InfinibandParameters(
            beta=max(beta, 1e-6),
            gamma_o=start.gamma_o,
            gamma_i=start.gamma_i,
            lambda_o=max(lambda_o, 0.0),
            lambda_i=max(lambda_i, 0.0),
        )
        model = InfinibandModel(params)
        predicted = []
        for measurement in measurements:
            pens = model.penalties(measurement.graph)
            predicted.extend(pens[c.name] for c in measurement.graph)
        return (np.asarray(predicted) - observed) * np.sqrt(weights)

    result = optimize.least_squares(
        residuals, x0, bounds=([1e-6, 0.0, 0.0], [5.0, 5.0, 5.0])
    )
    if not result.success:  # pragma: no cover - defensive
        raise CalibrationError(f"least-squares fit failed: {result.message}")
    beta, lambda_o, lambda_i = result.x
    return InfinibandParameters(
        beta=float(beta),
        gamma_o=start.gamma_o,
        gamma_i=start.gamma_i,
        lambda_o=float(lambda_o),
        lambda_i=float(lambda_i),
    )


PenaltyMeasurer = Callable[[CommunicationGraph], Dict[str, float]]


def calibrate_from_measurer(
    measure: PenaltyMeasurer,
    size: int | None = None,
) -> EthernetParameters:
    """Run the paper's calibration protocol against an arbitrary measurement function.

    ``measure`` takes a communication graph and returns measured penalties
    (for instance :meth:`repro.benchmark.penalty_tool.PenaltyTool.measure_penalties`
    bound to the Gigabit Ethernet emulator).  The protocol is:

    1. measure the 2-way and 3-way outgoing ladders to estimate β;
    2. measure the Figure 4 scheme to estimate γ_o and γ_i.
    """
    # imported lazily to avoid a package cycle (scheme.library imports core)
    from ..scheme.library import figure4_scheme, outgoing_conflict_scheme

    ladder: Dict[int, float] = {}
    for fanout in (2, 3):
        graph = outgoing_conflict_scheme(fanout, size=size) if size else outgoing_conflict_scheme(fanout)
        penalties = measure(graph)
        first = graph.communications[0].name
        ladder[fanout] = penalties[first]
    beta = estimate_beta(ladder)

    verification = figure4_scheme(size=size) if size else figure4_scheme()
    penalties = measure(verification)
    # reference penalty is 1 by definition of a penalty measurement
    gamma_o, gamma_i = estimate_gammas(
        time_a=penalties["a"],
        time_f=penalties["f"],
        reference_time=1.0,
        beta=beta,
        fanout=3,
    )
    return EthernetParameters(beta=beta, gamma_o=gamma_o, gamma_i=gamma_i)
