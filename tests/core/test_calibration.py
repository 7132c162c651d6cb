"""Tests for the parameter estimation (§V.A calibration protocol)."""

from __future__ import annotations

import pytest
from loaded_modules import loaded_after_import, loaded_after_running

from repro.benchmark import PenaltyTool
from repro.core import (
    CalibrationMeasurement,
    EthernetParameters,
    GigabitEthernetModel,
    InfinibandModel,
    InfinibandParameters,
    calibrate_from_measurer,
    estimate_beta,
    estimate_beta_from_times,
    estimate_gammas,
    fit_ethernet_parameters,
    fit_infiniband_parameters,
)
from repro.exceptions import CalibrationError
from repro.scheme import figure2_schemes, figure4_scheme, outgoing_conflict_scheme


class TestBetaEstimation:
    def test_paper_values(self):
        """The paper: β = 1.5/2 = 2.25/3 = 0.75."""
        assert estimate_beta({2: 1.5, 3: 2.25}) == pytest.approx(0.75)

    def test_averaging_over_fanouts(self):
        assert estimate_beta({2: 1.6, 4: 3.2}) == pytest.approx(0.8)

    def test_from_times(self):
        assert estimate_beta_from_times({2: 0.30, 3: 0.45}, reference_time=0.2) == pytest.approx(0.75)

    def test_requires_fanout_of_at_least_two(self):
        with pytest.raises(CalibrationError):
            estimate_beta({1: 1.0})

    def test_requires_positive_penalties(self):
        with pytest.raises(CalibrationError):
            estimate_beta({2: 0.0})

    def test_requires_measurements(self):
        with pytest.raises(CalibrationError):
            estimate_beta({})

    def test_requires_positive_reference(self):
        with pytest.raises(CalibrationError):
            estimate_beta_from_times({2: 0.3}, reference_time=0.0)


class TestGammaEstimation:
    def test_paper_formula_round_trip(self):
        """γ estimated from times generated with known γ must come back."""
        beta, gamma_o, gamma_i, tref = 0.75, 0.115, 0.036, 0.05
        time_a = 3 * beta * (1 - gamma_o) * tref
        time_f = 3 * beta * (1 - gamma_i) * tref
        est_o, est_i = estimate_gammas(time_a, time_f, tref, beta)
        assert est_o == pytest.approx(gamma_o)
        assert est_i == pytest.approx(gamma_i)

    def test_invalid_inputs(self):
        with pytest.raises(CalibrationError):
            estimate_gammas(0.0, 0.1, 0.05, 0.75)
        with pytest.raises(CalibrationError):
            estimate_gammas(0.1, 0.1, 0.05, 0.0)
        with pytest.raises(CalibrationError):
            estimate_gammas(0.1, 0.1, 0.05, 0.75, fanout=1)

    def test_implausible_measurement_rejected(self):
        # a time far larger than 3·β·t_ref would give γ < -0.5
        with pytest.raises(CalibrationError):
            estimate_gammas(time_a=1.0, time_f=0.1, reference_time=0.05, beta=0.75)


class TestLeastSquaresFits:
    def _measurements_from_model(self, model):
        graphs = [figure2_schemes()["S2"], figure2_schemes()["S3"],
                  figure2_schemes()["S4"], figure4_scheme()]
        return [CalibrationMeasurement(g, model.penalties(g)) for g in graphs]

    def test_fit_recovers_known_ethernet_parameters(self):
        true = EthernetParameters(beta=0.8, gamma_o=0.2, gamma_i=0.05)
        measurements = self._measurements_from_model(GigabitEthernetModel(true))
        fitted = fit_ethernet_parameters(measurements)
        assert fitted.beta == pytest.approx(true.beta, abs=0.02)
        assert fitted.gamma_o == pytest.approx(true.gamma_o, abs=0.05)
        assert fitted.gamma_i == pytest.approx(true.gamma_i, abs=0.05)

    def test_fit_requires_measurements(self):
        with pytest.raises(CalibrationError):
            fit_ethernet_parameters([])

    def test_fit_requires_complete_penalties(self):
        graph = figure2_schemes()["S2"]
        with pytest.raises(CalibrationError):
            fit_ethernet_parameters([CalibrationMeasurement(graph, {"a": 1.5})])

    def test_fit_infiniband_recovers_cross_terms(self):
        true = InfinibandParameters(beta=0.87, lambda_o=0.3, lambda_i=0.05)
        model = InfinibandModel(true)
        graphs = [figure2_schemes()[k] for k in ("S2", "S3", "S4", "S5")]
        measurements = [CalibrationMeasurement(g, model.penalties(g)) for g in graphs]
        fitted = fit_infiniband_parameters(measurements)
        assert fitted.beta == pytest.approx(0.87, abs=0.02)
        assert fitted.lambda_o == pytest.approx(0.3, abs=0.05)


class TestCalibrationAgainstEmulator:
    def test_protocol_recovers_plausible_ethernet_parameters(self):
        """Running the paper's protocol against the GigE emulator yields β≈0.75."""
        tool = PenaltyTool("ethernet", iterations=1, num_hosts=16)
        params = calibrate_from_measurer(tool.measure_penalties)
        assert params.beta == pytest.approx(0.75, abs=0.03)
        assert 0.0 <= params.gamma_o < 0.3
        assert 0.0 <= params.gamma_i < 0.3

    def test_calibrated_model_matches_emulator_on_the_ladder(self):
        tool = PenaltyTool("ethernet", iterations=1, num_hosts=16)
        params = calibrate_from_measurer(tool.measure_penalties)
        model = GigabitEthernetModel(params)
        graph = outgoing_conflict_scheme(3)
        measured = tool.measure_penalties(graph)
        predicted = model.penalties(graph)
        for name in measured:
            assert predicted[name] == pytest.approx(measured[name], rel=0.05)


class TestScipyIsImportedOnlyByTheFits:
    def test_import_repro_loads_no_scipy(self):
        """``import repro`` must work, and stay fast, without scipy loaded,
        and so must importing the calibration module that defers it."""
        modules = ["repro", "repro.core", "repro.network", "repro.simulator",
                   "repro.core.calibration"]
        assert loaded_after_import(modules, "scipy") == []


class TestNetworkxIsImportedOnlyByItsUsers:
    """networkx loads only when a graph conversion
    (``CommunicationGraph.to_networkx``/``from_networkx``) runs."""

    def test_import_repro_loads_no_networkx(self):
        modules = ["repro", "repro.core", "repro.network", "repro.simulator",
                   "repro.campaign", "repro.workloads", "repro.core.graph",
                   "repro.campaign.runner", "repro.workloads.synthetic"]
        assert loaded_after_import(modules, "networkx") == []

    def test_no_scenario_path_loads_networkx(self):
        """Every synthetic generator, a collective and HPL, priced or
        simulated on all three networks, run inline."""
        source = (
            "from repro.campaign import CampaignRunner, CampaignSpec\n"
            "from repro.campaign.spec import SYNTHETIC_GENERATORS\n"
            "workloads = [{'kind': 'synthetic', 'name': name} for name in SYNTHETIC_GENERATORS]\n"
            "workloads += [\n"
            "    {'kind': 'collective', 'name': 'ring-allgather', 'params': {'size': '64K'}},\n"
            "    {'kind': 'linpack', 'name': 'hpl',\n"
            "     'params': {'problem_size': 400, 'block_size': 100}}]\n"
            "networks = ['ethernet', 'myrinet', 'infiniband']\n"
            "spec = CampaignSpec.from_dict({'name': 'no-networkx', 'workloads': workloads,\n"
            "                               'networks': networks, 'host_counts': [6]})\n"
            "store = CampaignRunner(spec, max_workers=1).run()\n"
            "assert not store.failures, store.failures\n"
            "assert len(store.results) == len(workloads) * len(networks), len(store.results)\n"
        )
        assert loaded_after_running(source, "networkx") == []
