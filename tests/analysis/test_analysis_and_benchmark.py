"""Tests of the error metrics, the reference data, table rendering and the penalty tool."""

from __future__ import annotations

import pytest

from repro.analysis import (
    ETHERNET_PAPER_PARAMETERS,
    FIGURE2_PENALTIES,
    FIGURE6_TABLE,
    FIGURE7_EABS,
    FIGURE7_MYRINET,
    absolute_error,
    compare_reports,
    compare_times,
    measured_vs_predicted_table,
    paper_penalties,
    penalty_ladder_table,
    per_task_error_table,
    relative_error,
    relative_errors,
    render_table,
)
from repro.benchmark import ExperimentRunner, PenaltyTool
from repro.core import GigabitEthernetModel, MyrinetModel, NoContentionModel
from repro.exceptions import ReproError, SimulationError
from repro.network import ClusterEmulator
from repro.scheme import figure2_schemes, outgoing_conflict_scheme
from repro.simulator.report import EventRecord, SimulationReport
from repro.units import MB


class TestErrorMetrics:
    def test_relative_error_sign_convention(self):
        assert relative_error(predicted=1.1, measured=1.0) == pytest.approx(10.0)
        assert relative_error(predicted=0.9, measured=1.0) == pytest.approx(-10.0)

    def test_relative_error_zero_measurement(self):
        with pytest.raises(ReproError):
            relative_error(1.0, 0.0)

    def test_relative_errors_mapping(self):
        errors = relative_errors({"a": 2.0, "b": 1.0}, {"a": 1.0, "b": 2.0})
        assert errors["a"] == pytest.approx(100.0)
        assert errors["b"] == pytest.approx(-50.0)

    def test_relative_errors_missing_key(self):
        with pytest.raises(ReproError):
            relative_errors({"a": 1.0}, {"a": 1.0, "b": 1.0})

    def test_absolute_error_avoids_compensation(self):
        assert absolute_error([10.0, -10.0]) == pytest.approx(10.0)
        assert absolute_error([]) == 0.0

    def test_graph_error_report(self):
        report = compare_times(
            measured={"a": 1.0, "b": 2.0},
            predicted={"a": 1.1, "b": 1.8},
            graph_name="demo",
        )
        assert report.absolute == pytest.approx((10 + 10) / 2)
        assert report.relative["b"] == pytest.approx(-10.0)
        assert not report.is_pessimistic or report.mean_relative > 0
        assert "Eabs" in report.table()

    def test_task_error_report_from_simulation_reports(self):
        def make_report(times):
            records = [
                EventRecord(rank=r, index=0, kind="send", start=0.0, end=t, size=1)
                for r, t in times.items()
            ]
            return SimulationReport("app", "m", "RRP", len(times), records,
                                    {r: t for r, t in times.items()})

        measured = make_report({0: 1.0, 1: 2.0})
        predicted = make_report({0: 1.2, 1: 1.9})
        report = compare_reports(measured, predicted)
        assert report.per_task_error[0] == pytest.approx(20.0)
        assert report.mean_error == pytest.approx((20 + 5) / 2)
        assert "task" in report.table()

    def test_task_error_report_mismatched_sizes(self):
        a = SimulationReport("x", "m", "RRP", 2, [], {0: 1.0, 1: 1.0})
        b = SimulationReport("x", "m", "RRP", 3, [], {0: 1.0, 1: 1.0, 2: 1.0})
        with pytest.raises(ReproError):
            compare_reports(a, b)


class TestReferenceData:
    def test_figure2_lookup(self):
        assert paper_penalties("S3", "ethernet")["a"] == 2.25
        assert paper_penalties("s5", "myrinet")["d"] == 2.5
        with pytest.raises(KeyError):
            paper_penalties("S9", "ethernet")
        with pytest.raises(KeyError):
            paper_penalties("S3", "atm")

    def test_figure2_schemes_and_reference_share_communication_names(self):
        for scheme_id, graph in figure2_schemes().items():
            reference = FIGURE2_PENALTIES[scheme_id]["myrinet"]
            assert set(reference) == set(graph.names)

    def test_figure6_consistency(self):
        """In the paper's own table, penalty = num_state_sets / minimum."""
        for row in FIGURE6_TABLE.values():
            assert row["penalty"] == pytest.approx(5 / row["minimum"])

    def test_figure7_eabs_matches_per_communication_errors(self):
        for graph_name, eabs in FIGURE7_EABS.items():
            errors = [abs(v["relative_error"]) for v in FIGURE7_MYRINET[graph_name].values()]
            assert sum(errors) / len(errors) == pytest.approx(eabs, abs=0.2)

    def test_paper_parameters(self):
        assert ETHERNET_PAPER_PARAMETERS["beta"] == 0.75


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["x", "value"], [["a", 1.0], ["bb", 2.5]], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert len(set(len(line) for line in lines[1:])) == 1

    def test_penalty_ladder_table_includes_reference(self):
        results = {"S2": {"gigabit-ethernet": {"a": 1.5, "b": 1.5}}}
        text = penalty_ladder_table(results, reference=FIGURE2_PENALTIES,
                                    networks=("gigabit-ethernet",))
        assert "(1.50)" in text

    def test_measured_vs_predicted_table(self):
        text = measured_vs_predicted_table({"a": 1.0}, {"a": 1.1}, title="demo")
        assert "Eabs" in text and "10.0" in text

    def test_per_task_error_table(self):
        text = per_task_error_table({0: 1.0, 1: 2.0}, {0: 1.1, 1: 2.0})
        assert "mean per-task Eabs" in text


class TestPenaltyTool:
    def test_reference_time_positive(self):
        tool = PenaltyTool("myrinet", iterations=1, num_hosts=8)
        assert tool.reference_time() > 0
        assert tool.reference_time(4 * MB) < tool.reference_time(20 * MB)

    def test_measure_single_scheme(self):
        tool = PenaltyTool("ethernet", iterations=2, num_hosts=8)
        measurement = tool.measure(outgoing_conflict_scheme(2))
        assert measurement.penalties["a"] == pytest.approx(1.5, rel=0.02)
        assert measurement.mean_penalty == pytest.approx(1.5, rel=0.02)
        assert "penalty" in measurement.table()

    def test_invalid_iterations(self):
        with pytest.raises(SimulationError):
            PenaltyTool("ethernet", iterations=0)

    def test_measure_many(self):
        tool = PenaltyTool("infiniband", iterations=1, num_hosts=8)
        results = tool.measure_many({k: v for k, v in figure2_schemes().items() if k in ("S1", "S2")})
        assert set(results) == {"S1", "S2"}

    def test_compare_with_model(self):
        tool = PenaltyTool("ethernet", iterations=1, num_hosts=8)
        comparison = tool.compare_with_model(outgoing_conflict_scheme(3), GigabitEthernetModel())
        assert comparison["a"]["predicted"] == pytest.approx(2.25)
        assert abs(comparison["a"]["relative_error_percent"]) < 5

    def test_the_mean_over_iterations_is_kept(self):
        """The replicated mean is not always the single run's time: three
        copies of S3's ``a`` on GigE sum and divide to one ulp below it."""
        graph = figure2_schemes()["S3"]
        measured = PenaltyTool("ethernet", iterations=3, num_hosts=16).measure(graph)
        single = ClusterEmulator("ethernet", num_hosts=16).measure_times(graph)
        assert measured.times["a"].hex() == "0x1.eb9151b2b65c5p-2"
        assert single["a"].hex() == "0x1.eb9151b2b65c6p-2"


class TestExperimentRunner:
    def test_run_scheme_produces_rows(self):
        runner = ExperimentRunner(networks=("ethernet",), iterations=1, num_hosts=8)
        result = runner.run_scheme(outgoing_conflict_scheme(3), "ethernet")
        rows = result.rows()
        assert len(rows) == 3
        assert all(abs(r["relative_error_percent"]) < 10 for r in rows)

    def test_run_ladder_sweeps_networks(self):
        runner = ExperimentRunner(networks=("ethernet", "myrinet"), iterations=1, num_hosts=8)
        schemes = {k: v for k, v in figure2_schemes().items() if k in ("S1", "S2")}
        sweep = runner.run_ladder(schemes)
        assert len(sweep.results) == 4
        assert len(sweep.for_network("myrinet")) == 2
        assert len(sweep.for_scheme("fig2-s2")) == 2

    def test_models_comparison(self):
        runner = ExperimentRunner(networks=("myrinet",), iterations=1, num_hosts=8)
        comparison = runner.run_models_comparison(
            outgoing_conflict_scheme(3), "myrinet",
            [MyrinetModel(), NoContentionModel()],
        )
        myrinet_error = abs(comparison["myrinet"].rows()[0]["relative_error_percent"])
        baseline_error = abs(comparison["no-contention"].rows()[0]["relative_error_percent"])
        assert myrinet_error < baseline_error

    def test_models_comparison_measures_the_scheme_once(self, monkeypatch):
        runner = ExperimentRunner(networks=("myrinet",), iterations=3, num_hosts=8)
        emulator = runner.tools["myrinet"].emulator
        runs = []
        measure_times = emulator.measure_times
        monkeypatch.setattr(emulator, "measure_times",
                            lambda graph: runs.append(graph) or measure_times(graph))
        graph = outgoing_conflict_scheme(3)
        comparison = runner.run_models_comparison(
            graph, "myrinet", [MyrinetModel(), NoContentionModel()])
        assert runs == [graph]
        assert comparison["myrinet"].measurement is comparison["no-contention"].measurement

    def test_run_scheme_off_the_sweep_uses_the_runner_settings(self):
        runner = ExperimentRunner(networks=("ethernet",), iterations=1, num_hosts=8)
        graph = outgoing_conflict_scheme(2)
        first = runner.run_scheme(graph, "myrinet")
        assert first.measurement.iterations == 1
        tool = runner.tools["myrinet"]
        assert tool.emulator.topology.num_hosts == 8
        runner.run_scheme(graph, "myrinet")
        assert runner.tools["myrinet"] is tool
