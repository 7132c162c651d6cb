"""Tests of the calibrated cluster emulator against the paper's Figure 2."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis import paper_penalties
from repro.benchmark import PenaltyTool
from repro.core.graph import CommunicationGraph
from repro.exceptions import SimulationError, TopologyError
from repro.network import (
    ClusterEmulator,
    EmulatorRateProvider,
    FatTreeTopology,
    GIGABIT_ETHERNET,
    MYRINET_2000,
    Transfer,
    get_technology,
)
from repro.scheme import figure2_schemes, outgoing_conflict_scheme
from repro.units import MB


class TestTechnologyPresets:
    def test_aliases(self):
        assert get_technology("gige") is GIGABIT_ETHERNET
        assert get_technology("MYRINET") is MYRINET_2000

    def test_unknown_technology(self):
        with pytest.raises(TopologyError):
            get_technology("carrier-pigeon")

    def test_single_stream_bandwidth_below_link(self):
        for name in ("ethernet", "myrinet", "infiniband"):
            tech = get_technology(name)
            assert tech.single_stream_bandwidth < tech.link_bandwidth

    def test_single_stream_bandwidth_is_kept_outside_the_fields(self):
        tech = get_technology("myrinet")
        fresh = dataclasses.replace(tech)
        assert fresh.single_stream_bandwidth == \
            tech.link_bandwidth * tech.sharing.single_stream_efficiency
        assert fresh.single_stream_bandwidth is fresh.single_stream_bandwidth
        assert dataclasses.replace(tech) == fresh
        assert hash(dataclasses.replace(tech)) == hash(fresh)
        assert "single_stream_bandwidth" not in {f.name for f in dataclasses.fields(fresh)}

    def test_reference_time_scales_with_size(self):
        tech = get_technology("ethernet")
        assert tech.reference_time(20 * MB) > tech.reference_time(4 * MB)

    def test_with_sharing_override(self):
        modified = GIGABIT_ETHERNET.with_sharing(single_stream_efficiency=0.5)
        assert modified.single_stream_bandwidth == pytest.approx(0.5 * GIGABIT_ETHERNET.link_bandwidth)
        assert GIGABIT_ETHERNET.sharing.single_stream_efficiency == 0.75  # original untouched


class TestEmulatorBasics:
    def test_single_flow_penalty_is_one(self, ethernet_emulator):
        graph = CommunicationGraph.from_edges([(0, 1)])
        penalties = ethernet_emulator.measure_penalties(graph)
        assert penalties["a"] == pytest.approx(1.0, abs=1e-6)

    def test_times_scale_with_message_size(self, ethernet_emulator):
        small = CommunicationGraph.from_edges([(0, 1)], size=1 * MB)
        large = CommunicationGraph.from_edges([(0, 1)], size=10 * MB)
        assert ethernet_emulator.measure_times(large)["a"] > ethernet_emulator.measure_times(small)["a"]

    def test_host_outside_topology_rejected(self):
        emulator = ClusterEmulator("ethernet", num_hosts=4)
        graph = CommunicationGraph.from_edges([(0, 10)])
        with pytest.raises(SimulationError):
            emulator.measure_times(graph)

    def test_intra_node_transfer_uses_memory_path(self, ethernet_emulator):
        graph = CommunicationGraph()
        graph.add_edge(0, 0, size=10 * MB, name="local")
        time = ethernet_emulator.measure_times(graph)["local"]
        expected = ethernet_emulator.technology.latency + (
            (10 * MB + ethernet_emulator.technology.mpi_envelope)
            / ethernet_emulator.technology.memory_bandwidth
        )
        assert time == pytest.approx(expected, rel=1e-6)

    def test_describe(self, myrinet_emulator):
        text = myrinet_emulator.describe()
        assert "stop-and-go" in text

    def test_a_measurement_runs_the_emulator_once(self, monkeypatch):
        """The emulator is deterministic, so a measurement runs it once per
        scheme and replicates the times over its iterations: the result is
        bit for bit the mean over that many independent emulator runs."""
        graph = figure2_schemes()["S6"]
        tool = PenaltyTool("myrinet", iterations=3, num_hosts=8)
        runs = []
        measure_times = tool.emulator.measure_times
        monkeypatch.setattr(tool.emulator, "measure_times",
                            lambda g: runs.append(g) or measure_times(g))
        measurement = tool.measure(graph)
        assert runs == [graph]
        fresh = [ClusterEmulator("myrinet", num_hosts=8).measure_times(graph)
                 for _ in range(3)]
        expected = {name: float(np.mean([run[name] for run in fresh]))
                    for name in graph.names}
        assert {name: t.hex() for name, t in measurement.times.items()} == {
            name: t.hex() for name, t in expected.items()}


class TestFigure2Reproduction:
    """The emulator reproduces the measured penalty ladder of Figure 2."""

    NETWORKS = ("ethernet", "myrinet", "infiniband")

    @pytest.mark.parametrize("network", NETWORKS)
    @pytest.mark.parametrize("scheme", ("S1", "S2", "S3", "S4"))
    def test_low_contention_schemes_within_10_percent(self, network, scheme):
        emulator = ClusterEmulator(network, num_hosts=16)
        graph = figure2_schemes()[scheme]
        measured = emulator.measure_penalties(graph)
        reference = paper_penalties(scheme, network)
        for name, value in reference.items():
            assert measured[name] == pytest.approx(value, rel=0.12), (network, scheme, name)

    @pytest.mark.parametrize("network", NETWORKS)
    def test_income_outgo_schemes_preserve_the_shape(self, network):
        """S5: outgoing communications are hurt more than in S3, incoming share fairly."""
        emulator = ClusterEmulator(network, num_hosts=16)
        s3 = emulator.measure_penalties(figure2_schemes()["S3"])
        s5 = emulator.measure_penalties(figure2_schemes()["S5"])
        assert s5["a"] > s3["a"]                  # second reverse stream hurts the senders
        assert s5["d"] == pytest.approx(s5["e"], rel=1e-6)  # the two incoming flows are symmetric
        assert s5["d"] > 1.5                      # and significantly penalised

    @pytest.mark.parametrize("network,expected", [
        ("ethernet", 2.6), ("myrinet", 2.5), ("infiniband", 2.035),
    ])
    def test_s5_incoming_penalties_close_to_paper(self, network, expected):
        emulator = ClusterEmulator(network, num_hosts=16)
        measured = emulator.measure_penalties(figure2_schemes()["S5"])
        assert measured["d"] == pytest.approx(expected, rel=0.15)

    @pytest.mark.parametrize("network", NETWORKS)
    def test_s6_extra_flow_is_barely_penalised(self, network):
        emulator = ClusterEmulator(network, num_hosts=16)
        measured = emulator.measure_penalties(figure2_schemes()["S6"])
        assert measured["f"] < 1.6

    def test_ethernet_ladder_tracks_beta(self):
        emulator = ClusterEmulator("ethernet", num_hosts=16)
        for fanout in (2, 3, 4):
            graph = outgoing_conflict_scheme(fanout)
            measured = emulator.measure_penalties(graph)
            assert measured["a"] == pytest.approx(0.75 * fanout, rel=0.02)


class TestRateProvider:
    def test_instantaneous_penalties(self):
        provider = EmulatorRateProvider(GIGABIT_ETHERNET, num_hosts=8)
        transfers = [Transfer(i, 0, i + 1, 20 * MB) for i in range(3)]
        rates = provider.update(transfers, [])
        single = GIGABIT_ETHERNET.single_stream_bandwidth
        assert len(rates) == 3
        assert all(single / r == pytest.approx(2.25, rel=0.01) for r in rates.values())

    def test_empty_transfer_list(self):
        provider = EmulatorRateProvider(GIGABIT_ETHERNET, num_hosts=8)
        assert provider.update([], []) == {}

    def test_reset_forgets_the_tracked_set(self):
        """After ``reset()`` a re-added set is priced, and every transfer
        reported, as by a fresh provider: the full-query calendar's reference."""
        provider = EmulatorRateProvider(GIGABIT_ETHERNET, num_hosts=8, cache_size=64)
        transfers = [Transfer(i, 0, i + 1, 20 * MB) for i in range(3)]
        provider.update(transfers, [])
        provider.update([], [1])
        provider.reset()
        with pytest.raises(SimulationError):
            provider.update([], [0])
        fresh = EmulatorRateProvider(GIGABIT_ETHERNET, num_hosts=8)
        assert provider.update(transfers, []) == fresh.update(transfers, [])
        assert provider.cache_hits == 1  # the memo survived the reset

    def test_fat_tree_oversubscription_limits_cross_switch_flows(self):
        """With a 4:1 oversubscribed fat tree, many cross-switch flows share the uplink."""
        technology = MYRINET_2000
        topo = FatTreeTopology(num_hosts=8, technology=technology,
                               hosts_per_edge=4, uplinks_per_edge=1)
        provider = EmulatorRateProvider(technology, topo)
        # four flows from switch 0 hosts to switch 1 hosts, distinct endpoints
        transfers = [Transfer(i, i, 4 + i, 20 * MB) for i in range(4)]
        rates = provider.update(transfers, [])
        total = sum(rates.values())
        assert total <= technology.link_bandwidth * 1.001  # limited by the single uplink
