"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.campaign import spec as campaign_spec
from repro.cluster import custom_cluster
from repro.core import (
    EthernetParameters,
    GigabitEthernetModel,
    InfinibandModel,
    MyrinetModel,
)
from repro.network import ClusterEmulator
from repro.scheme import figure2_schemes, figure4_scheme, figure5_graph, mk1_tree, mk2_complete


@pytest.fixture
def application_memo(monkeypatch):
    """An empty application build memo of the default bound, for this test only."""
    memo = campaign_spec._ApplicationMemo(campaign_spec.APPLICATION_MEMO_EVENTS)
    monkeypatch.setattr(campaign_spec, "_APPLICATIONS", memo)
    return memo


@pytest.fixture
def ethernet_model() -> GigabitEthernetModel:
    return GigabitEthernetModel(EthernetParameters.paper())


@pytest.fixture
def myrinet_model() -> MyrinetModel:
    return MyrinetModel()


@pytest.fixture
def infiniband_model() -> InfinibandModel:
    return InfinibandModel()


@pytest.fixture
def fig2():
    return figure2_schemes()


@pytest.fixture
def fig4():
    return figure4_scheme()


@pytest.fixture
def fig5():
    return figure5_graph()


@pytest.fixture
def mk1():
    return mk1_tree()


@pytest.fixture
def mk2():
    return mk2_complete()


@pytest.fixture
def ethernet_emulator() -> ClusterEmulator:
    return ClusterEmulator("ethernet", num_hosts=16)


@pytest.fixture
def myrinet_emulator() -> ClusterEmulator:
    return ClusterEmulator("myrinet", num_hosts=16)


@pytest.fixture
def infiniband_emulator() -> ClusterEmulator:
    return ClusterEmulator("infiniband", num_hosts=16)


@pytest.fixture
def small_cluster():
    """8 nodes with 2 cores each on the Myrinet interconnect."""
    return custom_cluster(num_nodes=8, cores_per_node=2, technology="myrinet")


@pytest.fixture
def ethernet_cluster():
    return custom_cluster(num_nodes=8, cores_per_node=2, technology="ethernet")
