"""Tests of the workload generators: Linpack, synthetic schemes, collectives, traces."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.exceptions import TraceError, WorkloadError
from repro.simulator import Application, ComputeEvent, SendEvent
from repro.workloads import (
    LinpackParameters,
    apply_tracing_overhead,
    binomial_broadcast,
    bipartite_fan_scheme,
    broadcast_application,
    complete_graph_scheme,
    flat_gather,
    generate_linpack,
    hotspot_scheme,
    hpl_total_flops,
    pairwise_exchange_alltoall,
    random_graph_scheme,
    random_tree_scheme,
    read_trace,
    ring_allgather,
    scheme_family,
    trace_to_text,
    write_trace,
)
from repro.units import MB


class TestLinpackGenerator:
    def test_parameters_validation(self):
        with pytest.raises(WorkloadError):
            LinpackParameters(problem_size=0)
        with pytest.raises(WorkloadError):
            LinpackParameters(num_tasks=1)
        with pytest.raises(WorkloadError):
            LinpackParameters(panel_fraction=0.0)

    def test_total_flops_formula(self):
        assert hpl_total_flops(1000) == pytest.approx((2 / 3) * 1e9 + 2e6)

    def test_panel_count(self):
        params = LinpackParameters(problem_size=2000, block_size=100, num_tasks=4)
        assert params.num_panels == 20

    def test_ring_structure(self):
        """Every panel travels the ring: P-1 sends per panel, task n -> task n+1."""
        app = generate_linpack(problem_size=1000, block_size=250, num_tasks=4)
        sends = [(trace.rank, e.dst) for trace in app for e in trace if isinstance(e, SendEvent)]
        assert len(sends) == 4 * 3            # 4 panels x (P-1) hops
        assert all(dst == (src + 1) % 4 for src, dst in sends)

    def test_message_sizes_shrink_over_panels(self):
        app = generate_linpack(problem_size=2000, block_size=200, num_tasks=4)
        sizes_per_panel = {}
        for trace in app:
            for event in trace:
                if isinstance(event, SendEvent):
                    sizes_per_panel.setdefault(event.tag, set()).add(event.size)
        panels = sorted(sizes_per_panel)
        first = max(sizes_per_panel[panels[0]])
        last = max(sizes_per_panel[panels[-1]])
        assert last < first

    def test_trace_validates(self):
        app = generate_linpack(problem_size=1200, block_size=300, num_tasks=3)
        app.validate()

    def test_every_task_computes(self):
        app = generate_linpack(problem_size=1000, block_size=250, num_tasks=4)
        for trace in app:
            assert any(isinstance(e, ComputeEvent) for e in trace)

    def test_panel_fraction_truncates(self):
        full = generate_linpack(problem_size=2000, block_size=100, num_tasks=4)
        half = generate_linpack(problem_size=2000, block_size=100, num_tasks=4,
                                panel_fraction=0.5)
        assert half.total_messages == full.total_messages // 2

    def test_conflicting_parameter_styles_rejected(self):
        with pytest.raises(WorkloadError):
            generate_linpack(LinpackParameters(), problem_size=100)


class TestSyntheticSchemes:
    def test_random_tree_is_a_tree(self):
        nx = pytest.importorskip("networkx")
        graph = random_tree_scheme(9, seed=3)
        undirected = nx.Graph((c.src, c.dst) for c in graph)
        assert nx.is_tree(undirected)
        assert len(graph) == 8

    @pytest.mark.parametrize("num_nodes", [*range(2, 34), 64, 200])
    def test_random_tree_is_the_networkx_tree(self, num_nodes):
        """The decoded tree is the one ``nx.random_labeled_tree`` draws from
        the generator's first draw: campaign digests depend on it."""
        nx = pytest.importorskip("networkx")
        for seed in range(30):
            tree_seed = int(np.random.default_rng(seed).integers(0, 2**31 - 1))
            expected = sorted(nx.random_labeled_tree(num_nodes, seed=tree_seed).edges())
            graph = random_tree_scheme(num_nodes, seed=seed)
            assert [tuple(sorted((c.src, c.dst))) for c in graph] == expected

    def test_random_tree_stream_is_pinned(self):
        """One oriented tree, written out: a drift fails without networkx too."""
        graph = random_tree_scheme(16, seed=7)
        assert [(c.src, c.dst) for c in graph] == [
            (0, 4), (0, 10), (14, 0), (7, 1), (2, 15), (7, 3), (4, 12), (5, 7),
            (14, 6), (15, 7), (11, 8), (13, 9), (15, 10), (11, 15), (13, 15)]
        assert graph.name == "random-tree-16-s7"
        assert all(c.size == 4 * MB for c in graph)

    def test_random_tree_deterministic(self):
        a = random_tree_scheme(8, seed=1)
        b = random_tree_scheme(8, seed=1)
        assert a.to_edge_list() == b.to_edge_list()

    def test_complete_graph_pair_coverage(self):
        graph = complete_graph_scheme(6, seed=0)
        pairs = {frozenset((c.src, c.dst)) for c in graph}
        assert len(pairs) == 15

    def test_random_graph_respects_counts(self):
        graph = random_graph_scheme(num_nodes=5, num_communications=7, seed=2)
        assert len(graph) == 7
        assert all(c.src != c.dst for c in graph)

    def test_random_graph_too_many_pairs_rejected(self):
        with pytest.raises(WorkloadError):
            random_graph_scheme(num_nodes=3, num_communications=10, seed=0)

    def test_bipartite_fan(self):
        graph = bipartite_fan_scheme(2, 3)
        assert len(graph) == 6
        assert all(c.src in (0, 1) and c.dst in (2, 3, 4) for c in graph)

    def test_hotspot(self):
        graph = hotspot_scheme(4, hotspot=0)
        assert all(c.dst == 0 for c in graph)
        assert len(graph) == 4

    def test_scheme_family(self):
        family = scheme_family("tree", [4, 6, 8], seed=0)
        assert [len(g.nodes) for g in family] == [4, 6, 8]
        with pytest.raises(WorkloadError):
            scheme_family("hypercube", [4])

    def test_message_size_propagates(self):
        graph = complete_graph_scheme(4, size=2 * MB)
        assert all(c.size == 2 * MB for c in graph)


class TestCollectives:
    def test_binomial_broadcast_message_count(self):
        app = broadcast_application(num_tasks=8, size=1 * MB)
        assert app.total_messages == 7
        app.validate()

    def test_binomial_broadcast_nonzero_root(self):
        app = Application(num_tasks=6)
        binomial_broadcast(app, root=2, size=1 * MB)
        app.validate()
        assert app.total_messages == 5

    def test_ring_allgather_message_count(self):
        app = Application(num_tasks=5)
        ring_allgather(app, size=1 * MB)
        assert app.total_messages == 5 * 4
        app.validate()

    def test_flat_gather_hits_the_root(self):
        app = Application(num_tasks=6)
        flat_gather(app, root=0, size=1 * MB)
        assert app.trace(0).num_recvs == 5
        app.validate()

    def test_alltoall_requires_power_of_two(self):
        app = Application(num_tasks=6)
        with pytest.raises(WorkloadError):
            pairwise_exchange_alltoall(app, size=1 * MB)

    def test_alltoall_message_count(self):
        app = Application(num_tasks=4)
        pairwise_exchange_alltoall(app, size=1 * MB)
        assert app.total_messages == 4 * 3
        app.validate()


class TestTraces:
    def _sample_app(self):
        app = Application(num_tasks=3, name="sample")
        app.add_compute(0, duration=0.5)
        app.add_compute(1, flops=1e9)
        app.add_send(0, 1, 1 * MB, tag=3)
        app.add_recv(1, 0, 1 * MB, tag=3)
        app.add_send(2, 1, 4096)
        app.add_recv(1)
        app.add_barrier()
        return app

    def test_round_trip(self, tmp_path):
        app = self._sample_app()
        path = write_trace(app, tmp_path / "trace.txt")
        loaded = read_trace(path)
        assert loaded.num_tasks == app.num_tasks
        assert loaded.total_messages == app.total_messages
        assert loaded.total_bytes == app.total_bytes
        assert loaded.trace(0).compute_seconds == pytest.approx(0.5)

    def test_read_from_file_object(self):
        text = trace_to_text(self._sample_app())
        loaded = read_trace(io.StringIO(text))
        assert loaded.num_tasks == 3

    def test_missing_header_rejected(self):
        with pytest.raises(TraceError):
            read_trace(io.StringIO("0 compute 1.0\n"))

    def test_malformed_line_rejected(self):
        with pytest.raises(TraceError):
            read_trace(io.StringIO("tasks 2\n0 send onlyonearg\n"))

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(TraceError):
            read_trace(io.StringIO("tasks 2\n0 teleport 1\n"))

    def test_tracing_overhead_scales_compute_only(self):
        app = self._sample_app()
        inflated = apply_tracing_overhead(app, overhead=0.10)
        assert inflated.trace(0).compute_seconds == pytest.approx(0.55)
        assert inflated.total_messages == app.total_messages

    def test_tracing_overhead_returns_an_unfrozen_copy(self):
        app = self._sample_app().freeze()
        inflated = apply_tracing_overhead(app)
        assert not inflated.frozen
        inflated.add_compute(0, duration=1.0)

    def test_negative_overhead_rejected(self):
        with pytest.raises(TraceError):
            apply_tracing_overhead(self._sample_app(), overhead=-0.1)
