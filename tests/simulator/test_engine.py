"""Tests of the execution engine: MPI semantics, timing, contention, deadlocks."""

from __future__ import annotations

import pytest

from repro.cluster import custom_cluster, user_defined_placement
from repro.core import GigabitEthernetModel, MyrinetModel, NoContentionModel
from repro.exceptions import DeadlockError, TraceError
from repro.mpi import MpiRuntime, Rank, fanout_program, ring_program
from repro.simulator import (
    ANY_SOURCE,
    Application,
    EngineConfig,
    Simulator,
)
from repro.trace import MemoryTraceSink
from repro.units import KiB, MB


@pytest.fixture
def cluster():
    return custom_cluster(num_nodes=4, cores_per_node=2, technology="ethernet")


def simple_simulator(cluster, model=None):
    return Simulator.predictive(cluster, model=model or NoContentionModel())


class TestBasicSemantics:
    def test_single_message_duration_matches_cost_model(self, cluster):
        app = Application(num_tasks=2, name="one-message")
        app.add_send(0, 1, 10 * MB)
        app.add_recv(1, 0, 10 * MB)
        sim = simple_simulator(cluster)
        report = sim.run(app, placement="RRN")
        tech = cluster.technology
        expected = tech.latency + (10 * MB + tech.mpi_envelope) / tech.single_stream_bandwidth
        assert report.communication_time(0) == pytest.approx(expected, rel=1e-6)
        assert report.total_time == pytest.approx(expected, rel=1e-6)

    def test_compute_event_duration(self, cluster):
        app = Application(num_tasks=1)
        app.add_compute(0, duration=0.25)
        report = simple_simulator(cluster).run(app)
        assert report.total_time == pytest.approx(0.25)
        assert report.compute_time(0) == pytest.approx(0.25)

    def test_compute_event_from_flops(self, cluster):
        app = Application(num_tasks=1)
        app.add_compute(0, flops=4.0e9)
        config = EngineConfig(compute_efficiency=1.0)
        report = Simulator.predictive(cluster, model=NoContentionModel(), config=config).run(app)
        assert report.total_time == pytest.approx(1.0)  # 4 GFLOP at 4 GFLOP/s

    def test_intra_node_message_uses_memory_bandwidth(self, cluster):
        app = Application(num_tasks=2)
        app.add_send(0, 1, 10 * MB)
        app.add_recv(1, 0, 10 * MB)
        # both ranks on node 0
        placement = user_defined_placement(cluster, [0, 0])
        report = simple_simulator(cluster).run(app, placement=placement)
        expected = (10 * MB + cluster.technology.mpi_envelope) / cluster.technology.memory_bandwidth
        assert report.communication_time(0) == pytest.approx(expected, rel=1e-6)

    def test_rendezvous_send_waits_for_late_receiver(self, cluster):
        """A large send cannot finish before the receiver posts its recv."""
        app = Application(num_tasks=2)
        app.add_send(0, 1, 10 * MB)
        app.add_compute(1, duration=1.0)
        app.add_recv(1, 0, 10 * MB)
        report = simple_simulator(cluster).run(app, placement="RRN")
        send = report.records_for(0, "send")[0]
        assert send.duration > 1.0           # includes the wait for the rendezvous
        assert report.total_time > 1.0

    def test_eager_send_completes_without_receiver(self, cluster):
        """A small (eager) message does not block on the receiver's recv."""
        app = Application(num_tasks=2)
        app.add_send(0, 1, 4 * KiB)
        app.add_compute(1, duration=1.0)
        app.add_recv(1, 0, 4 * KiB)
        report = simple_simulator(cluster).run(app, placement="RRN")
        send = report.records_for(0, "send")[0]
        assert send.duration < 0.5
        recv = report.records_for(1, "recv")[0]
        assert recv.end >= 1.0                # posted after the compute

    def test_any_source_receive(self, cluster):
        app = Application(num_tasks=3)
        app.add_send(1, 0, 1 * MB)
        app.add_send(2, 0, 1 * MB)
        app.add_recv(0, ANY_SOURCE)
        app.add_recv(0, ANY_SOURCE)
        report = simple_simulator(cluster).run(app, placement="RRN")
        recvs = report.records_for(0, "recv")
        assert {r.peer for r in recvs} == {1, 2}

    def test_barrier_synchronises_everyone(self, cluster):
        app = Application(num_tasks=3)
        app.add_compute(0, duration=1.0)
        app.add_compute(1, duration=0.1)
        app.add_compute(2, duration=0.5)
        app.add_barrier()
        app.add_compute(1, duration=0.1)
        report = simple_simulator(cluster).run(app, placement="RRN")
        barrier_end = report.records_for(1, "barrier")[0].end
        assert barrier_end == pytest.approx(1.0)
        assert report.task_time(1) == pytest.approx(1.1)

    def test_tags_separate_channels(self, cluster):
        """An eager tag-1 message parked at the receiver does not satisfy a tag-2 recv."""
        app = Application(num_tasks=2)
        app.add_send(0, 1, 4 * KiB, tag=1)    # eager: completes without a matching recv
        app.add_send(0, 1, 2 * MB, tag=2)     # rendezvous
        app.add_recv(1, 0, tag=2)
        app.add_recv(1, 0, tag=1)
        report = simple_simulator(cluster).run(app, placement="RRN")
        recvs = report.records_for(1, "recv")
        assert recvs[0].size == 2 * MB       # the tag-2 message matched the first recv
        assert recvs[1].size == 4 * KiB

    def test_deadlock_detected(self, cluster):
        """Each rank receives from the other before sending to it: every
        channel is matched, so the application validates, yet no receive
        can ever complete."""
        app = Application(num_tasks=2)
        app.add_recv(0, 1, 1 * MB)
        app.add_send(0, 1, 1 * MB)
        app.add_recv(1, 0, 1 * MB)
        app.add_send(1, 0, 1 * MB)
        app.validate()
        with pytest.raises(DeadlockError) as excinfo:
            simple_simulator(cluster).run(app, placement="RRN")
        assert set(excinfo.value.blocked_tasks) == {0, 1}

    def test_report_bookkeeping(self, cluster):
        app = Application(num_tasks=2, name="bookkeeping")
        app.add_send(0, 1, 1 * MB)
        app.add_recv(1, 0, 1 * MB)
        report = simple_simulator(cluster).run(app, placement="RRN")
        assert report.num_tasks == 2
        assert report.bytes_sent(0) == 1 * MB
        assert report.bytes_sent(1) == 0
        assert "bookkeeping" in report.summary()
        assert "task" in report.per_task_table()


class TestContentionTiming:
    def test_concurrent_sends_from_one_node_slow_down(self, cluster):
        """Two ranks on one node sending 20 MB each: the Ethernet model predicts 1.5x."""
        app = Application(num_tasks=4, name="outgoing-conflict")
        app.add_send(0, 2, 20 * MB)
        app.add_send(1, 3, 20 * MB)
        app.add_recv(2, 0, 20 * MB)
        app.add_recv(3, 1, 20 * MB)
        placement = user_defined_placement(cluster, [0, 0, 1, 2])
        sim = Simulator.predictive(cluster, model=GigabitEthernetModel())
        report = sim.run(app, placement=placement)
        sends = report.records_for(0, "send") + report.records_for(1, "send")
        assert all(s.penalty == pytest.approx(1.5, rel=0.01) for s in sends)

    def test_no_contention_model_keeps_unit_penalties(self, cluster):
        app = Application(num_tasks=4)
        app.add_send(0, 2, 20 * MB)
        app.add_send(1, 3, 20 * MB)
        app.add_recv(2, 0, 20 * MB)
        app.add_recv(3, 1, 20 * MB)
        placement = user_defined_placement(cluster, [0, 0, 1, 2])
        report = simple_simulator(cluster).run(app, placement=placement)
        assert report.average_penalty == pytest.approx(1.0, abs=1e-6)

    def test_emulated_and_predicted_agree_without_contention(self, cluster):
        app = Application(num_tasks=2)
        app.add_send(0, 1, 20 * MB)
        app.add_recv(1, 0, 20 * MB)
        predicted = Simulator.predictive(cluster).run(app, placement="RRN")
        emulated = Simulator.emulated(cluster).run(app, placement="RRN")
        assert predicted.communication_time(0) == pytest.approx(
            emulated.communication_time(0), rel=1e-6
        )

    def test_staggered_transfers_free_bandwidth(self, cluster):
        """When the short transfer ends, the long one accelerates (fluid dynamics)."""
        app = Application(num_tasks=4)
        app.add_send(0, 2, 30 * MB)
        app.add_send(1, 3, 10 * MB)
        app.add_recv(2, 0, 30 * MB)
        app.add_recv(3, 1, 10 * MB)
        placement = user_defined_placement(cluster, [0, 0, 1, 2])
        sim = Simulator.predictive(cluster, model=GigabitEthernetModel())
        report = sim.run(app, placement=placement)
        long_send = report.records_for(0, "send")[0]
        # penalty of the long transfer is an average between 1.5 (shared) and 1 (alone)
        assert 1.0 < long_send.penalty < 1.5


class TestMpiRuntime:
    def test_ring_program_runs(self, cluster):
        runtime = MpiRuntime.predictive(cluster)
        report = runtime.run(ring_program, num_tasks=6, placement="RRN", args=(2 * MB, 1))
        assert report.num_tasks == 6
        assert all(report.records_for(r, "send") for r in range(6))

    def test_fanout_program_reproduces_outgoing_conflict(self, cluster):
        runtime = MpiRuntime.predictive(cluster, model=MyrinetModel())
        placement = user_defined_placement(cluster, [0, 0, 1, 2])
        report = runtime.simulator.run_programs(
            [fanout_program(Rank(i, 4), 20 * MB, 2) for i in range(4)],
            placement=placement, num_tasks=4,
        )
        sends = [r for r in report.send_records]
        assert len(sends) == 2
        assert all(s.penalty == pytest.approx(2.0, rel=0.01) for s in sends)

    def test_recv_result_contains_actual_source(self, cluster):
        observed = {}

        def program(rank: Rank):
            if rank.id == 0:
                result = yield rank.recv()
                observed["source"] = result["source"]
            else:
                yield rank.send(0, 1 * MB)

        runtime = MpiRuntime.predictive(cluster)
        runtime.run(program, num_tasks=2, placement="RRN")
        assert observed["source"] == 1

    def test_non_generator_program_rejected(self, cluster):
        runtime = MpiRuntime.predictive(cluster)

        def not_a_generator(rank):
            return [rank.barrier()]

        with pytest.raises(Exception):
            runtime.run(not_a_generator, num_tasks=2)


class TestIterationBudgetDiagnostics:
    def test_budget_error_describes_the_stuck_state(self, cluster):
        """An engine that exhausts its budget reports time, task states and
        in-flight counts instead of a bare one-liner."""

        from repro.simulator.engine import ExecutionEngine
        from repro.simulator.events import ComputeEvent
        from repro.cluster import make_placement
        from repro.core import NoContentionModel
        from repro.simulator.providers import ModelRateProvider
        from repro.exceptions import SimulationError

        def forever():
            while True:
                yield ComputeEvent(duration=0.001)

        engine = ExecutionEngine(
            programs=[forever()],
            placement=make_placement("RRN", cluster, 1),
            rate_provider=ModelRateProvider(NoContentionModel(), "ethernet"),
            technology="ethernet",
            config=EngineConfig(iteration_factor=1),
        )
        with pytest.raises(SimulationError) as excinfo:
            engine.run()
        message = str(excinfo.value)
        assert "exceeded its iteration budget" in message
        assert "tasks by status" in message
        assert "ready=1" in message
        assert "in-flight transfers: 0" in message
        assert "t=" in message


class TestRankChecks:
    """Ranks are checked where events start, so the engine's direct
    rank -> node lookups never see one outside the placement."""

    @pytest.mark.parametrize("size", [1 * MB, 1 * KiB], ids=["rendezvous", "eager"])
    def test_program_sending_past_the_last_rank_raises_trace_error(self, cluster, size):
        def program(rank: Rank):
            if rank.id == 0:
                yield rank.send(2, size)  # ranks 0 and 1 only

        with pytest.raises(TraceError, match="unknown rank 2"):
            simple_simulator(cluster).run_programs(
                [program(Rank(i, 2)) for i in range(2)], placement="RRN", num_tasks=2,
            )


class TestMatchingOrder:
    def test_wildcard_recv_posted_first_wins(self, cluster):
        """A wildcard recv posted before a specific one matches first —
        posted-order tie-breaking across the wildcard/specific buckets."""
        app = Application(num_tasks=3)
        app.add_recv(0, ANY_SOURCE, tag=7)     # posted first
        app.add_recv(0, 2, tag=7)              # specific, posted second
        app.add_send(1, 0, 2 * MB, tag=7)
        app.add_send(2, 0, 2 * MB, tag=7)
        report = simple_simulator(cluster).run(app, placement="RRN")
        recvs = report.records_for(0, "recv")
        # rank 1's send (processed first) matches the wildcard recv
        assert recvs[0].peer == 1
        assert recvs[1].peer == 2

    def test_eager_arrivals_match_in_arrival_order(self, cluster):
        """Parked eager messages are consumed oldest-arrival-first."""
        app = Application(num_tasks=2)
        app.add_send(0, 1, 4 * KiB, tag=3, label="first")
        app.add_send(0, 1, 4 * KiB, tag=3, label="second")
        app.add_compute(1, duration=1.0)       # both messages park at rank 1
        app.add_recv(1, 0, tag=3)
        app.add_recv(1, 0, tag=3)
        report = simple_simulator(cluster).run(app, placement="RRN")
        recvs = report.records_for(1, "recv")
        assert [r.size for r in recvs] == [4 * KiB, 4 * KiB]
        sends = report.records_for(0, "send")
        assert sends[0].end <= sends[1].end

    def test_unclaimed_flight_attach_prefers_earliest_posted(self, cluster):
        """A late wildcard recv attaches to the earliest-posted in-flight
        transfer, not an arbitrary one."""
        app = Application(num_tasks=3)
        app.add_compute(2, duration=0.001)
        app.add_send(1, 0, 30 * MB, tag=1)     # rendezvous-size but recv below
        app.add_send(2, 0, 30 * MB, tag=1)     # posted ~0.001 s later
        app.add_recv(0, ANY_SOURCE, tag=1)
        app.add_recv(0, ANY_SOURCE, tag=1)
        report = simple_simulator(cluster).run(app, placement="RRN")
        recvs = report.records_for(0, "recv")
        assert recvs[0].peer == 1              # earliest posted send first


class TestDeltaEngineWork:
    def test_delta_mode_retimes_fewer_transfers(self, cluster):
        """On a contended workload the delta engine re-prices only dirtied
        components while the full-requery engine touches every transfer."""
        big = custom_cluster(num_nodes=16, cores_per_node=1, technology="ethernet")
        app = Application(num_tasks=16)
        for group in range(4):
            leader = group * 4
            # stagger the groups so one group's completions leave the other
            # groups' conflict components untouched
            for offset in range(4):
                app.add_compute(leader + offset, duration=0.003 * group)
            for member in range(1, 4):
                app.add_send(leader + member, leader, (5 + group) * MB, tag=group)
                app.add_recv(leader, member + leader, tag=group)
        outcomes = {}
        for delta in (True, False):
            sim = Simulator.predictive(
                big, model=GigabitEthernetModel(),
                config=EngineConfig(delta_rates=delta),
            )
            report = sim.run(app, placement="RRP")
            outcomes[delta] = (report.records, sim.last_engine_stats)
        records_delta, stats_delta = outcomes[True]
        records_full, stats_full = outcomes[False]
        assert records_delta == records_full
        assert stats_delta.calendar.rate_updates < stats_full.calendar.rate_updates


class TestTimelineOrder:
    """Entries due together leave the one timeline heap in a fixed order."""

    def test_same_time_computes_complete_in_rank_order(self, cluster):
        # rank 1's completion enters the heap at t=0, rank 0's at t=0.005;
        # both are due at t=0.01 and complete in rank order all the same
        app = Application(num_tasks=2)
        app.add_compute(0, duration=0.005)
        app.add_compute(0, duration=0.005)
        app.add_compute(1, duration=0.01)
        sim = simple_simulator(cluster)
        report = sim.run(app, placement="RRN")
        assert [(r.rank, r.start, r.end) for r in report.records] == [
            (0, 0.0, 0.005), (0, 0.005, 0.01), (1, 0.0, 0.01)]
        assert sim.last_engine_stats.steps == 2

    def test_entries_within_epsilon_complete_in_one_step(self, cluster):
        app = Application(num_tasks=3)
        app.add_compute(0, duration=0.01)
        app.add_compute(1, duration=0.01 + 1e-13)
        app.add_compute(2, duration=0.02)
        sim = simple_simulator(cluster)
        report = sim.run(app, placement="RRN")
        assert sim.last_engine_stats.steps == 2
        ends = {r.rank: r.end for r in report.records}
        assert ends[0] == ends[1] == 0.01
        assert ends[2] == 0.02

    def test_same_time_injector_events_fire_in_scheduling_order(self, cluster):
        class Probe:
            def __init__(self, name, times):
                self.name = name
                self.times = times

            def reset(self):
                self.pending = list(self.times)

            def next_event(self, now):
                return self.pending[0] if self.pending else None

            def apply(self, state):
                self.pending.pop(0)

        # both are due at t=0.006: injector 1 scheduled that event at
        # t=0.002, before injector 0 did at t=0.004, so it fires first
        probes = (Probe("a", [0.004, 0.006]), Probe("b", [0.002, 0.006]))
        app = Application(num_tasks=2)
        app.add_compute(0, duration=0.01)
        app.add_compute(1, duration=0.01)
        sink = MemoryTraceSink()
        config = EngineConfig(injectors=probes, trace=sink)
        Simulator.predictive(cluster, model=NoContentionModel(),
                             config=config).run(app, placement="RRN")
        fired = [(r.time, r.subject) for r in sink.records if r.kind == "inject.apply"]
        assert fired == [(0.002, "b"), (0.004, "a"), (0.006, "b"), (0.006, "a")]
