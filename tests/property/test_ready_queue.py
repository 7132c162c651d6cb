"""Property-based tests: the ready queue advances tasks in the scan's order.

:class:`~repro.simulator.engine.ExecutionEngine` keeps its READY ranks in a
rank-ordered queue split into the current pass and the next one, and keeps
alive/computing counters, instead of walking every task on every step.
``ScanEngine`` below restores the historical walk — each sweep rescans the
task list in rank order until a pass finds nothing ready, and a barrier
releases after a rebuild of the alive list — and checks the counters
against a scan after every sweep.  Both engines must produce **identical**
event records (compared in order), finish times, engine statistics and
deadlock reports.

The inputs extend the random applications of
``tests/property/test_calendar_engine.py`` with the cases where visit order
decides the outcome: ranks whose programs end while the others wait at a
barrier, eager messages that arrive before their receive is posted, and
``MPI_ANY_SOURCE`` fan-ins right after a barrier release, whose matches
follow the order in which the senders are advanced.
"""

from __future__ import annotations

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings
from test_calendar_engine import (
    LOADS,
    build_application,
    make_load,
    make_provider,
    workload_strategy,
)

from repro.cluster import custom_cluster, make_placement
from repro.exceptions import DeadlockError
from repro.mpi.api import Rank
from repro.simulator import ANY_SOURCE, EngineConfig, NodeSlowdownInjector, Simulator
from repro.simulator import simulator as simulator_module
from repro.simulator.engine import ExecutionEngine, _Status
from repro.simulator.events import BarrierEvent
from repro.trace import MemoryTraceSink, assert_traces_equal
from repro.units import KiB, MB

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
loaded_settings = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class ScanEngine(ExecutionEngine):
    """The historical engine loop: every sweep rescans all tasks."""

    def _make_ready(self, task, resume_value):
        task.status = _Status.READY
        task.resume_value = resume_value

    def _process_ready_tasks_impl(self):
        progressed = False
        made_progress = True
        while made_progress:
            made_progress = False
            for task in self.tasks:
                if task.status is not _Status.READY:
                    continue
                event = self._advance_program(task)
                if event is None:
                    self._finish_task(task)
                    self._maybe_release_barrier()
                else:
                    self._start_event(task, event)
                progressed = True
                made_progress = True
        # the counters run() and _next_horizon read must match the scan
        statuses = [task.status for task in self.tasks]
        assert self._alive == sum(s is not _Status.DONE for s in statuses)
        assert self._computing == statuses.count(_Status.COMPUTING)
        return progressed

    def _maybe_release_barrier(self):
        alive = [t for t in self.tasks if t.status is not _Status.DONE]
        if alive and all(t.status is _Status.BARRIER for t in alive):
            for task in alive:
                start = self.barrier_waiting.pop(task.rank)
                label = ""
                if isinstance(task.current_event, BarrierEvent):
                    label = task.current_event.label
                self._record(task.rank, "barrier", start, self.now, label=label)
                self._make_ready(task, {"kind": "barrier"})


def outcome(simulate):
    """Records, finish times and engine stats of one ``simulate()`` call."""
    simulator, report = simulate()
    return report.records, report.finish_time_per_task, simulator.last_engine_stats


def queue_and_scan(simulate):
    """``outcome(simulate)`` under the ready-queue engine and under the scan."""
    queued = outcome(simulate)
    with mock.patch.object(simulator_module, "ExecutionEngine", ScanEngine):
        scanned = outcome(simulate)
    return queued, scanned


# the three order-sensitive phases appended to a random application
phase_strategy = st.one_of(
    # eager messages sent before the receiver, busy computing, posts the recv
    st.tuples(st.just("eager"), st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 40)),
        min_size=1, max_size=3)),
    # barrier, then every other rank sends to a root posting wildcard recvs
    st.tuples(st.just("fan_in"), st.integers(0, 5),
              st.lists(st.booleans(), min_size=1, max_size=5)),
    # one rank computes and ends while the others wait at a barrier
    st.tuples(st.just("retire"), st.integers(0, 5), st.integers(1, 40)),
)
ready_strategy = st.fixed_dictionaries({
    "base": workload_strategy,
    "phases": st.lists(phase_strategy, min_size=1, max_size=4),
})


def barrier(app, ranks, label):
    for rank in ranks:
        app.add_event(rank, BarrierEvent(label=label))


def build_ready_application(spec):
    """A random ``build_application`` workload followed by ordered phases."""
    app = build_application(spec["base"])
    alive = list(range(app.num_tasks))
    tag = 1000  # above every round tag of the base workload
    for kind, *args in spec["phases"]:
        if len(alive) < 2:
            break
        if kind == "eager":
            messages = []
            for a, b, ticks in args[0]:
                src, dst = alive[a % len(alive)], alive[b % len(alive)]
                if src != dst:
                    tag += 1
                    messages.append((src, dst, ticks, tag))
            # every rank sends before it receives: eager sends never block
            for src, dst, _, msg_tag in messages:
                app.add_send(src, dst, 4 * KiB, tag=msg_tag)
            for src, dst, ticks, msg_tag in messages:
                app.add_compute(dst, duration=ticks * 0.0125)
                app.add_recv(dst, src, 4 * KiB, tag=msg_tag)
        elif kind == "fan_in":
            root_index, sizes = args
            root = alive[root_index % len(alive)]
            senders = [rank for rank in alive if rank != root][:len(sizes)]
            tag += 1
            barrier(app, alive, "fan-in")
            for sender, large in zip(senders, sizes):
                app.add_send(sender, root, 2 * MB if large else 4 * KiB, tag=tag)
            for _ in senders:
                app.add_recv(root, ANY_SOURCE, tag=tag)
        else:
            index, ticks = args
            leaver = alive.pop(index % len(alive))
            app.add_compute(leaver, duration=ticks * 0.0125)
            barrier(app, alive, "after-retire")
    return app


def simulate_application(app, base, config=None, trace=None):
    cluster = custom_cluster(num_nodes=3, cores_per_node=2, technology="ethernet")

    def simulate():
        simulator = Simulator(cluster, make_provider("model", cluster),
                              config=config, trace=trace)
        placement = make_placement(base["policy"], cluster, app.num_tasks,
                                   seed=base["seed"])
        return simulator, simulator.run(app, placement=placement)

    return simulate


class TestReadyQueueMatchesScan:
    @common_settings
    @given(spec=ready_strategy)
    def test_records_finish_times_and_stats_identical(self, spec):
        app = build_ready_application(spec)
        queued, scanned = queue_and_scan(simulate_application(app, spec["base"]))
        assert queued == scanned

    @loaded_settings
    @given(spec=ready_strategy, load=st.sampled_from(LOADS))
    def test_identical_under_injectors(self, spec, load):
        """Background flows or degradation windows plus a compute slowdown
        window; the traces (task states in visit order) match too."""
        app = build_ready_application(spec)
        seed = spec["base"]["seed"]
        sinks = []

        def simulate():
            sink = MemoryTraceSink()
            sinks.append(sink)
            injectors = make_load(load, seed) + (
                NodeSlowdownInjector(0.5, start=0.01, until=0.05, hosts=(0,)),)
            config = EngineConfig(injectors=injectors)
            return simulate_application(app, spec["base"], config=config,
                                        trace=sink)()

        queued, scanned = queue_and_scan(simulate)
        assert queued == scanned
        assert_traces_equal(sinks[0].log(), sinks[1].log(),
                            label_a="queue", label_b="scan")

    @common_settings
    @given(num_tasks=st.integers(2, 8),
           ticks=st.lists(st.integers(0, 3), min_size=8, max_size=8),
           large=st.booleans())
    def test_generator_programs_identical(self, num_tasks, ticks, large):
        """``Simulator.run_programs``: the root answers whichever sender its
        wildcard receive matched, so resume values follow visit order."""
        cluster = custom_cluster(num_nodes=4, cores_per_node=2,
                                 technology="ethernet")

        def program(rank: Rank):
            for step in range(2):
                yield rank.compute(seconds=ticks[rank.id] * 0.0125)
                if rank.id == 0:
                    for _ in range(rank.world_size - 1):
                        got = yield rank.recv(tag=step)
                        yield rank.send(got["source"], 4 * KiB, tag=100 + step)
                else:
                    yield rank.send(0, 2 * MB if large else 4 * KiB, tag=step)
                    yield rank.recv(source=0, tag=100 + step)
                yield rank.barrier()

        def simulate():
            simulator = Simulator(cluster, make_provider("model", cluster))
            programs = [program(Rank(r, num_tasks)) for r in range(num_tasks)]
            return simulator, simulator.run_programs(
                programs, placement="RRN", num_tasks=num_tasks)

        queued, scanned = queue_and_scan(simulate)
        assert queued == scanned


class TestDeadlockReportsMatchScan:
    @pytest.mark.parametrize("loaded", [False, True], ids=["clean", "loaded"])
    @common_settings
    @given(spec=ready_strategy, pair=st.tuples(st.integers(0, 5), st.integers(0, 5)))
    def test_blocked_tasks_identical(self, loaded, spec, pair):
        """Two ranks deadlock in a rendezvous send cycle; the others wait
        at a barrier or have ended.  Loaded runs keep the timeline busy
        with background flows, so the deadlock surfaces through the
        COMPUTING counter instead of an empty calendar."""
        app = build_ready_application(spec)
        num_tasks = app.num_tasks
        a, b = pair[0] % num_tasks, pair[1] % num_tasks
        if a == b:
            b = (a + 1) % num_tasks
        for src, dst in ((a, b), (b, a)):
            app.add_send(src, dst, 2 * MB, tag=999)
        for src, dst in ((a, b), (b, a)):
            app.add_recv(dst, src, 2 * MB, tag=999)
        barrier(app, [r for r in range(num_tasks) if r not in (a, b) and r % 2],
                "stuck")
        config = None
        if loaded:
            config = EngineConfig(injectors=make_load("background",
                                                      spec["base"]["seed"]))
        simulate = simulate_application(app, spec["base"], config=config)
        reports = []
        for engine in (ExecutionEngine, ScanEngine):
            with mock.patch.object(simulator_module, "ExecutionEngine", engine):
                with pytest.raises(DeadlockError) as caught:
                    simulate()
            reports.append((caught.value.blocked_tasks, str(caught.value)))
        assert reports[0] == reports[1]
        assert {a, b} <= set(reports[0][0])
