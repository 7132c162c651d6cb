"""Tests for events, task traces and applications."""

from __future__ import annotations

import pytest

from repro.cluster import custom_cluster
from repro.core import NoContentionModel
from repro.exceptions import TraceError
from repro.simulator import (
    ANY_SOURCE,
    Application,
    BarrierEvent,
    ComputeEvent,
    RecvEvent,
    SendEvent,
    Simulator,
)
from repro.simulator.events import validate_event
from repro.units import MB


class TestEvents:
    def test_compute_needs_duration_or_flops(self):
        with pytest.raises(TraceError):
            ComputeEvent()
        assert ComputeEvent(duration=1.0).duration == 1.0
        assert ComputeEvent(flops=1e9).flops == 1e9

    def test_compute_rejects_negative(self):
        with pytest.raises(TraceError):
            ComputeEvent(duration=-1.0)
        with pytest.raises(TraceError):
            ComputeEvent(flops=-1.0)

    def test_send_validation(self):
        with pytest.raises(TraceError):
            SendEvent(dst=-1, size=10)
        with pytest.raises(TraceError):
            SendEvent(dst=1, size=-10)

    def test_recv_accepts_any_source(self):
        event = RecvEvent()
        assert event.src == ANY_SOURCE

    def test_validate_event_bounds(self):
        with pytest.raises(TraceError):
            validate_event(SendEvent(dst=5, size=1), num_tasks=4, rank=0)
        with pytest.raises(TraceError):
            validate_event(SendEvent(dst=1, size=1), num_tasks=4, rank=1)  # self send
        with pytest.raises(TraceError):
            validate_event(RecvEvent(src=9), num_tasks=4, rank=0)
        validate_event(BarrierEvent(), num_tasks=4, rank=0)  # no error


class TestApplication:
    def test_build_and_access(self):
        app = Application(num_tasks=3, name="demo")
        app.add_send(0, 1, 1 * MB)
        app.add_recv(1, 0, 1 * MB)
        app.add_compute(2, duration=0.5)
        assert app.trace(0).num_sends == 1
        assert app.trace(1).num_recvs == 1
        assert app.trace(2).compute_seconds == 0.5
        assert app.total_messages == 1
        assert app.total_bytes == 1 * MB

    def test_invalid_rank(self):
        app = Application(num_tasks=2)
        with pytest.raises(TraceError):
            app.trace(5)
        with pytest.raises(TraceError):
            app.add_send(0, 5, 1)

    def test_needs_at_least_one_task(self):
        with pytest.raises(TraceError):
            Application(num_tasks=0)

    def test_barrier_is_global(self):
        app = Application(num_tasks=4)
        app.add_barrier()
        assert all(isinstance(trace.events[0], BarrierEvent) for trace in app)

    def test_pairwise_exchange(self):
        app = Application(num_tasks=2)
        app.add_pairwise_exchange(0, 1, 2 * MB)
        assert app.trace(0).num_sends == 1
        assert app.trace(1).num_recvs == 1

    def test_from_events(self):
        app = Application.from_events([
            [SendEvent(dst=1, size=100)],
            [RecvEvent(src=0)],
        ])
        assert app.num_tasks == 2
        app.validate()

    def test_validate_detects_missing_send(self):
        app = Application(num_tasks=2)
        app.add_recv(1, 0, 100)
        with pytest.raises(TraceError):
            app.validate()

    def test_validate_detects_unmatched_wildcard(self):
        app = Application(num_tasks=3)
        app.add_recv(2)            # wildcard with no send at all
        with pytest.raises(TraceError):
            app.validate()

    def test_validate_accepts_wildcard_covered_by_sends(self):
        app = Application(num_tasks=3)
        app.add_send(0, 2, 100)
        app.add_send(1, 2, 100)
        app.add_recv(2)
        app.add_recv(2)
        app.validate()

    def test_validate_checks_wildcards_per_tag(self):
        """Tag 1's wildcards are covered; tag 2's lone send is claimed by an
        explicit receive, and sends to other ranks or tags never count."""
        app = Application(num_tasks=4, name="tags")
        app.add_send(0, 2, 100, tag=1)
        app.add_send(1, 2, 100, tag=1)
        app.add_send(0, 2, 100, tag=2)
        app.add_send(1, 3, 100, tag=2)
        app.add_send(3, 2, 100, tag=3)
        app.add_recv(2, tag=1)
        app.add_recv(2, tag=1)
        app.add_recv(2, 0, 100, tag=2)
        app.add_recv(2, tag=2)
        app.add_recv(3, 1, 100, tag=2)
        app.add_recv(2, 3, 100, tag=3)
        with pytest.raises(TraceError) as excinfo:
            app.validate()
        assert str(excinfo.value) == (
            "application 'tags': rank 2 posts 1 wildcard receives (tag 2) "
            "but only 0 unmatched sends exist"
        )
        app.add_send(3, 2, 100, tag=2)
        app.validate()

    def test_validate_accepts_matched_channels(self):
        app = Application(num_tasks=2)
        app.add_send(0, 1, 100, tag=7)
        app.add_recv(1, 0, 100, tag=7)
        app.validate()

    def test_describe(self):
        app = Application(num_tasks=2, name="demo")
        app.add_send(0, 1, 100)
        app.add_recv(1, 0, 100)
        text = app.describe()
        assert "demo" in text and "rank 0" in text


def exchange_app() -> Application:
    app = Application(num_tasks=2, name="exchange")
    app.add_compute(0, duration=0.5)
    app.add_pairwise_exchange(0, 1, 1 * MB)
    return app


def run(app: Application):
    cluster = custom_cluster(num_nodes=2, cores_per_node=1, technology="ethernet")
    return Simulator.predictive(cluster, model=NoContentionModel()).run(app)


MUTATORS = {
    "add_event": lambda app: app.add_event(0, ComputeEvent(duration=1.0)),
    "add_compute": lambda app: app.add_compute(0, duration=1.0),
    "add_send": lambda app: app.add_send(0, 1, 100),
    "add_recv": lambda app: app.add_recv(1, 0, 100),
    "add_barrier": lambda app: app.add_barrier(),
    "add_pairwise_exchange": lambda app: app.add_pairwise_exchange(0, 1, 100),
    "TaskTrace.append": lambda app: app.trace(0).append(BarrierEvent()),
    "TaskTrace.extend": lambda app: app.trace(1).extend([BarrierEvent()]),
}


class TestFrozenApplication:
    @pytest.mark.parametrize("how", ["freeze", "run"])
    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_every_mutator_rejects_a_frozen_application(self, mutator, how):
        app = exchange_app()
        if how == "freeze":
            assert app.freeze() is app
        else:
            run(app)
        assert app.frozen
        before = [trace.events for trace in app]
        with pytest.raises(TraceError):
            MUTATORS[mutator](app)
        assert [trace.events for trace in app] == before
        assert all(isinstance(trace.events, tuple) for trace in app)

    def test_application_is_validated_once_however_often_it_runs(self, monkeypatch):
        calls = []
        original = Application.validate

        def counting(app):
            calls.append(app)
            original(app)

        monkeypatch.setattr(Application, "validate", counting)
        app = exchange_app()
        first = run(app)
        second = run(app)
        assert calls == [app]
        assert second.total_time == first.total_time

    def test_invalid_application_raises_at_its_first_run(self):
        app = Application(num_tasks=2, name="unmatched")
        app.add_recv(1, 0, 100)
        with pytest.raises(TraceError):
            run(app)
        assert not app.frozen
        app.add_send(0, 1, 100)  # still buildable: the failed run froze nothing
        assert run(app).total_time > 0
