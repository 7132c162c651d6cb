"""Unit tests for the unified metrics registry and its phase timers."""

from __future__ import annotations

import threading

import pytest

from repro.obs import MetricsRegistry, PhaseTimer
from repro.trace import KNOWN_KINDS


class TestInstruments:
    def test_timer_tracks_streaming_moments(self):
        timer = PhaseTimer("latency_s")
        for value in (2.0, 1.0, 4.0):
            timer.observe(value)
        assert timer.count == 3
        assert timer.total == 7.0
        assert timer.mean == pytest.approx(7.0 / 3)
        assert timer.min == 1.0
        assert timer.max == 4.0
        snap = timer.snapshot()
        assert snap["latency_s.count"] == 3
        assert snap["latency_s.total"] == 7.0
        assert snap["latency_s.min"] == 1.0
        assert snap["latency_s.max"] == 4.0

    def test_empty_timer_snapshots_zeroes(self):
        snap = PhaseTimer("empty").snapshot()
        assert snap == {"empty.count": 0, "empty.total": 0.0, "empty.mean": 0.0,
                        "empty.min": 0.0, "empty.max": 0.0}


class TestRegistry:
    def test_create_or_get_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.timer("flush_s") is registry.timer("flush_s")
        assert registry.timer("flush_s") is not registry.timer("solve_s")

    def test_snapshot_flattens_instruments_and_sources(self):
        registry = MetricsRegistry()
        registry.timer("flush_s").observe(0.5)
        registry.register_source("cache", lambda: {"hits": 9, "misses": 1,
                                                   "policy": "lru",
                                                   "warm": True})
        snap = registry.snapshot()
        assert snap["flush_s.count"] == 1
        assert snap["flush_s.total"] == 0.5
        assert snap["cache.hits"] == 9
        assert snap["cache.misses"] == 1
        # non-numeric source values (strings, bools) are dropped
        assert "cache.policy" not in snap
        assert "cache.warm" not in snap
        assert list(snap) == sorted(snap)

    def test_sources_are_read_lazily_and_replaceable(self):
        registry = MetricsRegistry()
        state = {"n": 0}
        registry.register_source("live", lambda: {"n": state["n"]})
        assert registry.snapshot()["live.n"] == 0
        state["n"] = 5
        assert registry.snapshot()["live.n"] == 5
        registry.register_source("live", lambda: {"n": -1})
        assert registry.snapshot()["live.n"] == -1

    def test_concurrent_registration_shares_one_timer_per_name(self):
        registry = MetricsRegistry()
        start = threading.Barrier(4)
        seen = []

        def register(index):
            start.wait()
            for _ in range(200):
                seen.append(registry.timer("shared_s"))
            registry.register_source(f"worker{index}", lambda: {"index": index})

        threads = [threading.Thread(target=register, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 800
        assert all(timer is seen[0] for timer in seen)
        snap = registry.snapshot()
        assert [snap[f"worker{index}.index"] for index in range(4)] == [0, 1, 2, 3]

    def test_sample_record_is_a_known_trace_kind(self):
        registry = MetricsRegistry()
        registry.timer("flush_s").observe(0.25)
        record = registry.sample_record(1.5)
        assert record.kind == "metrics.sample"
        assert record.kind in KNOWN_KINDS
        assert record.time == 1.5
        assert record.subject is None
        assert record.data == registry.snapshot()
        assert record.data["flush_s.count"] == 1
