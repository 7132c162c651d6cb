"""Regression tests for the TransferCalendar bugfixes.

Covers the three historical defects fixed together with the interference
subsystem: the unbounded lazy-deletion heap (no compaction), the lost
pending delta when a provider raises mid-flush, and the silent starvation
of zero-rated flights in delta mode.  Also pins the corners a random
workload rarely hits: compaction on cancel-heavy workloads (which create
stale heap entries without ever re-timing), zero→nonzero, infinite and
mixed rates, cancel-then-reprice, transfer-id reuse, the flush timer,
and — on both real providers — id reuse after cancel, the
zero-rate stall retry and a rate-scale window, each checked against the
full re-query calendar (``delta=False``, what
``EngineConfig(delta_rates=False)`` runs).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import GigabitEthernetModel
from repro.exceptions import ReproError, SimulationError
from repro.network.allocator import EmulatorRateProvider
from repro.network.fluid import Transfer, TransferCalendar
from repro.network.technologies import get_technology
from repro.network.topology import CrossbarTopology
from repro.obs import MetricsRegistry
from repro.simulator.providers import ModelRateProvider


class SteppedRateProvider:
    """Full-set provider whose rates change on every query (forces re-timing)."""

    def __init__(self):
        self.calls = 0

    def rates(self, active):
        self.calls += 1
        return {t.transfer_id: 100.0 + self.calls for t in active}


class DeltaEcho:
    """Minimal conforming delta provider: one rate per call, reports the delta.

    ``script`` maps an update-call number (1-based) to the rate every added
    transfer gets on that call; other calls use ``rate``.
    """

    def __init__(self, rate=100.0, script=None):
        self.rate = rate
        self.script = dict(script or {})
        self.active = set()
        self.updates = []

    def update(self, added, removed):
        self.updates.append(([t.transfer_id for t in added], list(removed)))
        rate = self.script.get(len(self.updates), self.rate)
        for tid in removed:
            self.active.discard(tid)
        changed = {}
        for transfer in added:
            self.active.add(transfer.transfer_id)
            changed[transfer.transfer_id] = rate
        return changed

    # test double: rates() prices at the unscripted rate (only the
    # delta=True tests script rates, and they never call it), and routing
    # through update() would pollute the update-call ledger
    # repro-check: ignore[RC04] — deliberate independent rates() in a test double
    def rates(self, active):
        return {t.transfer_id: self.rate for t in active}

    def reset(self):
        self.active = set()


class TestHeapCompaction:
    def test_long_churn_run_bounds_the_heap(self):
        """Frequent rate changes must not grow the heap without bound."""
        provider = SteppedRateProvider()
        calendar = TransferCalendar(provider, delta=False)
        num_flights = 40
        for i in range(num_flights):
            calendar.activate(Transfer(i, 0, 1, 1e9), now=0.0)
        # every flush re-rates every flight (the provider's rates creep), so
        # without compaction the heap would hold ~rounds * flights entries
        rounds = 200
        for round_no in range(rounds):
            calendar.flush(float(round_no) * 1e-3)
        bound = max(TransferCalendar.COMPACT_MIN_HEAP, 2 * calendar.active_count + 1)
        assert len(calendar._heap) <= bound
        assert calendar.stats.compactions > 0
        # compacted entries count as discarded stale entries: of the
        # rounds*flights pushes, all but the live ones died as stale
        assert calendar.stats.retimed == rounds * num_flights
        assert calendar.stats.stale_entries >= calendar.stats.retimed - len(calendar._heap)

    def test_small_heaps_are_never_compacted(self):
        provider = SteppedRateProvider()
        calendar = TransferCalendar(provider, delta=False)
        calendar.activate(Transfer("a", 0, 1, 1e9), now=0.0)
        for round_no in range(20):
            calendar.flush(float(round_no) * 1e-3)
        assert calendar.stats.compactions == 0

    def test_compaction_preserves_completion_order(self):
        provider = SteppedRateProvider()
        calendar = TransferCalendar(provider, delta=False)
        sizes = {i: 1000.0 * (i + 1) for i in range(50)}
        for i, size in sizes.items():
            calendar.activate(Transfer(i, 0, 1, size), now=0.0)
        for round_no in range(100):
            calendar.flush(float(round_no) * 1e-6)
        assert calendar.stats.compactions > 0
        done = calendar.pop_due(1e9)
        # same rate for everyone: completion must come back ordered by size
        assert [t.transfer_id for t in done] == sorted(sizes, key=sizes.get)


class RaisingProvider:
    """Delta provider that raises on its first N update calls."""

    def __init__(self, failures=1):
        self.failures = failures
        self.calls = 0
        self.applied = []

    def update(self, added, removed):
        self.calls += 1
        if self.calls <= self.failures:
            raise SimulationError("provider exploded mid-flush")
        self.applied.append(([t.transfer_id for t in added], list(removed)))
        return {t.transfer_id: 100.0 for t in added}


class TestFlushAtomicity:
    def test_raising_delta_provider_keeps_the_pending_delta(self):
        provider = RaisingProvider(failures=1)
        calendar = TransferCalendar(provider, delta=True)
        calendar.activate(Transfer("a", 0, 1, 1000.0), now=0.0)
        with pytest.raises(SimulationError):
            calendar.flush(0.0)
        # the delta was not lost: the retry hands the provider the same delta
        calendar.flush(0.0)
        assert provider.applied == [(["a"], [])]
        assert calendar.next_time() == pytest.approx(10.0)

    def test_raising_full_provider_keeps_the_pending_delta(self):
        class FullRaising:
            def __init__(self):
                self.calls = 0

            def rates(self, active):
                self.calls += 1
                if self.calls == 1:
                    raise SimulationError("boom")
                return {t.transfer_id: 100.0 for t in active}

        calendar = TransferCalendar(FullRaising(), delta=False)
        calendar.activate(Transfer("a", 0, 1, 1000.0), now=0.0)
        with pytest.raises(SimulationError):
            calendar.flush(0.0)
        assert "a" in calendar._pending_added  # still queued
        calendar.flush(0.0)
        assert calendar.next_time() == pytest.approx(10.0)

    @pytest.mark.parametrize("provider_factory", [
        lambda: ModelRateProvider(GigabitEthernetModel(), "ethernet"),
        lambda: EmulatorRateProvider(get_technology("ethernet"), num_hosts=4),
    ], ids=["model", "emulator"])
    def test_shipped_providers_validate_before_mutating(self, provider_factory):
        """A rejected delta leaves the provider retryable (nothing half-applied)."""
        provider = provider_factory()
        provider.update([Transfer("a", 0, 1, 1000.0)], [])
        before = dict(provider.rates([Transfer("a", 0, 1, 1000.0)]))
        with pytest.raises(SimulationError):
            # removal of "a" is valid, the duplicate add is not: the provider
            # must reject the delta without untracking "a"
            provider.update([Transfer("b", 2, 3, 1000.0),
                             Transfer("b", 2, 3, 1000.0)], ["a"])
        retry = provider.update([Transfer("b", 2, 3, 1000.0)], ["a"])
        assert set(retry) == {"b"}
        assert provider.rates([Transfer("b", 2, 3, 1000.0)])
        assert before  # sanity: the first allocation existed

    def test_departures_survive_a_raising_provider(self):
        provider = DeltaEcho()
        calendar = TransferCalendar(provider, delta=True)
        calendar.activate(Transfer("a", 0, 1, 1000.0), now=0.0)
        calendar.flush(0.0)
        assert calendar.pop_due(10.0)  # "a" completes, departure queued
        raising = RaisingProvider(failures=1)
        calendar.provider = raising
        calendar.activate(Transfer("b", 0, 1, 1000.0), now=10.0)
        with pytest.raises(SimulationError):
            calendar.flush(10.0)
        calendar.flush(10.0)
        assert raising.applied == [(["b"], ["a"])]


class UnderReportingProvider:
    """Delta provider that 'forgets' to report a chosen transfer's rate.

    Models the bug scenario: the calendar zero-rates the unreported flight
    (missing_rate="zero") and, before the fix, nothing would ever re-rate it
    unless an unrelated delta dirtied its component.  The provider answers
    the retry cycle only once ``allow`` is set, so the test can observe both
    the immediate retry and the next-flush recovery.
    """

    def __init__(self, silent_tid):
        self.silent_tid = silent_tid
        self.allow = False

    def update(self, added, removed):
        changed = {}
        for transfer in added:
            if transfer.transfer_id == self.silent_tid and not self.allow:
                continue
            rate = 50.0 if transfer.transfer_id == self.silent_tid else 100.0
            changed[transfer.transfer_id] = rate
        return changed

    def reset(self):
        pass


class TestZeroRateStall:
    def test_stalled_flight_is_rerated_on_later_flushes(self):
        provider = UnderReportingProvider(silent_tid="slow")
        calendar = TransferCalendar(provider, delta=True, missing_rate="zero")
        calendar.activate(Transfer("slow", 0, 1, 1000.0), now=0.0)
        calendar.flush(0.0)
        # the flush retried the zero-rated flight once already (remove+add
        # cycle); the provider still refused, so it stays tracked as stalled
        assert calendar.stalled_ids() == ("slow",)
        assert calendar.stats.stall_retries == 1
        assert calendar.next_time() is None
        # once the provider can answer, the very next flush re-rates it —
        # even though no arrival or departure is pending
        provider.allow = True
        calendar.flush(1.0)
        assert calendar.stalled_ids() == ()
        assert calendar.stats.stall_retries == 2
        assert calendar.next_time() == pytest.approx(1.0 + 1000.0 / 50.0)

    def test_engine_stall_diagnostic_names_the_transfer(self):
        """With no event able to re-rate the flight, fail fast and name it."""
        from repro.cluster import custom_cluster
        from repro.simulator import Application, Simulator
        from repro.units import MB

        class AlwaysSilent:
            def update(self, added, removed):
                return {}

            def reset(self):
                pass

        cluster = custom_cluster(num_nodes=2, cores_per_node=1,
                                 technology="ethernet")
        app = Application(num_tasks=2)
        app.add_send(0, 1, 1 * MB, tag=1)
        app.add_recv(1, 0, 1 * MB, tag=1)
        sim = Simulator(cluster, AlwaysSilent())
        with pytest.raises(SimulationError) as excinfo:
            sim.run(app, placement="RRN")
        message = str(excinfo.value)
        assert "zero rate" in message
        assert "stalled" in message


class TestCancel:
    def test_cancel_before_flush_never_reaches_the_provider(self):
        provider = DeltaEcho()
        calendar = TransferCalendar(provider, delta=True)
        calendar.activate(Transfer("a", 0, 1, 1000.0), now=0.0)
        calendar.cancel("a", 0.0)
        calendar.flush(0.0)
        assert provider.updates == []  # nothing pending: no update issued
        assert calendar.active_count == 0
        assert calendar.stats.cancelled == 1

    def test_cancel_after_flush_is_a_departure(self):
        provider = DeltaEcho()
        calendar = TransferCalendar(provider, delta=True)
        calendar.activate(Transfer("a", 0, 1, 1000.0), now=0.0)
        calendar.flush(0.0)
        calendar.cancel("a", 1.0)
        calendar.activate(Transfer("b", 0, 1, 1000.0), now=1.0)
        calendar.flush(1.0)
        assert provider.updates[-1] == (["b"], ["a"])
        assert calendar.next_time() == pytest.approx(11.0)
        assert calendar.pop_due(11.0)[0].transfer_id == "b"

    def test_cancel_unknown_transfer_fails(self):
        calendar = TransferCalendar(DeltaEcho(), delta=True)
        with pytest.raises(SimulationError):
            calendar.cancel("ghost", 0.0)


class TestCancelCompaction:
    def test_cancel_heavy_workload_bounds_the_heap(self):
        """Mass cancellation compacts the heap even though nothing re-times.

        A cancel-heavy workload (interference injectors tearing down
        background flows) creates stale entries without a single re-timing,
        so compaction must be checked by ``cancel()`` itself.
        """
        calendar = TransferCalendar(DeltaEcho(), delta=True)
        num_flights = 200
        for i in range(num_flights):
            calendar.activate(Transfer(i, 0, 1, 1e9), now=0.0)
        calendar.flush(0.0)
        assert len(calendar._heap) == num_flights
        # constant rates: the only heap churn from here on is cancellation
        retimed_before = calendar.stats.retimed
        for i in range(150):
            calendar.cancel(i, 1.0)
        assert calendar.stats.retimed == retimed_before
        bound = max(TransferCalendar.COMPACT_MIN_HEAP,
                    2 * calendar.active_count + 1)
        assert len(calendar._heap) <= bound
        assert calendar.stats.compactions > 0
        # the survivors still complete, in activation order (equal rates)
        done = calendar.pop_due(1e9)
        assert [t.transfer_id for t in done] == list(range(150, num_flights))

    def test_small_cancel_runs_never_compact(self):
        calendar = TransferCalendar(DeltaEcho(), delta=True)
        for i in range(8):
            calendar.activate(Transfer(i, 0, 1, 1e9), now=0.0)
        calendar.flush(0.0)
        for i in range(6):
            calendar.cancel(i, 1.0)
        assert calendar.stats.compactions == 0


class TestDegenerateRates:
    def test_zero_rates_then_nonzero(self):
        """A whole changed set stalling at rate zero recovers on the next flush."""
        # call 1 (the flush) zero-rates everything; call 2 (the stall retry
        # inside the same flush) still refuses; call 3 (the next flush's
        # retry) re-rates at the default
        calendar = TransferCalendar(DeltaEcho(script={1: 0.0, 2: 0.0}),
                                    delta=True)
        for i in range(6):
            calendar.activate(Transfer(i, 0, 1, 1000.0), now=0.0)
        calendar.flush(0.0)
        assert calendar.stalled_ids() == tuple(range(6))
        assert calendar.next_time() is None
        calendar.flush(1.0)
        assert calendar.stalled_ids() == ()
        assert calendar.next_time() == pytest.approx(11.0)
        assert [t.transfer_id for t in calendar.pop_due(11.0)] == list(range(6))
        assert calendar.stats.stall_retries == 12
        assert calendar.stats.retimed == 6

    def test_infinite_rates_complete_immediately(self):
        """rate=inf predicts completion *now* without fp warnings."""
        with np.errstate(invalid="raise", over="raise"):
            calendar = TransferCalendar(DeltaEcho(rate=math.inf), delta=True)
            for i in range(8):
                calendar.activate(Transfer(i, 0, 1, 1e12), now=0.0)
            calendar.flush(0.0)
            assert calendar.next_time() == pytest.approx(0.0)
            done = calendar.pop_due(0.0)
        assert [t.transfer_id for t in done] == list(range(8))

    def test_mixed_zero_and_infinite_rates(self):
        """One changed set mixing stalls, instant finishers and finite rates."""
        rates = {0: 0.0, 1: math.inf, 2: 100.0, 3: math.inf, 4: 0.0,
                 5: 200.0}

        class MixedDelta:
            def update(self, added, removed):
                return {t.transfer_id: rates[t.transfer_id] for t in added}

            def reset(self):
                pass

        calendar = TransferCalendar(MixedDelta(), delta=True)
        for i in rates:
            calendar.activate(Transfer(i, 0, 1, 1000.0), now=0.0)
        calendar.flush(0.0)
        assert calendar.stalled_ids() == (0, 4)
        assert [t.transfer_id for t in calendar.pop_due(0.0)] == [1, 3]
        # flight 5 (1000/200 = 5s) surfaces before flight 2 (1000/100 = 10s)
        assert [t.transfer_id for t in calendar.pop_due(10.0)] == [5, 2]

    def test_negative_rate_raises(self):
        calendar = TransferCalendar(DeltaEcho(rate=-1.0), delta=True)
        calendar.activate(Transfer(0, 0, 1, 1000.0), now=0.0)
        with pytest.raises(ReproError, match="negative rate"):
            calendar.flush(0.0)

    def test_cancel_then_reprice(self):
        """Repricing after a cancel re-times exactly the survivors."""
        provider = DeltaEcho()
        calendar = TransferCalendar(provider, delta=True)
        for i in range(6):
            calendar.activate(Transfer(i, 0, 1, 6000.0), now=0.0)
        calendar.flush(0.0)
        calendar.cancel(2, 10.0)
        calendar.cancel(4, 10.0)
        # the next provider answer halves the rate: every survivor re-times
        provider.rate = 50.0
        calendar.reprice(10.0)
        # 6000 bytes, 1000 done by t=10 at rate 100, 5000 left at rate 50
        expected = 10.0 + 5000.0 / 50.0
        assert calendar.next_time() == pytest.approx(expected)
        done = calendar.pop_due(expected + 1.0)
        assert [t.transfer_id for t in done] == [0, 1, 3, 5]
        assert calendar.active_count == 0

    def test_transfer_id_reuse(self):
        """Cancel + re-activate of the same id: the replacement completes on
        its own schedule and the first tenant's entry never completes it."""
        calendar = TransferCalendar(DeltaEcho(), delta=True)
        for i in range(5):
            calendar.activate(Transfer(i, 0, 1, 1000.0), now=0.0)
        calendar.flush(0.0)
        calendar.cancel(3, 1.0)
        calendar.activate(Transfer(3, 2, 3, 9000.0), now=1.0)
        calendar.flush(1.0)
        assert [t.transfer_id for t in calendar.pop_due(10.0)] == [0, 1, 2, 4]
        done = calendar.pop_due(1e9)
        assert [t.transfer_id for t in done] == [3]
        assert done[0].size == 9000.0
        assert calendar.stats.completions == 5


class TestFlushTimer:
    """An attached registry times every flush."""

    def test_timer_observes_every_flush(self):
        registry = MetricsRegistry()
        calendar = TransferCalendar(DeltaEcho(), delta=True,
                                    metrics=registry)
        calendar.activate(Transfer("a", 0, 1, 1e9), now=0.0)
        for step in range(5):
            calendar.flush(float(step))
        assert registry.timer("calendar.flush_s").count == 5


# ------------------------------------------- real providers vs full re-query
PROVIDER_KINDS = ("model", "emulator")


def make_real_provider(kind):
    technology = get_technology("ethernet")
    if kind == "model":
        return ModelRateProvider(GigabitEthernetModel(), technology)
    return EmulatorRateProvider(technology,
                                CrossbarTopology(num_hosts=4, technology=technology))


def drain(calendar, now, until=math.inf):
    """Step the calendar like the simulation loops do, up to ``until``.

    Returns the ``(time, tid)`` completions and the clock reached.
    """
    done = []
    while True:
        calendar.flush(now)
        due = calendar.next_time()
        if due is None or due > until:
            return done, now
        now = max(now, due)
        done.extend((now, t.transfer_id) for t in calendar.pop_due(now))


def against_full_requery(kind, run, wrap=None):
    """``run(calendar)`` on a delta calendar (provider optionally wrapped)
    must complete the same transfers at the same instants as on the full
    re-query calendar over the bare provider.  Completions sharing an
    instant are compared as a set: their pop order follows heap sequence
    numbers, which the two modes draw differently."""
    provider = make_real_provider(kind)
    if wrap is not None:
        provider = wrap(provider)
    delta = run(TransferCalendar(provider, delta=True, missing_rate="zero"))
    full = run(TransferCalendar(make_real_provider(kind), delta=False,
                                missing_rate="zero"))
    assert sorted(delta) == sorted(full)
    return delta


class StallFirstFlush:
    """Zero every rate of the first delta; price truthfully afterwards.

    The inner provider tracks the flow set normally, so the calendar's
    stall retry (departure + re-arrival of the whole stalled set) must
    recover exactly the rates a provider that never stalled reports.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def update(self, added, removed):
        changed = self.inner.update(added, removed)
        self.calls += 1
        if self.calls == 1:
            return {tid: 0.0 for tid in changed}
        return changed

    def reset(self):
        self.inner.reset()


class TestRealProvidersMatchFullRequery:
    @pytest.mark.parametrize("kind", PROVIDER_KINDS)
    def test_id_reuse_after_cancel(self, kind):
        """Churn with mid-run completions and cancels, then a second
        incarnation of every id: stale heap entries of the first tenants
        must never fire for the second."""
        def run(calendar):
            num_flights, rounds = 18, 9
            for i in range(num_flights):
                size = 1e11 if i % 2 == 0 else 1e6 * (1 + i % 5)
                calendar.activate(Transfer(i, i % 3, 3, size), now=0.0)
            done, now = [], 0.0
            for r in range(rounds):
                step, now = drain(calendar, now, until=0.05 * (r + 1))
                done.extend(step)
                now = 0.05 * (r + 1)
                calendar.cancel(2 * r, now)  # even ids never complete
                calendar.activate(
                    Transfer(num_flights + r, r % 3, 3, 1e6 * (1 + r % 3)),
                    now=now)
            for i in range(rounds, num_flights // 2):
                calendar.cancel(2 * i, now)
            step, now = drain(calendar, now)
            done.extend(step)
            # same ids, second incarnation with new endpoints and sizes
            for i in range(6):
                calendar.activate(Transfer(i, (i + 1) % 3, 3, 1e6 * (1 + i % 3)),
                                  now=now)
            step, now = drain(calendar, now)
            return done + step

        done = against_full_requery(kind, run)
        # the small originals and every second incarnation really completed
        assert len(done) == 9 + 9 + 6

    @pytest.mark.parametrize("kind", PROVIDER_KINDS)
    def test_zero_rate_stall_retry(self, kind):
        """A first flush pricing everything at zero stalls the whole set;
        the retry in the same flush recovers the un-stalled schedule."""
        def run(calendar):
            for i in range(6):
                calendar.activate(Transfer(i, i % 3, 3, 1e6 * (1 + i)), now=0.0)
            done, now = drain(calendar, 0.0, until=0.01)
            assert calendar.stalled_ids() == ()
            now = 0.01
            calendar.activate(Transfer(99, 0, 3, 5e5), now=now)
            step, now = drain(calendar, now)
            return done + step

        done = against_full_requery(kind, run, wrap=StallFirstFlush)
        assert sorted(tid for _, tid in done) == [0, 1, 2, 3, 4, 5, 99]

    @pytest.mark.parametrize("kind", PROVIDER_KINDS)
    def test_rate_scale_window_then_clear(self, kind):
        """A degradation window (scale installed + reprice) followed by
        clearing it (scale removed + reprice) re-times every survivor both
        times, and the run ends where the full re-query run ends."""
        def run(calendar):
            for i in range(6):
                calendar.activate(Transfer(i, i % 3, 3, 5e5 * (1 + i)), now=0.0)
            done, _ = drain(calendar, 0.0, until=0.05)
            calendar.set_rate_scale(lambda transfer: 0.5)
            calendar.reprice(0.05)
            calendar.activate(Transfer(6, 0, 3, 3e6), now=0.05)
            step, _ = drain(calendar, 0.05, until=0.15)
            done.extend(step)
            calendar.set_rate_scale(None)
            calendar.reprice(0.15)
            calendar.activate(Transfer(7, 1, 3, 3e6), now=0.15)
            step, _ = drain(calendar, 0.15)
            return done + step

        done = against_full_requery(kind, run)
        times = [time for time, _ in done]
        # completions land before, inside and after the window
        assert min(times) < 0.05 and max(times) > 0.15
        assert any(0.05 < time < 0.15 for time in times)
        assert sorted(tid for _, tid in done) == list(range(8))
