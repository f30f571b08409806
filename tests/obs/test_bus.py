"""Unit tests for the instrumentation EventBus."""

from repro.obs.bus import EventBus
from repro.obs.events import CheckpointTaken, FailureInjected, TrialStarted
from repro.sim.events import EventKind


def _failure(app_id=1, time=1.0):
    return FailureInjected(time=time, app_id=app_id, node_id=0, severity=1)


class TestSubscribe:
    def test_by_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(FailureInjected, seen.append)
        event = _failure()
        bus.publish(event)
        assert seen == [event]

    def test_by_type_ignores_other_types(self):
        bus = EventBus()
        seen = []
        bus.subscribe(CheckpointTaken, seen.append)
        bus.publish(_failure())
        assert seen == []

    def test_keyed_dispatches_only_matching_app(self):
        bus = EventBus()
        seen = []
        bus.subscribe_key(FailureInjected, 7, seen.append)
        bus.publish(_failure(app_id=7))
        bus.publish(_failure(app_id=8))
        assert [e.app_id for e in seen] == [7]

    def test_keyed_skips_events_without_app_id(self):
        bus = EventBus()
        seen = []
        bus.subscribe_key(TrialStarted, None, seen.append)
        # TrialStarted has app_id=None -> never keyed-dispatched.
        bus.publish(TrialStarted(time=0.0, scope="single_app"))
        assert seen == []

    def test_subscribe_all_sees_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe_all(seen.append)
        bus.publish(_failure())
        bus.publish(TrialStarted(time=0.0, scope="single_app"))
        assert len(seen) == 2

    def test_all_handlers_fire_for_one_event(self):
        bus = EventBus()
        hits = []
        bus.subscribe_all(lambda e: hits.append("all"))
        bus.subscribe(FailureInjected, lambda e: hits.append("typed"))
        bus.subscribe_key(FailureInjected, 1, lambda e: hits.append("keyed"))
        bus.publish(_failure(app_id=1))
        assert hits == ["all", "typed", "keyed"]


class TestActivation:
    def test_empty_bus_has_no_subscribers(self):
        bus = EventBus()
        assert not bus.has_subscribers
        assert bus.subscriber_count() == 0
        bus.publish(_failure())  # no-op, must not raise

    def test_kernel_taps_do_not_activate_domain_channel(self):
        bus = EventBus()
        bus.add_kernel_tap(lambda t, k, p: None)
        assert not bus.has_subscribers

    def test_subscriber_count_spans_channels(self):
        bus = EventBus()
        bus.subscribe_all(lambda e: None)
        bus.subscribe(FailureInjected, lambda e: None)
        bus.subscribe_key(FailureInjected, 1, lambda e: None)
        assert bus.subscriber_count() == 3
        assert bus.has_subscribers


class TestInterest:
    """``wants_any``: the typed interest query the fast path asks."""

    QUERY = frozenset({CheckpointTaken, TrialStarted})

    def test_empty_bus_wants_nothing(self):
        assert not EventBus().wants_any(self.QUERY)

    def test_typed_subscriber_wants_only_its_type(self):
        bus = EventBus()
        bus.subscribe(FailureInjected, lambda e: None)
        assert not bus.wants_any(self.QUERY)
        assert bus.wants_any({FailureInjected})
        bus.subscribe(CheckpointTaken, lambda e: None)
        assert bus.wants_any(self.QUERY)

    def test_keyed_subscriber_counts_for_its_type(self):
        bus = EventBus()
        bus.subscribe_key(CheckpointTaken, 7, lambda e: None)
        assert bus.wants_any(self.QUERY)
        assert not bus.wants_any({FailureInjected})

    def test_catch_all_subscriber_wants_everything(self):
        bus = EventBus()
        bus.subscribe_all(lambda e: None)
        assert bus.wants_any(self.QUERY)
        assert bus.wants_any({FailureInjected})

    def test_kernel_tap_wants_everything(self):
        bus = EventBus()
        bus.add_kernel_tap(lambda t, k, p: None)
        assert bus.wants_any(self.QUERY)
        assert bus.wants_any({FailureInjected})


class TestKernelTaps:
    def test_simulator_forwards_executed_events(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        taps = []
        sim.bus.add_kernel_tap(lambda t, k, p: taps.append((t, k, p)))
        sim.schedule(2.0, lambda _e: None, kind=EventKind.FAILURE, payload="x")
        sim.run()
        assert taps == [(2.0, EventKind.FAILURE, "x")]

    def test_cancelled_events_not_tapped(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        taps = []
        sim.bus.add_kernel_tap(lambda t, k, p: taps.append(k))
        ev = sim.schedule(1.0, lambda _e: None, kind=EventKind.FAILURE)
        sim.cancel(ev)
        sim.run()
        assert taps == []
