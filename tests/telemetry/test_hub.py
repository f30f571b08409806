"""TelemetryHub: watch refcounting, sinks, ingest, stats."""

from repro.obs import live
from repro.obs.bus import EventBus
from repro.obs.events import (
    ALL_EVENT_TYPES,
    ActivitySpan,
    CheckpointFailed,
    CheckpointTaken,
    FailureInjected,
)
from repro.telemetry import SKIP_SIM_EVENTS, TelemetryHub


def kinds(hub):
    events, _ = hub.ring.read_since(0)
    return [e.kind for e in events]


class TestWatches:
    def test_unwatched_by_default(self):
        hub = TelemetryHub()
        assert not hub.is_watched("j1")
        assert hub.watched() == []

    def test_watch_unwatch_roundtrip(self):
        hub = TelemetryHub()
        hub.watch("j1")
        assert hub.is_watched("j1")
        assert hub.watched() == ["j1"]
        hub.unwatch("j1")
        assert not hub.is_watched("j1")

    def test_watches_are_refcounted(self):
        hub = TelemetryHub()
        hub.watch("j1")
        hub.watch("j1")
        hub.unwatch("j1")
        assert hub.is_watched("j1")
        hub.unwatch("j1")
        assert not hub.is_watched("j1")

    def test_excess_unwatch_is_harmless(self):
        hub = TelemetryHub()
        hub.unwatch("never-watched")
        hub.watch("j1")
        hub.unwatch("j1")
        hub.unwatch("j1")
        assert not hub.is_watched("j1")


class TestJobSink:
    def test_none_for_unwatched_jobs(self):
        # An unwatched job gets no sink, so its simulation buses want
        # no event type and every trial keeps the fast path.
        hub = TelemetryHub()
        assert hub.job_sink("j1") is None
        bus = EventBus()
        live.attach_current(bus)
        assert not bus.wants_any(ALL_EVENT_TYPES)

    def test_watched_sink_wants_only_unfolded_events(self):
        # A watched job's sink subscribes per type, skipping exactly
        # what the fast path folds away in a blocking single-app run.
        hub = TelemetryHub()
        hub.watch("j1")
        bus = EventBus()
        hub.job_sink("j1").attach(bus)
        assert not bus.wants_any({ActivitySpan, CheckpointTaken})
        assert bus.wants_any({FailureInjected})
        assert bus.wants_any({CheckpointFailed})

    def test_watched_sink_publishes_into_the_ring(self):
        hub = TelemetryHub()
        hub.watch("j1")
        sink = hub.job_sink("j1")
        assert sink is not None
        sink.emit("sim.FailureInjected", {"node": 3})
        events, _ = hub.ring.read_since(0)
        assert events[-1].kind == "sim.FailureInjected"
        assert events[-1].job_id == "j1"
        assert events[-1].data == {"node": 3}

    def test_sink_skips_high_frequency_kinds(self):
        hub = TelemetryHub()
        hub.watch("j1")
        assert hub.job_sink("j1").skip == frozenset(SKIP_SIM_EVENTS)
        assert "ActivitySpan" in SKIP_SIM_EVENTS


class TestPublishing:
    def test_ingest_tags_site_and_counts(self):
        hub = TelemetryHub()
        accepted = hub.ingest(
            "site-a",
            [
                {"kind": "sim.TrialStarted", "job_id": "j1"},
                {"kind": "sim.CheckpointTaken", "job_id": "j1",
                 "data": {"level": 1}},
            ],
        )
        assert accepted == 2
        events, _ = hub.ring.read_since(0)
        assert [e.site for e in events] == ["site-a", "site-a"]
        assert events[1].data == {"level": 1}

    def test_campaign_notify_scopes_by_campaign(self):
        hub = TelemetryHub()
        hub.campaign_notify("campaign.done", "c1", {"cells": 4})
        events, _ = hub.ring.read_since(0)
        assert events[0].campaign_id == "c1"
        assert kinds(hub) == ["campaign.done"]

    def test_flush_is_a_noop(self):
        TelemetryHub().flush()


class TestStats:
    def test_stats_shape(self):
        hub = TelemetryHub(capacity=4)
        for _ in range(6):
            hub.publish("k")
        hub.watch("j1")
        stats = hub.stats()
        assert stats == {
            "ring": {"capacity": 4, "size": 4, "dropped": 2, "last_seq": 6},
            "watched_jobs": 1,
        }

    def test_close_closes_the_ring(self):
        hub = TelemetryHub()
        hub.close()
        assert hub.ring.closed
