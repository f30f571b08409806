"""EventForwarder / ForwardingTelemetry: the agent-side feed half."""

from repro.telemetry import EventForwarder, ForwardingTelemetry
from repro.telemetry.forwarder import MAX_BATCH


class FakeClient:
    def __init__(self, fail=False):
        self.fail = fail
        self.posts = []

    def post_site_events(self, site, events):
        if self.fail:
            raise ConnectionError("control plane unreachable")
        self.posts.append((site, list(events)))
        return {"accepted": len(events)}


class TestOffer:
    def test_offer_buffers_normalised_entries(self):
        fwd = EventForwarder(FakeClient(), "site-a")
        fwd.offer("sim.TrialStarted", {"trial": 0}, job_id="j1")
        fwd.offer("sim.Heartbeat")
        assert fwd.pending() == 2
        fwd.flush()
        _, batch = fwd.client.posts[0]
        assert batch == [
            {"kind": "sim.TrialStarted", "job_id": "j1", "data": {"trial": 0}},
            {"kind": "sim.Heartbeat"},
        ]

    def test_overflow_drops_oldest_and_counts(self):
        fwd = EventForwarder(FakeClient(), "site-a", capacity=3)
        for i in range(5):
            fwd.offer(f"k.{i}")
        assert fwd.pending() == 3
        assert fwd.dropped == 2
        fwd.flush()
        _, batch = fwd.client.posts[0]
        assert [e["kind"] for e in batch] == ["k.2", "k.3", "k.4"]

    def test_capacity_must_be_positive(self):
        import pytest

        with pytest.raises(ValueError):
            EventForwarder(FakeClient(), "s", capacity=0)


class TestFlush:
    def test_flush_batches_at_max_batch(self):
        fwd = EventForwarder(FakeClient(), "site-a", capacity=2 * MAX_BATCH)
        for i in range(MAX_BATCH + 10):
            fwd.offer(f"k.{i}")
        assert fwd.flush() == MAX_BATCH + 10
        sizes = [len(batch) for _, batch in fwd.client.posts]
        assert sizes == [MAX_BATCH, 10]
        assert fwd.forwarded == MAX_BATCH + 10
        assert fwd.pending() == 0

    def test_failed_post_drops_batch_and_returns(self):
        fwd = EventForwarder(FakeClient(fail=True), "site-a")
        for i in range(5):
            fwd.offer(f"k.{i}")
        assert fwd.flush() == 0
        assert fwd.dropped == 5
        assert fwd.pending() == 0  # never retried against a dead plane
        assert fwd.forwarded == 0

    def test_recovery_after_outage(self):
        client = FakeClient(fail=True)
        fwd = EventForwarder(client, "site-a")
        fwd.offer("lost")
        fwd.flush()
        client.fail = False
        fwd.offer("kept")
        assert fwd.flush() == 1
        assert [e["kind"] for _, b in client.posts for e in b] == ["kept"]

    def test_concurrent_flushes_post_in_buffer_order(self):
        # A flush returns only once everything buffered before it has
        # landed, even when another thread's flush holds the earlier
        # batch in flight: the agent relies on this to ship a job's
        # events before pushing its completion.
        import threading

        entered, release = threading.Event(), threading.Event()

        class SlowFirstPost(FakeClient):
            def post_site_events(self, site, events):
                if not self.posts and not entered.is_set():
                    entered.set()
                    release.wait(timeout=30)
                return super().post_site_events(site, events)

        fwd = EventForwarder(SlowFirstPost(), "site-a")
        fwd.offer("first")
        housekeeping = threading.Thread(target=fwd.flush)
        housekeeping.start()
        assert entered.wait(timeout=30)
        fwd.offer("second")
        executor = threading.Thread(target=fwd.flush)
        executor.start()
        executor.join(timeout=0.2)
        assert executor.is_alive()  # waits for the batch in flight
        release.set()
        housekeeping.join(timeout=30)
        executor.join(timeout=30)
        assert not housekeeping.is_alive() and not executor.is_alive()
        kinds = [e["kind"] for _, batch in fwd.client.posts for e in batch]
        assert kinds == ["first", "second"]

    def test_close_is_a_final_flush(self):
        fwd = EventForwarder(FakeClient(), "site-a")
        fwd.offer("k")
        fwd.close()
        assert fwd.pending() == 0
        assert fwd.forwarded == 1


class TestForwardingTelemetry:
    def test_job_sink_none_for_unwatched(self):
        fwd = EventForwarder(FakeClient(), "site-a")
        telemetry = ForwardingTelemetry(fwd, lambda job_id: False)
        assert telemetry.job_sink("j1") is None

    def test_watched_sink_offers_into_the_forwarder(self):
        fwd = EventForwarder(FakeClient(), "site-a")
        telemetry = ForwardingTelemetry(fwd, lambda job_id: job_id == "j1")
        sink = telemetry.job_sink("j1")
        assert sink is not None
        assert "ActivitySpan" in sink.skip
        sink.emit("sim.FailureInjected", {"node": 7})
        telemetry.flush()
        _, batch = fwd.client.posts[0]
        assert batch == [
            {
                "kind": "sim.FailureInjected",
                "job_id": "j1",
                "data": {"node": 7},
            }
        ]
