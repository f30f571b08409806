"""Watching a run must not change what is watched — nor how it runs.

A watched job's live sink (:class:`repro.obs.sinks.LiveEventSink` with
the telemetry skip set) subscribes only to the event types the
failure-horizon fast path still publishes, so a watched blocking
single-app trial keeps the fast path.  Where the fast path folds an
event the live feed does carry (``CheckpointFailed`` of semi-blocking
plans and of greedy datacenter jumps) the run falls back to the
stepped path.  Either way the live frames and the results must be
bit-identical to a ``REPRO_FAST_PATH=0`` run.
"""

import math

import pytest

import repro.core.datacenter as datacenter
import repro.core.execution as execution
import repro.core.single_app as single_app
from repro.core.datacenter import DatacenterConfig, run_datacenter
from repro.core.execution import ResilientExecution
from repro.core.selection import FixedSelector
from repro.core.single_app import SingleAppConfig, simulate_application
from repro.obs import live
from repro.obs.events import ALL_EVENT_TYPES, CheckpointFailed, DomainEvent
from repro.obs.sinks import LiveEventSink
from repro.platform.presets import exascale_system
from repro.resilience import get_technique, scaling_study_techniques
from repro.resilience.base import CheckpointLevel, ExecutionPlan
from repro.resilience.checkpoint_restart import SemiBlockingCheckpointRestart
from repro.rm.registry import make_manager
from repro.rng.streams import StreamFactory
from repro.service.jobs import JobSpec
from repro.sim.engine import Simulator
from repro.telemetry import SKIP_SIM_EVENTS, TelemetryHub
from repro.units import HOUR, years
from repro.workload.patterns import PatternGenerator
from repro.workload.synthetic import make_application

TECHNIQUES = [t.name for t in scaling_study_techniques()]


@pytest.fixture
def engines(monkeypatch):
    """Every engine the single-app and datacenter entry points build."""
    built = []

    class Recording(ResilientExecution):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(single_app, "ResilientExecution", Recording)
    monkeypatch.setattr(datacenter, "ResilientExecution", Recording)
    return built


def _stats_tuple(stats):
    return tuple(
        "nan" if isinstance(v, float) and math.isnan(v) else v
        for v in (
            stats.start_time,
            stats.end_time,
            stats.completed,
            stats.failures,
            stats.restarts,
            stats.replica_failures_absorbed,
            dict(stats.checkpoints_taken),
            stats.failed_checkpoints,
            stats.work_time_s,
            stats.rework_time_s,
            stats.checkpoint_time_s,
            stats.restart_time_s,
            stats.resource_wait_s,
        )
    )


def _watched(run, fast, monkeypatch, engines):
    """Run *run* under a thread-activated telemetry sink; returns its
    result, the live ``(kind, record)`` frames and the engines' jumps."""
    monkeypatch.setattr(execution, "FAST_PATH_ENABLED", fast)
    frames = []
    sink = LiveEventSink(
        lambda kind, record: frames.append((kind, record)),
        skip=SKIP_SIM_EVENTS,
    )
    engines.clear()
    with live.activated(sink):
        result = run()
    return result, frames, sum(engine.fast_jumps for engine in engines)


def _single_app(technique):
    app = make_application("A32", nodes=120, time_steps=60)
    system = exascale_system(total_nodes=1_200)
    config = SingleAppConfig(node_mtbf_s=200 * HOUR, seed=99)
    return lambda: simulate_application(app, technique, system, config)


class TestWatchedSingleAppKeepsFastPath:
    @pytest.mark.parametrize("name", TECHNIQUES)
    def test_watched_trial_jumps_and_matches_stepped(
        self, name, monkeypatch, engines
    ):
        run = _single_app(get_technique(name))
        fast, fast_frames, jumps = _watched(run, True, monkeypatch, engines)
        slow, slow_frames, slow_jumps = _watched(
            run, False, monkeypatch, engines
        )
        assert jumps > 0
        assert slow_jumps == 0
        assert fast_frames == slow_frames
        assert _stats_tuple(fast) == _stats_tuple(slow)
        kinds = {kind for kind, _ in fast_frames}
        assert "sim.FailureInjected" in kinds  # failures actually struck
        assert not kinds & {f"sim.{name}" for name in SKIP_SIM_EVENTS}

    def test_in_process_service_job(self, monkeypatch, engines):
        """The in-process pool path: ``TelemetryHub.job_sink`` activated
        around :meth:`JobSpec.execute`, as the worker agent does."""
        spec = JobSpec.from_payload(
            {
                "experiment": "fig1",
                "format": "json",
                "quick": True,
                "trials": 2,
                "jobs": 1,
                "cache": False,
            }
        )

        def run_job(fast):
            monkeypatch.setattr(execution, "FAST_PATH_ENABLED", fast)
            hub = TelemetryHub(capacity=1 << 16)
            hub.watch("job-1")
            engines.clear()
            with live.activated(hub.job_sink("job-1")):
                text = spec.execute().text
            events, _ = hub.ring.read_since(0)
            assert hub.ring.dropped == 0
            frames = [(e.kind, e.job_id, e.data) for e in events]
            return text, frames, sum(e.fast_jumps for e in engines)

        fast_text, fast_frames, jumps = run_job(True)
        slow_text, slow_frames, _ = run_job(False)
        assert jumps > 0
        assert fast_text == slow_text
        assert fast_frames == slow_frames
        assert any(kind == "sim.ExecutionStarted" for kind, _, _ in fast_frames)


class TestWatchedFallsBackWhereFoldedEventsStream:
    def test_semi_blocking_trial_steps_and_matches(
        self, monkeypatch, engines
    ):
        run = _single_app(SemiBlockingCheckpointRestart(0.25))
        fast, fast_frames, jumps = _watched(run, True, monkeypatch, engines)
        slow, slow_frames, _ = _watched(run, False, monkeypatch, engines)
        assert jumps == 0
        assert fast_frames == slow_frames
        assert _stats_tuple(fast) == _stats_tuple(slow)
        assert ("sim.CheckpointFailed" in {k for k, _ in fast_frames}) == (
            fast.failed_checkpoints > 0
        )

    def test_superseded_commits_stream_in_order(self, monkeypatch, engines):
        # Commits that outlast one checkpoint period are voided by the
        # next checkpoint; a jump would void them without publishing
        # the CheckpointFailed the live feed carries.
        app = make_application("A32", nodes=4, time_steps=10)
        level = CheckpointLevel(
            index=1,
            recovers_severity=3,
            cost_s=8.0,
            restart_s=20.0,
            period_s=5.0,
            blocking_fraction=0.25,
        )
        plan = ExecutionPlan(
            app=app,
            technique="semi",
            work_rate=1.0,
            levels=(level,),
            nodes_required=4,
        )
        technique = SemiBlockingCheckpointRestart(0.25)
        config = SingleAppConfig(node_mtbf_s=200 * HOUR, seed=99)

        def run():
            return simulate_application(
                app, technique, exascale_system(total_nodes=1_200), config,
                plan=plan,
            )

        fast, fast_frames, jumps = _watched(run, True, monkeypatch, engines)
        slow, slow_frames, _ = _watched(run, False, monkeypatch, engines)
        assert jumps == 0
        assert fast_frames == slow_frames
        assert _stats_tuple(fast) == _stats_tuple(slow)
        assert fast.completed
        assert sum(k == "sim.CheckpointFailed" for k, _ in fast_frames) > 1

    def test_unwatched_semi_blocking_trial_still_jumps(
        self, monkeypatch, engines
    ):
        monkeypatch.setattr(execution, "FAST_PATH_ENABLED", True)
        engines.clear()
        _single_app(SemiBlockingCheckpointRestart(0.25))()
        assert sum(e.fast_jumps for e in engines) > 0

    def test_datacenter_run_steps_and_matches(self, monkeypatch, engines):
        # Failures dense enough to strike checkpoints inside greedy
        # jumps, whose replay counts the failed checkpoint silently.
        nodes = 2_400
        seed = 11

        def run():
            pattern = PatternGenerator(StreamFactory(seed), nodes).generate(
                0, arrivals=20
            )
            return run_datacenter(
                pattern,
                make_manager("fcfs", StreamFactory(seed).fresh("rm-fcfs")),
                FixedSelector(get_technique("checkpoint_restart")),
                exascale_system(nodes),
                DatacenterConfig(node_mtbf_s=years(0.05), seed=seed),
            )

        fast, fast_frames, jumps = _watched(run, True, monkeypatch, engines)
        slow, slow_frames, _ = _watched(run, False, monkeypatch, engines)
        assert engines  # jobs actually ran
        assert jumps == 0
        assert fast_frames == slow_frames
        assert fast.failures_injected > 0
        assert any(kind == "sim.CheckpointFailed" for kind, _ in slow_frames)
        assert [
            (r.app.app_id, r.start_time, r.end_time, r.dropped)
            for r in fast.records
        ] == [
            (r.app.app_id, r.start_time, r.end_time, r.dropped)
            for r in slow.records
        ]


class TestFoldedSetContract:
    def _engine(self, technique, **kwargs):
        app = make_application("A32", nodes=120, time_steps=60)
        plan = technique.plan(app, exascale_system(total_nodes=1_200), 200 * HOUR)
        return ResilientExecution(Simulator(), plan, **kwargs)

    @pytest.mark.parametrize("name", TECHNIQUES)
    def test_skip_set_covers_blocking_single_app_folds(self, name):
        # If the fast path ever folds another event type away, the live
        # feed would force every watched trial onto the stepped path
        # again; this pins the two sets together.
        engine = self._engine(get_technique(name))
        folded = {event_type.__name__ for event_type in engine.folded_events}
        assert folded <= set(SKIP_SIM_EVENTS)

    def test_semi_blocking_and_greedy_fold_checkpoint_failed(self):
        semi = self._engine(SemiBlockingCheckpointRestart(0.25))
        greedy = self._engine(get_technique("multilevel"), greedy=True)
        assert CheckpointFailed in semi.folded_events
        assert CheckpointFailed in greedy.folded_events

    def test_live_sink_types_cover_every_domain_event(self):
        # The live sink subscribes per type from ALL_EVENT_TYPES; an
        # event class missing there would silently drop off the feed.
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        assert set(subclasses(DomainEvent)) <= set(ALL_EVENT_TYPES)
