"""The generic resilient-execution engine.

One process class executes *any* :class:`repro.resilience.ExecutionPlan`
on the DES: it advances work between checkpoint boundaries, takes the
scheduled checkpoint level at each boundary, and reacts to failure
interrupts with the technique-appropriate restart/recovery behaviour.
All four techniques reduce to plan parameters:

- work positions live in *effective-work* space (baseline inflated by
  the plan's ``work_rate`` — Eqs. 7/8), so one wall second of normal
  execution advances the position by one second;
- checkpoint boundaries sit at multiples of the base period; the level
  taken at boundary *i* is the highest whose multiplier divides *i*;
- a severity-s failure rolls the position back to the newest checkpoint
  among levels that recover severity >= s and pays that level's restart
  cost (restart is itself interruptible by further failures);
- while the position is behind the furthest point ever reached, the
  engine is *recovering* and advances ``recovery_speedup`` times faster
  (Parallel Recovery's parallelized re-execution; 1x for the others);
- with a replica plan, a failure that leaves the struck virtual node
  with a live replica is absorbed without interruption; checkpoints and
  restarts repair all failed replicas (Sec. IV-E restart rule).

Failures are delivered as :class:`repro.sim.Interrupt` whose cause is a
:class:`repro.failures.Failure` with ``node_id`` *relative to the
application's physical allocation* (in ``[0, nodes_required)``).

Instrumentation: the engine publishes its whole lifecycle as typed
events on the simulator's :class:`repro.obs.bus.EventBus` —
:class:`~repro.obs.events.FailureInjected` when an interrupt reaches
it, checkpoint/restart/recovery milestones, and one
:class:`~repro.obs.events.ActivitySpan` per contiguous stretch of
work/recovery/checkpoint/restart/wait time.  :class:`ExecutionStats` is
itself a bus subscriber (keyed to the application id), so the numbers
it reports and the event stream sinks observe have one source of
truth.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.failures.generator import Failure
from repro.obs.bus import EventBus
from repro.obs.events import (
    ActivitySpan,
    CheckpointFailed,
    CheckpointTaken,
    ExecutionCompleted,
    ExecutionStarted,
    FailureInjected,
    RecoveryCompleted,
    ReplicaAbsorbed,
    RestartStarted,
)
from repro.obs.sinks import TimelineSink
from repro.resilience.base import CheckpointLevel, ExecutionPlan
from repro.sim.engine import Simulator
from repro.sim.errors import Interrupt
from repro.sim.resources import SlotPool

#: Master switch for the failure-horizon fast path (docs/PERFORMANCE.md).
#: The stepped and fast paths are bit-identical, so this exists only for
#: measurement and bisection: set ``REPRO_FAST_PATH=0`` in the
#: environment, pass ``--no-fast-path`` on the CLI, or flip the module
#: attribute to force every engine onto the stepped path.
FAST_PATH_ENABLED = os.environ.get("REPRO_FAST_PATH", "1") != "0"

class JumpAborted(Exception):
    """Interrupt cause that aborts a fast-path jump without a failure.

    Sent by :class:`PoolContentionGate` when a newly placed job closes
    the gate while jumps that folded shared-pool checkpoints are in
    flight.  The engine rewinds to its nearest snapshot, fast-replays
    to the abort instant, finishes the operation in flight with real
    kernel sleeps (taking a real pool ticket when mid-checkpoint), and
    returns to the main loop under the now-closed gate.
    """


class PoolContentionGate:
    """Tracks whether a shared :class:`SlotPool` can possibly queue anyone.

    *Inertness invariant*: while the number of running jobs whose plans
    checkpoint through the pool (``users``) is at most the pool's slot
    count and nobody is queued, every ``request()`` grants immediately
    — a job holds at most one ticket at a time and never requests while
    holding, so at any request instant held tickets <= users - 1 <=
    slots - 1 and a slot is free.  Immediate grants are invisible to
    results: the wait span is zero-length (dropped by the stats guard
    on both paths) and ``contended_requests`` stays untouched.  While
    the invariant holds the gate is *open* and engines may fold pool
    checkpoints into closed-form jumps without touching the pool.

    ``users`` only grows inside a mapping event (:meth:`job_started`),
    so open -> closed is the single transition that needs action: every
    in-flight jump that folded pool checkpoints is aborted with
    :class:`JumpAborted` and resumes stepped-equivalently.  The closed
    -> open transition (a pool user finishing, the queue draining) is
    observed lazily the next time an engine plans a jump.
    """

    def __init__(self, pool: SlotPool) -> None:
        self._pool = pool
        self._users = 0
        #: Engines mid-jump with pool checkpoints folded -> their process.
        self._jumpers: Dict[object, object] = {}

    @property
    def open(self) -> bool:
        """Whether every pool request is currently guaranteed an
        immediate grant (see the inertness invariant above)."""
        return self._users <= self._pool.slots and self._pool.queued == 0

    @property
    def users(self) -> int:
        """Running jobs whose plans checkpoint through the pool."""
        return self._users

    def job_started(self) -> None:
        """Record a newly placed pool-using job; abort in-flight
        pool-folding jumps if this closes the gate."""
        was_open = self.open
        self._users += 1
        if was_open and not self.open:
            # Snapshot the registry first: each abort handler
            # deregisters its engine via end_jump during delivery.
            for proc in list(self._jumpers.values()):
                if proc is not None and proc.alive:
                    proc.interrupt(JumpAborted())

    def job_finished(self) -> None:
        """Record a pool-using job leaving the machine."""
        self._users -= 1
        assert self._users >= 0, "pool-user accounting out of sync"

    def begin_jump(self, engine: object, process: object) -> None:
        """Register *engine* (running as *process*) as mid-jump with
        pool checkpoints folded in."""
        self._jumpers[engine] = process

    def end_jump(self, engine: object) -> None:
        """Deregister *engine* (jump finished, failed, or aborted)."""
        self._jumpers.pop(engine, None)


#: ActivitySpan activity -> the ExecutionStats field it accumulates to.
_ACTIVITY_FIELD = {
    "work": "work_time_s",
    "recovery": "rework_time_s",
    "checkpoint": "checkpoint_time_s",
    "restart": "restart_time_s",
    "wait": "resource_wait_s",
}


@dataclass
class ExecutionStats:
    """Observable outcome of one resilient execution.

    The fields are derived entirely from the instrumentation-bus event
    stream: :meth:`listen` subscribes the instance (keyed to its
    application's id) and every counter/accumulator below is updated by
    an event handler.  The engine publishes events; it never mutates
    stats directly.
    """

    plan: ExecutionPlan
    start_time: float = 0.0
    end_time: float = math.nan
    completed: bool = False
    failures: int = 0
    restarts: int = 0
    replica_failures_absorbed: int = 0
    checkpoints_taken: Dict[int, int] = field(default_factory=dict)
    failed_checkpoints: int = 0
    #: Wall seconds by activity (work excludes rework).
    work_time_s: float = 0.0
    rework_time_s: float = 0.0
    checkpoint_time_s: float = 0.0
    restart_time_s: float = 0.0
    #: Wall seconds queued for shared resources (PFS contention; zero
    #: under the paper's isolated-application model).
    resource_wait_s: float = 0.0

    @property
    def elapsed_s(self) -> float:
        """Total wall time from start to completion (or interruption)."""
        return self.end_time - self.start_time

    @property
    def total_checkpoints(self) -> int:
        """Committed checkpoints across all levels."""
        return sum(self.checkpoints_taken.values())

    @property
    def overhead_s(self) -> float:
        """Wall time beyond the plan's failure-free effective work."""
        return self.elapsed_s - self.plan.effective_work_s

    def efficiency(self) -> float:
        """Paper metric: baseline time over actual time.  Note the
        numerator is the *uninflated* baseline T_B, so message-logging
        and redundancy slowdowns count as inefficiency (Sec. V)."""
        if not self.elapsed_s > 0:
            return 0.0
        return self.plan.app.baseline_time / self.elapsed_s

    # -- bus subscription ---------------------------------------------------

    def listen(self, bus: EventBus) -> None:
        """Subscribe this instance to *bus*, keyed to its application
        id, so the stats accumulate from the event stream."""
        app_id = self.plan.app.app_id
        bus.subscribe_key(ExecutionStarted, app_id, self._on_started)
        bus.subscribe_key(ExecutionCompleted, app_id, self._on_completed)
        bus.subscribe_key(FailureInjected, app_id, self._on_failure_injected)
        bus.subscribe_key(ReplicaAbsorbed, app_id, self._on_replica_absorbed)
        bus.subscribe_key(RestartStarted, app_id, self._on_restart_started)
        bus.subscribe_key(CheckpointTaken, app_id, self._on_checkpoint_taken)
        bus.subscribe_key(CheckpointFailed, app_id, self._on_checkpoint_failed)
        bus.subscribe_key(ActivitySpan, app_id, self._on_span)

    def _on_started(self, event: ExecutionStarted) -> None:
        self.start_time = event.time

    def _on_completed(self, event: ExecutionCompleted) -> None:
        self.completed = True
        self.end_time = event.time

    def _on_failure_injected(self, event: FailureInjected) -> None:
        self.failures += 1

    def _on_replica_absorbed(self, event: ReplicaAbsorbed) -> None:
        self.replica_failures_absorbed += 1

    def _on_restart_started(self, event: RestartStarted) -> None:
        if not event.retry:
            self.restarts += 1

    def _on_checkpoint_taken(self, event: CheckpointTaken) -> None:
        counts = self.checkpoints_taken
        counts[event.level_index] = counts.get(event.level_index, 0) + 1

    def _on_checkpoint_failed(self, event: CheckpointFailed) -> None:
        self.failed_checkpoints += 1

    def _on_span(self, event: ActivitySpan) -> None:
        name = _ACTIVITY_FIELD[event.activity]
        setattr(self, name, getattr(self, name) + (event.end - event.start))


class ResilientExecution:
    """Executes one plan as a DES process.

    Usage::

        engine = ResilientExecution(sim, plan)
        proc = sim.process(engine.run(), name="app-0")
        # deliver failures with proc.interrupt(failure)
        sim.run()
        stats = engine.stats

    With ``record_timeline=True`` the engine additionally collects
    ``(start, end, activity)`` spans consumable by
    :func:`repro.core.timeline.render_timeline` (a
    :class:`repro.obs.sinks.TimelineSink` attached to the simulator's
    bus; ``engine.timeline`` aliases its span list).
    """

    #: Float slop when mapping positions to boundary indices.
    _EPS = 1e-9

    #: Snapshot cadence inside greedy jumps: one state snapshot per
    #: this many folded iterations bounds replay-on-interrupt to a
    #: constant number of iterations without snapshotting every one.
    #: Snapshots are cheap (a few scalars + two small dict copies), so
    #: a tight cadence wins on failure-heavy cells; 8 measured fastest
    #: at fig4 scale, with 4 paying more in snapshots than it saves in
    #: replay.
    _SNAPSHOT_EVERY = 8

    #: Iteration budget per greedy jump.  An interrupted jump's applied
    #: iterations are thrown away and re-planned after the failure, so
    #: unbounded jumps cost O(failures x remaining-iterations) on
    #: failure-heavy jobs; capping a jump keeps the waste per interrupt
    #: constant while still folding dozens of kernel suspensions into
    #: one sleep.  32 balances the two at fig4 scale (~sqrt of the
    #: events-per-failure ratio); both larger and smaller caps measured
    #: slower end to end.
    _GREEDY_MAX_ITERATIONS = 32

    def __init__(
        self,
        sim: Simulator,
        plan: ExecutionPlan,
        record_timeline: bool = False,
        resources: Optional[Dict[str, "SlotPool"]] = None,
        failure_horizon: Optional[Callable[[], Optional[float]]] = None,
        until: Optional[float] = None,
        gate: Optional[PoolContentionGate] = None,
        greedy: bool = False,
    ) -> None:
        self._sim = sim
        self.plan = plan
        self._resources = resources or {}
        #: Callable returning the absolute time of the next pending
        #: failure interrupt (None when unknown).  Without one the
        #: engine always steps; with one it may take closed-form jumps
        #: over the failure-free stretch (see :meth:`_fast_forward`).
        self._failure_horizon = failure_horizon
        #: The kernel's run horizon (walltime cap): the fast path never
        #: jumps past it, so capped runs stop with exactly the stepped
        #: path's partial stats.
        self._until = until
        self._record_timeline = record_timeline
        #: Greedy mode (datacenter): jump all the way to the next
        #: checkpoint-boundary structure change or completion without
        #: consulting the failure horizon, relying entirely on
        #: interrupt-and-replay for exactness.  The horizon-bounded
        #: mode (single-app) never sleeps past the next known failure.
        self._greedy = greedy
        #: Contention gate for the shared pool the plan's levels may
        #: checkpoint through (datacenter PFS).  While it reports open,
        #: pool checkpoints fold into jumps; when it closes mid-jump the
        #: engine is aborted and resumes stepped-equivalently.
        self._gate = gate
        #: Level indices whose checkpoints go through a provided pool.
        self._pool_levels = {
            lvl.index
            for lvl in plan.levels
            if lvl.shared_resource is not None
            and lvl.shared_resource in self._resources
        }
        self._levels_by_index = {lvl.index: lvl for lvl in plan.levels}
        #: Precomputed boundary -> level table for the fast path's hot
        #: loop: ``boundary_level(b)`` depends only on ``b`` modulo the
        #: lcm of the level multipliers, so a small table replaces the
        #: per-boundary scan.  Built with exactly boundary_level's
        #: last-divider-wins rule; None when the lcm is implausibly
        #: large (the scan then stays in place).
        mults = [plan.level_multiplier(lvl.index) for lvl in plan.levels]
        table_period = 1
        for mult in mults:
            table_period = math.lcm(table_period, mult)
        self._level_table: Optional[tuple] = None
        self._level_table_period = table_period
        if table_period <= 4096:
            table = []
            for residue in range(table_period):
                chosen = plan.levels[0]
                for lvl, mult in zip(plan.levels, mults):
                    if residue % mult == 0:
                        chosen = lvl
                table.append(chosen)
            self._level_table = tuple(table)
        #: This engine's process handle (see :meth:`bind_process`);
        #: needed only for gate registration.
        self._process = None
        #: True when some level may queue on a provided shared pool and
        #: no gate tracks its contention; slot waits then make the
        #: inter-failure stretch non-deterministic, so the fast path
        #: must not skip while one is possible.  With a gate the engine
        #: jumps whenever the gate proves waits impossible.
        self._contended = bool(self._pool_levels) and gate is None
        #: Fast-path introspection: closed-form jumps taken, and stepped
        #: main-loop iterations those jumps replaced.
        self.fast_jumps = 0
        self.fast_iterations_skipped = 0
        #: The simulator's shared bus (external sinks subscribe here).
        self._bus = sim.bus
        #: Event types a fast-path jump folds away without publishing
        #: them on the shared bus: every activity span and checkpoint
        #: commit inside the jump; a superseded semi-blocking commit,
        #: which the jump voids silently; and, in greedy mode, the
        #: checkpoint an interrupt cuts short inside a jump
        #: (:meth:`_replay_to` and :meth:`_resume_after_abort` count it
        #: without publishing).  The fast path is refused while a
        #: shared-bus subscriber wants any of these.
        folded = {ActivitySpan, CheckpointTaken}
        if greedy or any(lvl.blocking_fraction < 1.0 for lvl in plan.levels):
            folded.add(CheckpointFailed)
        self.folded_events = frozenset(folded)
        #: Engine-local bus: this execution's own stats and timeline
        #: subscribe here, so two engines that happen to share an
        #: ``app_id`` on one simulator never cross-feed each other.
        self._local_bus = EventBus()
        self._app_id = plan.app.app_id
        self._technique = plan.technique
        self.stats = ExecutionStats(plan=plan)
        self.stats.listen(self._local_bus)
        self._done = 0.0
        self._furthest = 0.0
        #: Newest checkpointed work position per level index.
        self._saved: Dict[int, float] = {lvl.index: 0.0 for lvl in plan.levels}
        #: Replicated virtual nodes currently running on one replica.
        self._degraded: Set[int] = set()
        #: In-flight semi-blocking checkpoint: (level_index, work
        #: position, commit time); committed lazily once due.
        self._pending_commit: Optional[tuple] = None
        #: Optional (start, end, activity) spans for visualization.
        self.timeline: list = []
        if record_timeline:
            sink = TimelineSink(app_id=self._app_id)
            sink.attach(self._local_bus)
            self.timeline = sink.spans

    def _publish(self, event) -> None:
        """Publish *event* on the engine-local bus (stats, timeline)
        and mirror it on the simulator's shared bus (external sinks)."""
        self._local_bus.publish(event)
        self._bus.publish(event)

    # -- observability -------------------------------------------------------

    @property
    def work_position(self) -> float:
        """Current position in effective-work space, seconds."""
        return self._done

    @property
    def progress(self) -> float:
        """Fraction of effective work committed, in [0, 1]."""
        return min(1.0, self._done / self.plan.effective_work_s)

    @property
    def degraded_virtual_nodes(self) -> int:
        """Replicated virtual nodes currently running on one replica."""
        return len(self._degraded)

    # -- process body -----------------------------------------------------------

    def run(self) -> Generator:
        """Process generator: run the application to completion."""
        plan = self.plan
        total = plan.effective_work_s
        base = plan.base_period_s
        self._publish(
            ExecutionStarted(
                time=self._sim.now, app_id=self._app_id, technique=self._technique
            )
        )
        while self._done < total - self._EPS:
            if self._fast_path_usable():
                advanced = yield from self._fast_forward(total, base)
                if advanced:
                    continue
            boundary = int(self._done / base + self._EPS) + 1
            target = min(boundary * base, total)
            reached = yield from self._work_to(target)
            if not reached:
                continue  # failure handled; position rolled back
            if self._done >= total - self._EPS:
                break
            level = plan.boundary_level(boundary)
            yield from self._checkpoint(level)
        self._publish(
            ExecutionCompleted(
                time=self._sim.now, app_id=self._app_id, technique=self._technique
            )
        )
        return self.stats

    # -- internals -----------------------------------------------------------

    def _work_to(self, target: float) -> Generator:
        """Advance work to *target*; False if a failure intervened."""
        while self._done < target - self._EPS:
            if self._done < self._furthest - self._EPS:
                segment_end = min(self._furthest, target)
                speed = self.plan.recovery_speedup
                recovering = True
            else:
                segment_end = target
                speed = 1.0
                recovering = False
            duration = (segment_end - self._done) / speed
            started = self._sim.now
            kind = "recovery" if recovering else "work"
            try:
                yield duration
            except Interrupt as interrupt:
                elapsed = self._sim.now - started
                self._advance(elapsed, speed)
                self._note(kind, started, self._sim.now)
                yield from self._on_failure(interrupt.cause)
                return False
            self._advance(duration, speed)
            self._note(kind, started, self._sim.now)
        return True

    def _advance(self, wall_s: float, speed: float) -> None:
        self._done = min(
            self.plan.effective_work_s, self._done + wall_s * speed
        )
        self._furthest = max(self._furthest, self._done)

    # -- failure-horizon fast path -------------------------------------------

    def set_failure_horizon(
        self, provider: Callable[[], Optional[float]]
    ) -> None:
        """Install the fast path's horizon *provider* (a callable
        returning the absolute time of the next pending failure
        interrupt, or None when unknown) after construction — failure
        sources usually need the engine's process to exist first."""
        self._failure_horizon = provider

    def bind_process(self, process) -> None:
        """Attach this engine's :class:`~repro.sim.process.Process`
        handle so the contention gate can deliver jump aborts.  Like
        :meth:`set_failure_horizon` this happens after construction —
        the process wrapping :meth:`run` cannot exist before the
        engine does."""
        self._process = process

    def _fast_path_usable(self) -> bool:
        """Whether the next stretch may be advanced in closed form.

        The fast path skips the per-boundary kernel events and the
        :attr:`folded_events`, so it is only taken when nothing can
        tell the difference: shared-pool contention without a gate
        makes slot waits possible inside the stretch; a timeline
        recorder, a kernel tap, a catch-all sink, or any shared-bus
        subscriber to a folded event type expects the full
        per-boundary event stream, so those runs auto-fall back to the
        stepped path.  A subscriber that wants only events the jump
        still publishes (failures, restarts, recoveries) leaves the
        fast path on.  The horizon-bounded mode additionally needs a
        horizon provider; greedy mode needs none (interrupts abort the
        jump wherever they land).
        """
        if (
            not FAST_PATH_ENABLED
            or self._contended
            or self._record_timeline
            or self._bus.wants_any(self.folded_events)
        ):
            return False
        return self._greedy or self._failure_horizon is not None

    def _fast_forward(self, total: float, base: float) -> Generator:
        """Closed-form jump over the failure-free stretch.

        Applies whole main-loop iterations (work segments + boundary
        checkpoint) whose kernel suspensions would all land strictly
        before the next failure interrupt and at or before the run
        horizon, then sleeps once to the folded end time.  Returns True
        when anything was applied (the main loop then re-evaluates) and
        False to fall back to one stepped iteration.

        Exactness: :meth:`_plan_iteration` replays the stepped path's
        float operations in program order and no RNG is consumed
        between failures, so state and stats are bit-identical (the
        exactness argument is spelled out in docs/PERFORMANCE.md).  The
        horizon may move *earlier* mid-jump (the datacenter injector
        re-draws its pending gap on every allocation change, and a
        system failure may strike another application first); the
        interrupt then lands inside the jump timeout, and the engine
        restores the nearest preceding snapshot and replays the planned
        segments up to the interrupt instant exactly as the stepped
        path would have run them, before handling the failure normally.

        Greedy mode (datacenter) ignores the horizon entirely: the jump
        runs to completion (or the run cap, or the first iteration the
        contention gate forbids) and relies on interrupt-and-replay for
        any failure that lands inside it — the engine only wakes when a
        failure actually strikes *it*.  Jumps that fold shared-pool
        checkpoints register with the gate, whose closing aborts them
        mid-sleep (:class:`JumpAborted` -> :meth:`_resume_after_abort`);
        while the gate is closed, planning stops before the first
        pool-backed boundary so that checkpoint queues for real.
        Snapshots are taken every :attr:`_SNAPSHOT_EVERY` folded
        iterations to bound the replay length.
        """
        start = self._sim.now
        if self._greedy:
            horizon = math.inf
        else:
            fire = self._failure_horizon()
            horizon = math.inf if fire is None else fire
            if horizon <= start:
                return False  # the pending failure is due right now
        cap = math.inf if self._until is None else self._until
        gate = self._gate
        plan = self.plan
        stats = self.stats
        eps = self._EPS
        recovery_speedup = plan.recovery_speedup
        pool_levels = self._pool_levels
        table = self._level_table
        table_period = self._level_table_period
        max_iterations = self._GREEDY_MAX_ITERATIONS if self._greedy else None
        snaps: List[Tuple[float, tuple]] = []
        uses_pool = False
        iterations = 0
        t = start
        # The loop below is :meth:`_plan_iteration` + :meth:`_apply_op`
        # fused and inlined — this is the hot path of every simulation,
        # so op tuples and per-op dispatch are traded for one in-place
        # pass per iteration.  Work/rework totals are accumulated as
        # the segments are computed and restored bit-exactly from the
        # saved scalars when the iteration turns out unacceptable (the
        # only state touched before the acceptance check); everything
        # else commits after it.  The engine's scalar state lives in
        # locals for the duration of the loop (synced back to
        # ``self``/``stats`` before each snapshot and once at exit —
        # there are no yields inside, so no one can observe the
        # in-flight locals).  Any arithmetic edit here needs its mirror
        # in _plan_iteration/_apply_op (and in the stepped path), which
        # the bit-identity suites enforce.
        snapshot_every = self._SNAPSHOT_EVERY
        done_v = self._done
        furthest_v = self._furthest
        pending_v = self._pending_commit
        work_v = stats.work_time_s
        rework_v = stats.rework_time_s
        ckpt_v = stats.checkpoint_time_s
        failed_v = stats.failed_checkpoints
        saved = self._saved
        degraded = self._degraded
        counts = stats.checkpoints_taken
        while True:
            # Snapshot *pre-iteration* state: rejected iterations roll
            # their stats writes back below, so the state at virtual
            # time ``t`` always matches what the snapshot recorded.
            if iterations % snapshot_every == 0:
                self._done = done_v
                self._furthest = furthest_v
                self._pending_commit = pending_v
                stats.work_time_s = work_v
                stats.rework_time_s = rework_v
                stats.checkpoint_time_s = ckpt_v
                stats.failed_checkpoints = failed_v
                snaps.append((t, self._snapshot_state()))
            d = done_v
            f = furthest_v
            work0 = work_v
            rework0 = rework_v
            boundary = int(d / base + eps) + 1
            target = boundary * base
            if target > total:
                target = total
            tt = t
            while d < target - eps:
                if d < f - eps:
                    seg_pos = f if f < target else target
                    speed = recovery_speedup
                    rework_seg = True
                else:
                    seg_pos = target
                    speed = 1.0
                    rework_seg = False
                duration = (seg_pos - d) / speed
                seg_start = tt
                tt = tt + duration
                d = d + duration * speed
                if d > total:
                    d = total
                if d > f:
                    f = d
                if tt > seg_start:
                    if rework_seg:
                        rework_v = rework_v + (tt - seg_start)
                    else:
                        work_v = work_v + (tt - seg_start)
            completed = d >= total - eps
            seg_end = tt
            level = None
            blocking = 0.0
            iteration_uses_pool = False
            if not completed:
                level = (
                    table[boundary % table_period]
                    if table is not None
                    else plan.boundary_level(boundary)
                )
                if level.index in pool_levels:
                    # This boundary checkpoint goes through the shared
                    # pool: fold it only while the gate proves every
                    # request grants immediately; otherwise stop here
                    # and let it queue for real on the stepped path.
                    if gate is None or not gate.open:
                        work_v = work0
                        rework_v = rework0
                        break
                    iteration_uses_pool = True
                blocking = level.cost_s * level.blocking_fraction
                tt = tt + blocking
            end = tt
            # Suspension instants grow monotonically through the
            # iteration, so checking its last one covers them all.  A
            # failure exactly at a wake instant preempts the wake
            # (FAILURE_PRIORITY / the driver's earlier event), hence
            # the strict horizon comparison.
            if end >= horizon or end > cap or end <= t:
                work_v = work0
                rework_v = rework0
                break
            # -- accepted: commit position and checkpoint effects.
            done_v = d
            furthest_v = f
            if not completed:
                if pending_v is not None:
                    idx, work, commit_time = pending_v
                    pending_v = None
                    if commit_time <= seg_end + eps:
                        saved[idx] = work
                        if degraded:
                            degraded.clear()
                        counts[idx] = counts.get(idx, 0) + 1
                    else:
                        failed_v += 1
                if end > seg_end:
                    ckpt_v = ckpt_v + (end - seg_end)
                if level.blocking_fraction >= 1.0:
                    saved[level.index] = d
                    if degraded:
                        degraded.clear()
                    counts[level.index] = counts.get(level.index, 0) + 1
                else:
                    remainder = level.cost_s - blocking
                    pending_v = (level.index, d, end + remainder)
                if iteration_uses_pool:
                    uses_pool = True
            t = end
            iterations += 1
            if completed:
                break
            if max_iterations is not None and iterations >= max_iterations:
                break  # wake once and jump again; see _GREEDY_MAX_ITERATIONS
        self._done = done_v
        self._furthest = furthest_v
        self._pending_commit = pending_v
        stats.work_time_s = work_v
        stats.rework_time_s = rework_v
        stats.checkpoint_time_s = ckpt_v
        stats.failed_checkpoints = failed_v
        self.fast_iterations_skipped += iterations
        if t == start:
            return False
        self.fast_jumps += 1
        registered = uses_pool and gate is not None
        if registered:
            gate.begin_jump(self, self._process)
        try:
            yield self._sim.timeout_at(t)
        except Interrupt as interrupt:
            if registered:
                gate.end_jump(self)
            if isinstance(interrupt.cause, JumpAborted):
                yield from self._resume_after_abort(snaps, total, base)
                return True
            until = self._sim.now
            ts, snapshot = self._nearest_snapshot(snaps, until)
            self._restore_state(snapshot)
            self._replay_to(ts, total, base, until)
            yield from self._on_failure(interrupt.cause)
            return True
        if registered:
            gate.end_jump(self)
        return True

    def _plan_iteration(
        self, t: float, total: float, base: float
    ) -> Tuple[List[tuple], float, bool]:
        """One stepped-path main-loop iteration, computed arithmetically.

        Returns ``(ops, end, completed)``: the ordered effect list the
        stepped path would produce starting at virtual time *t* from
        the engine's current state, the virtual time after the
        iteration, and whether the work completes within it.  Pure —
        nothing is applied here.

        Every float expression below replicates, operation for
        operation and in program order, what :meth:`run` /
        :meth:`_work_to` / :meth:`_checkpoint` compute on the stepped
        path (wake times are ``started + duration`` there too, via the
        kernel's ``now + delay`` scheduling); any edit on either side
        needs its mirror, which the fast-path bit-identity tests
        enforce.
        """
        plan = self.plan
        eps = self._EPS
        done = self._done
        furthest = self._furthest
        ops: List[tuple] = []
        boundary = int(done / base + eps) + 1
        target = min(boundary * base, total)
        while done < target - eps:
            if done < furthest - eps:
                segment_end = min(furthest, target)
                speed = plan.recovery_speedup
                field_name = "rework_time_s"
            else:
                segment_end = target
                speed = 1.0
                field_name = "work_time_s"
            duration = (segment_end - done) / speed
            started = t
            t = started + duration
            ops.append(("seg", field_name, started, t, duration, speed))
            done = min(total, done + duration * speed)
            furthest = max(furthest, done)
        if done >= total - eps:
            return ops, t, True
        level = plan.boundary_level(boundary)
        if self._pending_commit is not None:
            idx, work, commit_time = self._pending_commit
            if commit_time <= t + eps:
                ops.append(("settle_commit", idx, work))
            else:
                ops.append(("settle_void", idx))
        blocking = level.cost_s * level.blocking_fraction
        started = t
        t = started + blocking
        ops.append(("ckpt", level.index, started, t))
        if level.blocking_fraction >= 1.0:
            ops.append(("commit", level.index, done))
        else:
            remainder = level.cost_s - blocking
            ops.append(("pending", level.index, done, t + remainder))
        return ops, t, False

    def _apply_op(self, op: tuple) -> None:
        """Apply one planned effect with the exact float operations the
        stepped path's code and stats handlers would perform."""
        kind = op[0]
        if kind == "seg":
            _, field_name, started, end, duration, speed = op
            self._advance(duration, speed)
            self._note_stat(field_name, started, end)
        elif kind == "ckpt":
            _, _level_index, started, end = op
            self._note_stat("checkpoint_time_s", started, end)
        elif kind == "commit" or kind == "settle_commit":
            _, level_index, work = op
            if kind == "settle_commit":
                self._pending_commit = None
            self._saved[level_index] = work
            self._degraded.clear()
            counts = self.stats.checkpoints_taken
            counts[level_index] = counts.get(level_index, 0) + 1
        elif kind == "settle_void":
            self._pending_commit = None
            self.stats.failed_checkpoints += 1
        else:  # "pending"
            _, level_index, work, commit_time = op
            self._pending_commit = (level_index, work, commit_time)

    def _note_stat(self, field_name: str, start: float, end: float) -> None:
        """The fast path's stand-in for one ActivitySpan round trip:
        same zero-length guard and accumulation float op as
        :meth:`_note` + :meth:`ExecutionStats._on_span`, without the
        event object (valid because no shared-bus subscriber wants
        :class:`ActivitySpan` while the fast path runs)."""
        if end > start:
            stats = self.stats
            setattr(stats, field_name, getattr(stats, field_name) + (end - start))

    def _snapshot_state(self) -> tuple:
        """Everything a jump's ops may mutate, for replay-on-interrupt."""
        stats = self.stats
        return (
            self._done,
            self._furthest,
            dict(self._saved),
            set(self._degraded),
            self._pending_commit,
            stats.work_time_s,
            stats.rework_time_s,
            stats.checkpoint_time_s,
            stats.failed_checkpoints,
            dict(stats.checkpoints_taken),
        )

    def _restore_state(self, snapshot: tuple) -> None:
        stats = self.stats
        (
            self._done,
            self._furthest,
            self._saved,
            self._degraded,
            self._pending_commit,
            stats.work_time_s,
            stats.rework_time_s,
            stats.checkpoint_time_s,
            stats.failed_checkpoints,
            stats.checkpoints_taken,
        ) = snapshot

    def _replay_to(
        self, t: float, total: float, base: float, until: float
    ) -> None:
        """Re-derive the jump's segments from the restored snapshot and
        apply them up to the interrupt instant *until*.

        Segments ending before *until* are applied in full (their
        synchronous follow-up ops included — on the stepped path those
        ran inside wake events strictly before the interrupt).  The
        first segment reaching *until* is the interrupted one: a
        failure at a wake instant preempts the wake, so ties cut here
        too, with exactly the stepped path's interrupt-handler
        arithmetic.  The caller then runs :meth:`_on_failure`.
        """
        while True:
            ops, end, completed = self._plan_iteration(t, total, base)
            for op in ops:
                kind = op[0]
                if kind == "seg":
                    _, field_name, started, seg_end, _duration, speed = op
                    if seg_end < until:
                        self._apply_op(op)
                        continue
                    elapsed = until - started
                    self._advance(elapsed, speed)
                    self._note_stat(field_name, started, until)
                    return
                if kind == "ckpt":
                    _, _level_index, started, seg_end = op
                    if seg_end < until:
                        self._apply_op(op)
                        continue
                    self._note_stat("checkpoint_time_s", started, until)
                    self.stats.failed_checkpoints += 1
                    return
                self._apply_op(op)
            t = end
            if completed or end >= until:  # pragma: no cover - defensive
                return

    def _nearest_snapshot(
        self, snaps: List[Tuple[float, tuple]], until: float, inclusive: bool = False
    ) -> Tuple[float, tuple]:
        """The newest ``(virtual_time, snapshot)`` from which replaying
        reaches the interrupt instant *until*.

        Failure replay needs a snapshot strictly *before* the failure —
        a failure delivered exactly at a planned wake instant preempts
        the wake, so the op ending there must be replayed as partial,
        from earlier state.  A snapshot whose timestamp *equals* the
        failure instant was taken after applying that op, too late.
        When no snapshot qualifies (the failure lands at the jump's
        very start), the pre-jump snapshot replays an elapsed-zero
        partial op, exactly the stepped path's interrupt-at-suspension
        arithmetic.  Abort resume passes ``inclusive=True``: operations
        ending at the abort instant completed on the stepped path
        (wakes precede the mapping event that flips the gate), so
        state exactly *at* the instant is usable.
        """
        best = snaps[0]
        for ts, snap in snaps:
            if ts < until or (inclusive and ts <= until):
                best = (ts, snap)
            else:
                break
        return best

    def _resume_after_abort(
        self, snaps: List[Tuple[float, tuple]], total: float, base: float
    ) -> Generator:
        """Resume stepped-equivalently after the gate aborted a jump.

        The abort lands at the instant T a mapping event closed the
        gate.  On the stepped path nothing special happens at T: wake
        events at (T, wake-priority) ran *before* the mapping, so every
        planned operation ending at or before T completed, and exactly
        one timed operation is in flight across T.  This method rebuilds
        that picture: restore the newest snapshot at or before T,
        re-apply completed operations arithmetically, then finish the
        in-flight operation with a real kernel sleep *to its original
        planned end* (never re-deriving the remainder: ``(T - s) +
        (e - T)`` need not equal ``e - s`` in floats, so the op is
        applied with the planner's untouched values).  An in-flight
        pool checkpoint re-acquires a real ticket at T — guaranteed
        immediate because stepped-path holders plus mid-jump
        checkpointers never exceed the pre-flip user count, which the
        open gate bounded by the slot count.  Failures during the
        resume sleeps take exactly the stepped path's interrupt
        branches.  Control then returns to the main loop, which
        re-derives the remaining boundary structure from state under
        the now-closed gate.
        """
        until = self._sim.now
        ts, snapshot = self._nearest_snapshot(snaps, until, inclusive=True)
        self._restore_state(snapshot)
        t = ts
        while True:
            ops, end, completed = self._plan_iteration(t, total, base)
            for position, op in enumerate(ops):
                kind = op[0]
                if kind == "seg":
                    _, field_name, started, seg_end, _duration, speed = op
                    if seg_end <= until:
                        self._apply_op(op)
                        continue
                    try:
                        yield self._sim.timeout_at(seg_end)
                    except Interrupt as interrupt:
                        elapsed = self._sim.now - started
                        self._advance(elapsed, speed)
                        self._note_stat(field_name, started, self._sim.now)
                        yield from self._on_failure(interrupt.cause)
                        return
                    self._apply_op(op)
                    following = (
                        ops[position + 1] if position + 1 < len(ops) else None
                    )
                    if following is not None and following[0] != "seg":
                        # That was the iteration's last work segment, so
                        # the position now sits exactly on the boundary —
                        # where the main loop would derive the *next*
                        # boundary and skip this one's checkpoint.  Take
                        # it here, through the real stepped code: the
                        # gate is closed now, so a pool level may
                        # genuinely queue.
                        ckpt_op = next(o for o in ops if o[0] == "ckpt")
                        level = self._levels_by_index[ckpt_op[1]]
                        yield from self._checkpoint(level)
                    # Remaining mid-iteration segments (a recovery ->
                    # work transition) re-derive exactly from state in
                    # the main loop.
                    return
                if kind == "ckpt":
                    _, level_index, started, seg_end = op
                    if seg_end <= until:
                        self._apply_op(op)
                        continue
                    level = self._levels_by_index[level_index]
                    pool = (
                        self._resources.get(level.shared_resource)
                        if level.shared_resource is not None
                        else None
                    )
                    ticket = pool.request() if pool is not None else None
                    try:
                        yield self._sim.timeout_at(seg_end)
                    except Interrupt as interrupt:
                        if ticket is not None:
                            ticket.release()
                        self._note_stat(
                            "checkpoint_time_s", started, self._sim.now
                        )
                        self.stats.failed_checkpoints += 1
                        yield from self._on_failure(interrupt.cause)
                        return
                    if ticket is not None:
                        ticket.release()
                    self._apply_op(op)
                    # The commit/pending op right after the checkpoint
                    # is synchronous at its end instant.
                    self._apply_op(ops[position + 1])
                    return
                self._apply_op(op)
            t = end
            # An iteration ending exactly at T completed before the
            # flip (its wake preceded the mapping event), so only
            # ``completed`` exits: the next iteration re-plans from t
            # and its first timed op crosses T as the in-flight one.
            if completed:
                return

    def _checkpoint(self, level: CheckpointLevel) -> Generator:
        """Take a checkpoint at *level*; on failure the in-progress
        checkpoint is discarded.

        With ``blocking_fraction < 1`` only the blocking portion stalls
        execution; the checkpoint commits once its full cost has
        elapsed in the background (or is voided by an earlier failure
        or by the next checkpoint starting first)."""
        self._settle_pending_commit()
        try:
            ticket = yield from self._acquire(level)
        except Interrupt as interrupt:
            self._checkpoint_failed(level.index)
            yield from self._on_failure(interrupt.cause)
            return False
        blocking = level.cost_s * level.blocking_fraction
        started = self._sim.now
        try:
            yield blocking
        except Interrupt as interrupt:
            if ticket is not None:
                ticket.release()
            self._note("checkpoint", started, self._sim.now)
            self._checkpoint_failed(level.index)
            yield from self._on_failure(interrupt.cause)
            return False
        if ticket is not None:
            ticket.release()
        self._note("checkpoint", started, self._sim.now)
        if level.blocking_fraction >= 1.0:
            self._commit(level.index, self._done)
        else:
            remainder = level.cost_s - blocking
            self._pending_commit = (
                level.index,
                self._done,
                self._sim.now + remainder,
            )
        return True

    def _commit(self, level_index: int, work: float) -> None:
        self._saved[level_index] = work
        self._degraded.clear()  # checkpoints repair failed replicas
        self._publish(
            CheckpointTaken(
                time=self._sim.now,
                app_id=self._app_id,
                technique=self._technique,
                level_index=level_index,
                position=work,
            )
        )

    def _checkpoint_failed(self, level_index: int) -> None:
        self._publish(
            CheckpointFailed(
                time=self._sim.now,
                app_id=self._app_id,
                technique=self._technique,
                level_index=level_index,
            )
        )

    def _settle_pending_commit(self) -> None:
        """Apply an in-flight semi-blocking checkpoint if its full cost
        has elapsed; otherwise void it (a failure arrived first, or the
        next checkpoint superseded it)."""
        if self._pending_commit is None:
            return
        level_index, work, commit_time = self._pending_commit
        self._pending_commit = None
        if commit_time <= self._sim.now + self._EPS:
            self._commit(level_index, work)
        else:
            self._checkpoint_failed(level_index)

    def _absorbed_by_replica(self, failure: Failure) -> bool:
        """Redundancy rule: True when live replicas keep every struck
        virtual node running (no interruption).

        Handles burst failures (``failure.width > 1``): the burst
        strikes contiguous physical nodes, so it can take out both
        (adjacent) replicas of a virtual node at once — the spatial-
        correlation hazard of contiguous partner placement."""
        replicas = self.plan.replicas
        if replicas is None:
            return False
        start = failure.node_id % replicas.physical_nodes
        stop = min(start + failure.width, replicas.physical_nodes)
        hits: Dict[int, int] = {}
        for phys in range(start, stop):
            virtual = replicas.virtual_of_physical(phys)
            hits[virtual] = hits.get(virtual, 0) + 1
        for virtual, struck in hits.items():
            total = replicas.replicas_of(virtual)
            already_dead = 1 if (total == 2 and virtual in self._degraded) else 0
            if already_dead + struck >= total:
                return False  # some virtual node lost all replicas
        for virtual in hits:
            if replicas.replicas_of(virtual) == 2:
                self._degraded.add(virtual)
        self._publish(
            ReplicaAbsorbed(
                time=self._sim.now,
                app_id=self._app_id,
                technique=self._technique,
                degraded_virtual_nodes=len(self._degraded),
            )
        )
        return True

    def _failure_injected(self, failure: Optional[Failure], severity: int) -> None:
        """Publish the delivery of one failure interrupt.  *severity*
        covers interrupts whose cause carries no failure object."""
        if failure is not None:
            self._publish(
                FailureInjected(
                    time=self._sim.now,
                    app_id=self._app_id,
                    node_id=failure.node_id,
                    severity=failure.severity,
                    width=failure.width,
                )
            )
        else:
            self._publish(
                FailureInjected(
                    time=self._sim.now,
                    app_id=self._app_id,
                    node_id=-1,
                    severity=severity,
                )
            )

    def _on_failure(self, failure: Failure) -> Generator:
        """Handle one delivered failure: maybe absorb, else restart."""
        self._failure_injected(failure, failure.severity if failure else 0)
        self._settle_pending_commit()
        if self._absorbed_by_replica(failure):
            return
        severity = failure.severity
        retry = False
        while True:
            level = self._restore_level(severity)
            self._publish(
                RestartStarted(
                    time=self._sim.now,
                    app_id=self._app_id,
                    technique=self._technique,
                    severity=severity,
                    level_index=level.index,
                    retry=retry,
                )
            )
            try:
                ticket = yield from self._acquire(level)
            except Interrupt as interrupt:
                cause = interrupt.cause
                self._failure_injected(cause, severity)
                severity = max(severity, cause.severity if cause else severity)
                retry = True
                continue
            started = self._sim.now
            try:
                yield level.restart_s
            except Interrupt as interrupt:
                # Failure during restart: restart the restart, from the
                # worst severity seen (replicas are all mid-restore, so
                # no absorption applies here).
                if ticket is not None:
                    ticket.release()
                self._note("restart", started, self._sim.now)
                cause = interrupt.cause
                self._failure_injected(cause, severity)
                severity = max(severity, cause.severity if cause else severity)
                retry = True
                continue
            if ticket is not None:
                ticket.release()
            self._note("restart", started, self._sim.now)
            break
        self._publish(
            RecoveryCompleted(
                time=self._sim.now,
                app_id=self._app_id,
                technique=self._technique,
                level_index=level.index,
                position=self._saved[level.index],
            )
        )
        self._degraded.clear()
        self._done = self._saved[level.index]

    def _acquire(self, level: CheckpointLevel) -> Generator:
        """Queue for the level's shared resource, if any.

        Returns a held ticket (or None when uncontended); propagates
        interrupts after abandoning the request.
        """
        pool = (
            self._resources.get(level.shared_resource)
            if level.shared_resource is not None
            else None
        )
        if pool is None:
            return None
        ticket = pool.request()
        started = self._sim.now
        try:
            yield from ticket.wait()
        except Interrupt:
            ticket.abandon()
            self._note("wait", started, self._sim.now)
            raise
        self._note("wait", started, self._sim.now)
        return ticket

    def _note(self, activity: str, start: float, end: float) -> None:
        """Publish the closed activity span (zero-length spans are
        skipped; they carry no time)."""
        if end > start:
            self._publish(
                ActivitySpan(
                    time=end,
                    app_id=self._app_id,
                    technique=self._technique,
                    activity=activity,
                    start=start,
                    end=end,
                )
            )

    def _restore_level(self, severity: int) -> CheckpointLevel:
        """The level holding the newest state recoverable at *severity*
        (ties favour the cheaper restart)."""
        usable = self.plan.recovery_levels(severity)
        return max(usable, key=lambda lvl: (self._saved[lvl.index], -lvl.restart_s))
