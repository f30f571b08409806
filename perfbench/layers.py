"""Where the traced run records spans, and the per-layer metrics it
derives from them.

:func:`install` wraps the public boundaries of each ``repro`` layer
from the outside (see :mod:`tracing`); :func:`layer_metrics` turns the
recorded spans, leaf time and counters into the ``per_layer`` metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List

from common import p90
from tracing import Tracer

#: Layers whose self time the traced run reports (``<layer>.self_ms``).
SELF_TIME_LAYERS = (
    "bench",
    "experiments",
    "core",
    "core.execution",
    "core.selection",
    "sim",
    "resilience",
    "rm",
    "platform",
    "obs",
    "service.http",
    "service.sse",
)

#: The per-layer metrics every ``--trace 1`` run reports, with units.
PER_LAYER: Dict[str, str] = {
    "cli.import_s": "s",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "core.trial_p50_ms": "ms",
    "core.trial_p90_ms": "ms",
    "core.execution.fast_jumps": "count",
    "core.execution.fast_share": "ratio",
    "failures.injected_per_trial": "count",
    "resilience.plan_calls": "count",
    "resilience.plan_ms": "ms",
    "resilience.plan_hit_ratio": "ratio",
    "rm.map_calls": "count",
    "rm.map_us": "us",
    "platform.alloc_calls": "count",
    "platform.alloc_us": "us",
    "core.selection.select_calls": "count",
    "core.selection.select_us": "us",
    "obs.events": "count",
    "obs.export_bytes": "bytes",
    "obs.sink_ms": "ms",
    "service.http.submit_p50_ms": "ms",
    "service.http.submit_p90_ms": "ms",
    "service.http.status_p50_ms": "ms",
    "service.http.status_p90_ms": "ms",
    "service.http.result_p50_ms": "ms",
    "service.http.result_p90_ms": "ms",
    "service.store.queue_wait_ms": "ms",
    "service.agent.run_ms": "ms",
    "service.sse.first_frame_ms": "ms",
    "service.sse.frames_per_job": "count",
    "service.client.polls_per_job": "count",
    "experiments.cache_hit_ratio": "ratio",
    **{f"{layer}.self_ms": "ms" for layer in SELF_TIME_LAYERS},
    "trace.study_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "bench.host_pace": "ratio",
}


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def install(tracer: Tracer) -> None:
    """Wrap the in-process layer boundaries (restore with
    ``tracer.uninstall()``)."""
    import repro.core.datacenter as datacenter
    import repro.core.single_app as single_app
    import repro.experiments.runner as runner
    import repro.resilience  # noqa: F401  (registers every technique class)
    import repro.resilience.multilevel as multilevel
    import repro.rm.registry  # noqa: F401  (imports every manager class)
    from repro.core.execution import ResilientExecution
    from repro.core.selection import FixedSelector, ResilienceSelection
    from repro.obs.sinks import JsonlExportSink, MetricsSink
    from repro.platform.system import HPCSystem
    from repro.resilience.base import ResilienceTechnique
    from repro.rm.base import ResourceManager
    from repro.sim.engine import Simulator
    from repro.sim.process import Process

    engines: List[object] = []

    def trial_done(failures: int) -> None:
        jumps = sum(engine.fast_jumps for engine in engines)
        engines.clear()
        tracer.count("trials")
        tracer.count("failures", failures)
        tracer.count("fast_jumps", jumps)
        tracer.count("fast_trials", 1 if jumps else 0)

    # experiments -> core: one cell per call, each its own trace.
    tracer.wrap(runner, "run_trials", "core.run_trials", "core", new_trace=True)
    tracer.wrap(
        runner,
        "run_datacenter_batch",
        "core.run_datacenter_batch",
        "core",
        new_trace=True,
    )
    # core: one trial per call.
    tracer.wrap(
        single_app,
        "simulate_application",
        "core.trial",
        "core",
        after=lambda stats, a, k, s: trial_done(stats.failures),
    )
    tracer.wrap(
        datacenter,
        "run_datacenter",
        "core.trial",
        "core",
        after=lambda result, a, k, s: trial_done(result.failures_injected),
    )

    # core.execution: engines are counted for their fast-path jumps.
    def counting_init(original):
        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            if tracer.enabled:
                engines.append(self)

        return init

    tracer.patch(ResilientExecution, "__init__", counting_init)

    # Simulation process bodies (the execution engine's generator, the
    # failure driver, datacenter job lifecycles) run as kernel
    # callbacks; timing each resumption as a leaf separates them from
    # the kernel's own queue work.
    tracer.wrap_leaf(Process, "_step", "core.execution.process_step")

    # sim: the kernel's run loop, with the events it executed.
    def traced_run(original):
        def run(self, *args, **kwargs):
            before = self.event_count
            handle = tracer.begin("sim.run", "sim")
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.end(handle)
                tracer.count("sim_events", self.event_count - before)

        return run

    tracer.patch(Simulator, "run", traced_run)

    # resilience: technique planning and the multilevel optimiser.
    for cls in _subclasses(ResilienceTechnique):
        if "plan" in cls.__dict__:
            tracer.wrap(cls, "plan", "resilience.plan", "resilience")
    tracer.wrap(
        multilevel, "optimize_schedule", "resilience.optimize_schedule", "resilience"
    )
    tracer.wrap(datacenter.PlanCache, "plan_for", "core.plan_for", "core")

    # rm, platform, core.selection.
    for cls in _subclasses(ResourceManager):
        if "map_applications" in cls.__dict__:
            tracer.wrap(cls, "map_applications", "rm.map_applications", "rm")
    tracer.wrap(HPCSystem, "allocate", "platform.allocate", "platform")
    tracer.wrap(HPCSystem, "release", "platform.release", "platform")
    for cls in (FixedSelector, ResilienceSelection):
        tracer.wrap(cls, "select", "core.selection.select", "core.selection")

    # obs: sink handlers run once per domain event, so they are leaves.
    tracer.wrap_leaf(JsonlExportSink, "_on_event", "obs.export_sink")
    tracer.wrap_leaf(MetricsSink, "_on_event", "obs.metrics_sink")


def _outermost(spans, name: str):
    """Spans called *name* that are not nested in another of the same name."""
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        nested = False
        while parent is not None:
            if spans[parent].name == name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            out.append(span)
    return out


def layer_metrics(
    tracer: Tracer, iterations: int, extra: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics of the traced phase.

    Counts and times marked "per iteration" in the README are divided
    by *iterations* (timed iterations of the traced phase).  *extra*
    carries what the workload measured itself (service timings,
    start-up import, export bytes, trace overhead).
    """
    spans = tracer.finished()
    per = 1.0 / max(iterations, 1)
    counters = tracer.counters
    trials = counters.get("trials", 0)

    def durations(name: str) -> List[float]:
        return [s.duration for s in _outermost(spans, name)]

    trial_s = durations("core.trial")
    plan_s = durations("resilience.plan")
    plan_for = _outermost(spans, "core.plan_for")
    plan_for_ids = {id(s) for s in plan_for}
    misses = sum(
        1
        for s in spans
        if s.name == "resilience.plan"
        and s.parent is not None
        and id(spans[s.parent]) in plan_for_ids
    )
    map_s = durations("rm.map_applications")
    alloc_s = durations("platform.allocate")
    select_s = durations("core.selection.select")
    events = counters.get("sim_events", 0)
    self_by_layer = tracer.layer_self_times()
    leaf = tracer.leaf_totals

    metrics: Dict[str, float] = {
        "sim.events": events * per,
        "sim.us_per_event": (sum(trial_s) / events * 1e6) if events else 0.0,
        "core.trial_p50_ms": median(trial_s) * 1e3 if trial_s else 0.0,
        "core.trial_p90_ms": p90(trial_s) * 1e3 if trial_s else 0.0,
        "core.execution.fast_jumps": counters.get("fast_jumps", 0) * per,
        "core.execution.fast_share": (
            counters.get("fast_trials", 0) / trials if trials else 0.0
        ),
        "failures.injected_per_trial": (
            counters.get("failures", 0) / trials if trials else 0.0
        ),
        "resilience.plan_calls": len(plan_s) * per,
        "resilience.plan_ms": sum(plan_s) * 1e3 * per,
        "resilience.plan_hit_ratio": (
            1.0 - misses / len(plan_for) if plan_for else 0.0
        ),
        "rm.map_calls": len(map_s) * per,
        "rm.map_us": (sum(map_s) / len(map_s) * 1e6) if map_s else 0.0,
        "platform.alloc_calls": len(alloc_s) * per,
        "platform.alloc_us": (sum(alloc_s) / len(alloc_s) * 1e6) if alloc_s else 0.0,
        "core.selection.select_calls": len(select_s) * per,
        "core.selection.select_us": (
            sum(select_s) / len(select_s) * 1e6 if select_s else 0.0
        ),
        "obs.events": tracer.leaf_calls.get("obs.export_sink", 0) * per,
        "obs.sink_ms": (
            leaf.get("obs.export_sink", 0.0) + leaf.get("obs.metrics_sink", 0.0)
        )
        * 1e3
        * per,
        "trace.spans": float(len(spans)),
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_ms"] = self_by_layer.get(layer, 0.0) * 1e3 * per
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)
    metrics.update(extra)
    return metrics
