"""The in-process workloads: ``scaling``, ``datacenter`` and ``observed``.

Each timed iteration issues the workload's figure request through the
public figure drivers (``repro.experiments.figN.run`` with a generated
config), rendering the JSON artifact exactly as
``run_request(format="json")`` does, for two new study seeds
(:func:`common.derive_seed`):

- a ``fresh`` request runs the study for the first seed with the
  result cache on, as the CLI does: its cells miss (Figs. 4 and 5
  share their unbiased Parallel Recovery cells, which the second
  figure then hits);
- a ``watched`` request does the same for the second seed and is
  followed through per-cell progress callbacks, as ``repro figN
  --progress`` does;
- a block of ``cached`` requests then asks for both artifacts again,
  :data:`CACHED_REPEATS` times each, and must be served entirely from
  the run's own result cache.

Requests are kept small (a second or less) so that a run of 20 seconds
has a few dozen samples of each kind, and every kind is sampled all
through the run rather than in one stretch of it.  Each computed
request and each block of cached requests is timed between two host
pace readings and divided by their mean (:func:`common.host_pace`).

The ``observed`` workload collects the event stream and metrics of its
computed requests (``observe=True`` plus the files ``--trace-out`` and
``--metrics-out`` write) and, outside the request timings, runs an
unobserved twin of each request whose bytes must match.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from repro.constants import EXASCALE_NODES, SCALING_STUDY_FRACTIONS

from common import (
    DEFAULT_SEED,
    Ledger,
    PaceLog,
    derive_seed,
    p90,
    peak_rss_mb,
    print_sample_counts,
)
from tracing import Tracer

PINNED = Path(__file__).resolve().parent / "pinned.json"

#: Cached requests per artifact and iteration (they are cheap; more
#: samples steady their quantiles).
CACHED_REPEATS = 3

#: Fractions of the observed study: the small end of the Figs. 1-3 grid.
OBSERVED_FRACTIONS = (0.01, 0.06)

#: The computed request kinds of an iteration, in the order they run.
COMPUTED_KINDS = ("fresh", "watched")


@dataclass(frozen=True)
class StudyWorkload:
    name: str
    #: ``(figure module name, config factory taking the study seed)``.
    figures: Tuple[Tuple[str, Callable[[object, int], object]], ...]
    observe: bool


def _scaling(trials: int, fractions: Tuple[float, ...] = SCALING_STUDY_FRACTIONS):
    def make(module, seed):
        return module.config(trials=trials, seed=seed, fractions=fractions)

    return make


def _datacenter(patterns: int, arrivals: int, system_nodes: int):
    def make(module, seed):
        return module.config(
            patterns=patterns,
            arrivals_per_pattern=arrivals,
            system_nodes=system_nodes,
            seed=seed,
        )

    return make


WORKLOADS: Dict[str, StudyWorkload] = {
    # Fig. 1 (A32, 10-year node MTBF) and Fig. 3 (D64, 2.5 years), full
    # fraction grid and all five techniques, one trial per cell.
    "scaling": StudyWorkload(
        "scaling", (("fig1", _scaling(1)), ("fig3", _scaling(1))), observe=False
    ),
    # Figs. 4 and 5: three managers x (three techniques + ideal) and
    # Parallel Recovery vs. Resilience Selection over four biases, on one
    # short arrival pattern (a pattern's cost hardly grows with its
    # arrivals) and a quarter of the exascale machine, which halves
    # the cost of a request.
    "datacenter": StudyWorkload(
        "datacenter",
        (
            ("fig4", _datacenter(1, 8, EXASCALE_NODES // 4)),
            ("fig5", _datacenter(1, 8, EXASCALE_NODES // 4)),
        ),
        observe=False,
    ),
    # The scaling studies at a smaller size, observed.
    "observed": StudyWorkload(
        "observed",
        (
            ("fig1", _scaling(1, OBSERVED_FRACTIONS)),
            ("fig3", _scaling(1, OBSERVED_FRACTIONS)),
        ),
        observe=True,
    ),
}

#: Modules a fresh interpreter imports before it can run the workload.
MODULES = (
    "repro.experiments.fig1",
    "repro.experiments.fig3",
    "repro.experiments.fig4",
    "repro.experiments.fig5",
    "repro.experiments.export",
)


def _render_json(result) -> str:
    from repro.experiments.export import datacenter_to_json, scaling_to_json
    from repro.experiments.runner import ScalingStudyResult

    if isinstance(result, ScalingStudyResult):
        return scaling_to_json(result)
    return datacenter_to_json(result)


class StudyRunner:
    """Issues one workload's requests and keeps their measurements."""

    def __init__(
        self, workload: StudyWorkload, seed: int, out: Path, tracer: Tracer, paces: PaceLog
    ):
        import importlib

        self.workload = workload
        self.seed = seed
        self.out = out
        self.tracer = tracer
        self.paces = paces
        self.cache_dir = out / "cache"
        self.modules = {
            name: importlib.import_module(f"repro.experiments.{name}")
            for name, _ in workload.figures
        }
        self.ledger = Ledger()
        self.export_bytes = 0
        self.first_digest: Optional[str] = None

    def _options(self, metrics=None, on_cell=None):
        from repro.experiments.parallel import ExecutorOptions

        return ExecutorOptions(
            cache=True, cache_dir=self.cache_dir, metrics=metrics, on_cell=on_cell
        )

    def request(self, study_seed: int, options, observe: bool, tag: str) -> str:
        """One figure request: every figure of the workload, run and
        rendered (and, when observed, its event stream written out)."""
        tracer = self.tracer
        texts = []
        for name, make in self.workload.figures:
            module = self.modules[name]
            cfg = make(module, study_seed)
            with tracer.span(f"experiments.{name}.run", "experiments"):
                result = module.run(cfg, options=options, observe=observe)
            with tracer.span("experiments.render", "experiments"):
                texts.append(_render_json(result))
            if observe:
                with tracer.span("obs.export", "obs"):
                    self.export_bytes += self._write_observability(result, f"{tag}-{name}")
        return "\n".join(texts)

    def _write_observability(self, result, stem: str) -> int:
        """Write what ``--trace-out``/``--metrics-out`` write; returns bytes."""
        trace = self.out / f"{stem}.trace.jsonl"
        metrics = self.out / f"{stem}.metrics.json"
        with open(trace, "w", encoding="utf-8") as fh:
            for line in result.trace_lines or ():
                fh.write(line)
                fh.write("\n")
        with open(metrics, "w", encoding="utf-8") as fh:
            json.dump(result.metrics or {}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        size = trace.stat().st_size + metrics.stat().st_size
        trace.unlink()
        metrics.unlink()
        return size

    def iteration(self, index: int, samples: Dict[str, List[float]]) -> None:
        """Run iteration *index*; append its timings to *samples*."""
        try:
            self._iteration(index, samples)
        except Exception as exc:  # a crashed request is a failed operation
            self.ledger.fail(f"iteration {index} raised {exc!r}")

    def _computed(self, index: int, kind: str, study_seed: int):
        """One computed request of *kind*; returns its artifact (the
        unobserved twin's, when observed), its time and cell times
        divided by the host pace read around it, and its metrics, or
        ``None`` when a check failed."""
        from repro.experiments.parallel import ExecutorMetrics

        progress: List[str] = []
        on_cell = (lambda p: progress.append(p.render())) if kind == "watched" else None
        metrics = ExecutorMetrics()
        observe = self.workload.observe
        before = self.paces.read()
        with self.tracer.span(f"bench.{kind}", "bench", new_trace=True):
            started = time.perf_counter()
            text = self.request(
                study_seed, self._options(metrics, on_cell), observe, kind
            )
            elapsed = time.perf_counter() - started
        scale = self.paces.scale(before)
        elapsed *= scale
        cells = [t * scale for t in metrics.cell_wall_s]
        ok = self.ledger.attempt(
            metrics.cells_computed > 0
            and (kind != "watched" or len(progress) == metrics.cells_done),
            f"iteration {index}: {kind} request computed nothing or lost progress",
        )
        if index == 0 and kind == COMPUTED_KINDS[0]:
            self.first_digest = hashlib.sha256(text.encode()).hexdigest()
        if observe:
            # Outside the request timings: the unobserved twin must
            # render the same bytes (fast path vs. stepped path).
            with self.tracer.paused():
                twin = self.request(study_seed, self._options(), False, "twin")
            ok &= self.ledger.attempt(
                twin == text,
                f"iteration {index}: observed {kind} artifact differs from unobserved",
            )
            text = twin
        return (text, elapsed, cells, metrics) if ok else None

    def _iteration(self, index: int, samples: Dict[str, List[float]]) -> None:
        from repro.experiments.parallel import ExecutorMetrics

        computed = {}
        for offset, kind in enumerate(COMPUTED_KINDS):
            study_seed = derive_seed(
                self.workload.name, self.seed, len(COMPUTED_KINDS) * index + offset
            )
            done = self._computed(index, kind, study_seed)
            if done is None:
                return
            computed[study_seed] = done

        cached_s: List[float] = []
        hits = cells_done = 0
        before = self.paces.read()
        for _ in range(CACHED_REPEATS):
            for study_seed, (reference, _, _, _) in computed.items():
                metrics = ExecutorMetrics()
                with self.tracer.span("bench.cached", "bench", new_trace=True):
                    started = time.perf_counter()
                    text = self.request(
                        study_seed, self._options(metrics), False, "cached"
                    )
                    cached_s.append(time.perf_counter() - started)
                if not self.ledger.attempt(
                    text == reference and metrics.cache_hits == metrics.cells_done > 0,
                    f"iteration {index}: cached request was not an exact full hit",
                ):
                    return
                hits += metrics.cache_hits
                cells_done += metrics.cells_done

        scale = self.paces.scale(before)
        for kind, (_, elapsed, cells, metrics) in zip(COMPUTED_KINDS, computed.values()):
            samples["study_s"].append(elapsed)
            samples[kind].append(elapsed)
            samples["cells"].extend(cells)
            hits += metrics.cache_hits
            cells_done += metrics.cells_done
        samples["cached"].extend(t * scale for t in cached_s)
        samples["hits"].append(hits)
        samples["cells_done"].append(cells_done)

    def check_pinned(self) -> None:
        """For the default seed, the first artifact's digest is pinned."""
        if self.seed != DEFAULT_SEED or self.workload.name not in ("scaling", "datacenter"):
            return
        pinned = json.loads(PINNED.read_text())[self.workload.name]
        self.ledger.attempt(
            self.first_digest == pinned,
            f"default-seed artifact digest {self.first_digest} != pinned {pinned}",
        )


def _empty_samples() -> Dict[str, List[float]]:
    return {k: [] for k in ("study_s", "fresh", "watched", "cached", "cells", "hits", "cells_done")}


def _complete(samples: Dict[str, List[float]]) -> bool:
    """Whether a phase has a sample of every request kind."""
    return all(samples[kind] for kind in COMPUTED_KINDS + ("cached",))


def end_to_end(samples: Dict[str, List[float]]) -> Dict[str, float]:
    """The end-to-end metrics of one phase's samples (setup excluded)."""
    print_sample_counts(
        {kind: len(samples[kind]) for kind in COMPUTED_KINDS + ("cached", "cells")}
    )
    requests = samples["study_s"] + samples["cached"]
    return {
        "study_s": median(samples["study_s"]),
        "cell_p50_ms": median(samples["cells"]) * 1e3,
        "cell_p90_ms": p90(samples["cells"]) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "jobs_per_s": len(requests) / sum(requests),
        "fresh_p50_ms": median(samples["fresh"]) * 1e3,
        "fresh_p90_ms": p90(samples["fresh"]) * 1e3,
        "cached_p50_ms": median(samples["cached"]) * 1e3,
        "cached_p90_ms": p90(samples["cached"]) * 1e3,
        "watched_p50_ms": median(samples["watched"]) * 1e3,
        "watched_p90_ms": p90(samples["watched"]) * 1e3,
    }


def _phase(
    runner: StudyRunner, first_index: int, deadline: float
) -> Tuple[Dict[str, List[float]], int]:
    """Timed iterations until *deadline* and until every request kind
    has a sample (unless a check failed); returns the samples and the
    next iteration index."""
    samples = _empty_samples()
    index = first_index
    while True:
        runner.iteration(index, samples)
        index += 1
        if time.perf_counter() >= deadline and (
            _complete(samples) or runner.ledger.failures
        ):
            return samples, index


def run(
    name: str, seed: int, seconds: float, trace: bool, out: Path, tracer: Tracer,
    paces: PaceLog,
):
    """Run workload *name*; returns ``(runner, end-to-end metrics,
    (per-layer extras, traced iterations))``, with ``None`` for what the
    run could not measure."""
    workload = WORKLOADS[name]
    runner = StudyRunner(workload, seed, out, tracer, paces)
    started = time.perf_counter()
    if not trace:
        samples, _ = _phase(runner, 0, started + seconds)
        runner.check_pinned()
        return runner, end_to_end(samples) if _complete(samples) else None, None

    # Traced run: an untraced half, then the same loop with spans on.
    untraced, index = _phase(runner, 0, started + seconds / 2)
    runner.check_pinned()
    import layers

    layers.install(tracer)
    tracer.enabled = True
    try:
        runner.export_bytes = 0
        traced, _ = _phase(runner, index, started + seconds)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    if not (_complete(untraced) and _complete(traced)):
        return runner, None, None
    iterations = len(traced["hits"])
    cells = sum(traced["cells_done"])
    extras = {
        "obs.export_bytes": runner.export_bytes / max(iterations, 1),
        "experiments.cache_hit_ratio": sum(traced["hits"]) / cells if cells else 0.0,
        "trace.study_s": median(traced["study_s"]),
        "trace.overhead_s": median(traced["study_s"]) - median(untraced["study_s"]),
    }
    return runner, end_to_end(untraced), (extras, iterations)
