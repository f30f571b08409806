"""The ``fleet`` workload: a control plane, one remote agent, and a
closed loop of client threads.

``repro serve --workers 0 --store sqlite://...`` runs the control plane
and one ``repro agent`` with :data:`AGENT_WORKERS` executor threads
runs the jobs.  :data:`CLIENTS` client threads repeat rounds of three
steps; in each step every client submits one job of the step's kind
and waits for its result:

- ``fresh``: a small scenario job with a trial offset no other job of
  the run uses, so the agent's result cache misses;
- ``cached``: the client's fresh request of the round again, byte for
  byte, so the agent's result cache hits;
- ``watched``: another fresh job, followed over SSE with
  ``ServiceClient.iter_events`` as ``repro watch`` does.

Latency is measured from submit until the result bytes are fetched,
with the job's execution divided by the host pace
(:meth:`Job.paced_latency_s`).
Between rounds, when no job is in flight, the client process runs the
round's requests itself with ``run_request``: that is the reference
every job's result must equal, and its cells give the fleet's
``cell_p50_ms``/``cell_p90_ms``.  That time is left out of the
measured window.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT,
    Ledger,
    PaceLog,
    child_env,
    derive_seed,
    p90,
    peak_rss_mb,
    print_sample_counts,
)
from tracing import Tracer

#: Closed-loop client threads (the host has two cores).
CLIENTS = 2
#: Seconds a client sleeps between status polls of one job.
CLIENT_POLL_S = 0.02
#: Executor threads of the agent: one per client, so a job never
#: queues behind the other client's job of the same step.
AGENT_WORKERS = CLIENTS
#: The agent's claim-poll interval (``WorkerAgent``'s default; the
#: ``repro agent`` CLI does not change it).
AGENT_POLL_S = 0.05
#: Trials per job; fresh job *k* runs trials ``[k * TRIALS, (k + 1) * TRIALS)``.
TRIALS = 4
#: A job that has not finished after this long counts as failed.
JOB_TIMEOUT_S = 60.0
#: Fleet boots whose median is ``setup_s`` (fewer than the in-process
#: workloads' launches: a boot, its probe job and its teardown take
#: about four times as long).
BOOTS = 3

MODULES = ("repro.service.client", "repro.scenarios.schema")

#: The job kinds of a round, in the order they are submitted.
KINDS = ("fresh", "cached", "watched")


def job_spec(seed: int) -> dict:
    """The scenario every job of a run shares (only trial offsets
    differ): D64 at a 2.5-year node MTBF, two sizes, three techniques."""
    return {
        "scenario": {
            "name": "bench-fleet",
            "title": "benchmark fleet job",
            "description": "small seeded scaling scenario",
        },
        "failures": {"regime": "poisson", "mtbf_years": 2.5},
        "workload": {"study": "scaling", "app_type": "D64", "fractions": [0.03]},
        "techniques": {"names": ["checkpoint_restart", "multilevel", "parallel_recovery"]},
        "run": {"trials": TRIALS, "seed": seed, "format": "json"},
    }


class Fleet:
    """One control plane plus one agent, as subprocesses."""

    def __init__(self, run_dir: Path, tag: str) -> None:
        self.dir = run_dir / tag
        self.dir.mkdir(parents=True)
        self.server: Optional[subprocess.Popen] = None
        self.agent: Optional[subprocess.Popen] = None
        self.url = ""
        self.agent_cache = self.dir / "cache-agent"

    def _launch(self, name: str, args: List[str], cache: Path) -> subprocess.Popen:
        log = open(self.dir / f"{name}.log", "w", encoding="utf-8")
        try:
            return subprocess.Popen(
                [sys.executable, "-u", "-m", "repro", *args],
                stdout=log,
                stderr=subprocess.STDOUT,
                cwd=str(ROOT),
                env=child_env(cache),
            )
        finally:
            log.close()

    def _wait_for(self, name: str, proc: subprocess.Popen, pattern: str) -> "re.Match":
        """Wait until *proc*'s log shows *pattern* (its ready line)."""
        path = self.dir / f"{name}.log"
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            match = re.search(pattern, path.read_text(encoding="utf-8"))
            if match:
                return match
            if proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"{name} never became ready: {path.read_text()[-300:]!r}")

    def start(self) -> None:
        """Boot the control plane, then the agent; returns once the
        agent has registered its site."""
        self.server = self._launch(
            "server",
            ["serve", "--port", "0", "--workers", "0",
             "--store", f"sqlite://{self.dir / 'service.db'}"],
            self.dir / "cache-server",
        )
        self.url = self._wait_for("server", self.server, r"listening on (http://\S+)").group(1)
        self.agent = self._launch(
            "agent",
            ["agent", "--url", self.url, "--site", "bench",
             "--workers", str(AGENT_WORKERS), "--lease-s", "60"],
            self.agent_cache,
        )
        self._wait_for("agent", self.agent, r"serving site bench")

    def probe(self, ledger: Ledger) -> None:
        """Untimed: one ``table1`` job through the booted fleet must
        return the bytes ``run_request`` renders.  Every launch serves
        this job before it is stopped; ``repro serve`` and ``repro
        agent`` print their ready lines before they install their
        SIGTERM handlers, so a fleet stopped the instant it is ready
        may die of the signal instead of draining (a known defect the
        workload does not exercise)."""
        from repro.experiments.entry import StudyRequest, run_request
        from repro.service.client import ServiceClient

        client = ServiceClient(self.url, timeout=30.0)
        try:
            job = client.submit({"experiment": "table1"})
            final = client.wait(job["id"], timeout=JOB_TIMEOUT_S, poll_s=CLIENT_POLL_S)
            ok = final["state"] == "done" and client.result(job["id"]) == (
                run_request(StudyRequest("table1")).text
            )
        except Exception as exc:  # an unreachable or broken fleet
            ok = False
            final = {"state": repr(exc)}
        ledger.attempt(ok, f"probe job on {self.dir.name}: {final['state']}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.server.pid) + peak_rss_mb(self.agent.pid)

    def stop(self, ledger: Ledger) -> None:
        """SIGTERM the agent, then the server; both must exit 0."""
        for name, proc in (("agent", self.agent), ("server", self.server)):
            if proc is None:
                continue
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
            ledger.attempt(code == 0, f"{name} exit {code} after SIGTERM")


class Job:
    __slots__ = (
        "kind", "payload", "id", "latency_s", "text", "record", "polls",
        "first_frame_s", "frames", "error", "delay_s", "scale",
    )

    def __init__(self, kind: str, payload: dict) -> None:
        self.kind = kind
        self.payload = payload
        self.id = None
        self.latency_s = 0.0
        self.text: Optional[str] = None
        self.record: Optional[dict] = None
        self.polls = 0
        self.first_frame_s: Optional[float] = None
        self.frames = 0
        self.error: Optional[str] = None
        #: Seconds the client waited before submitting.
        self.delay_s = 0.0
        #: 1 / the host pace around the job's round (common.host_pace).
        self.scale = 1.0

    def run_s(self) -> float:
        """The agent's execution of the job (claim until completion, as
        the store recorded them): compute, which the host's speed sets."""
        return self.record["finished_at"] - self.record["started_at"]

    def paced_latency_s(self) -> float:
        """Submit until result fetched, with the job's execution divided
        by the host pace.  The rest is mostly waiting on the agent's
        claim poll and the client's status poll, which are timers the
        host's speed does not set, so it is left as measured."""
        run = self.run_s()
        return self.latency_s - run + run * self.scale


class Phase:
    """Jobs and client-side HTTP timings of one measured phase."""

    def __init__(self) -> None:
        self.jobs: List[Job] = []
        self.rounds: List[float] = []
        self.http: Dict[str, List[float]] = {"submit": [], "status": [], "result": []}
        self.lock = threading.Lock()
        #: Cell times of the in-process reference runs.
        self.cells: List[float] = []

    def end_round(
        self, steps: Tuple[List[Job], ...], http_marks: Dict[str, int], scale: float
    ) -> None:
        """Record the round just ended, its timings divided by the host
        pace around it (*scale* is its inverse): the jobs' executions,
        the HTTP calls recorded since *http_marks*, and the round's
        time, which is for each step the slowest client's submit delay
        plus paced latency."""
        for jobs in steps:
            for job in jobs:
                job.scale = scale
        for verb, values in self.http.items():
            values[http_marks[verb]:] = [v * scale for v in values[http_marks[verb]:]]
        self.rounds.append(
            sum(max(job.delay_s + job.paced_latency_s() for job in jobs) for jobs in steps)
        )


class ClientLoop:
    def __init__(self, url: str, seed: int, tracer: Tracer, paces: PaceLog) -> None:
        from repro.experiments.entry import StudyRequest
        from repro.scenarios.schema import parse_scenario
        from repro.scenarios.spec import canonical_json

        self.url = url
        self.tracer = tracer
        self.paces = paces
        scenario = canonical_json(parse_scenario(job_spec(derive_seed("fleet", seed, 0))))
        self.request_for = lambda offset: StudyRequest(
            experiment="scenario",
            format="json",
            trials=TRIALS,
            scenario=scenario,
            trial_offset=offset * TRIALS,
        ).to_payload()
        self.offsets = itertools.count()
        self.rng = random.Random(derive_seed("fleet-arrivals", seed, 0))
        self.offset_lock = threading.Lock()
        #: ``run_request`` text of every request, by canonical payload.
        self.references: Dict[str, str] = {}
        self.cells_per_job = 0

    def reference(self, payload: dict, cells: List[float]) -> str:
        """``run_request`` of *payload* in this process (computed once
        per distinct request); its cell wall times go to *cells*
        (unscaled: the caller divides them by the host pace)."""
        from repro.experiments.entry import StudyRequest, run_request
        from repro.experiments.parallel import ExecutorMetrics, ExecutorOptions

        key = json.dumps(payload, sort_keys=True)
        if key not in self.references:
            metrics = ExecutorMetrics()
            with self.tracer.paused():
                self.references[key] = run_request(
                    StudyRequest.from_payload(payload), ExecutorOptions(metrics=metrics)
                ).text
            cells.extend(metrics.cell_wall_s)
            self.cells_per_job = metrics.cells_done
        return self.references[key]

    def _fresh_payload(self) -> dict:
        with self.offset_lock:
            return self.request_for(next(self.offsets))

    def _http(self, phase: Phase, verb: str, call, *args):
        with self.tracer.span(f"service.http.{verb}", "service.http"):
            started = time.perf_counter()
            try:
                return call(*args)
            finally:
                elapsed = time.perf_counter() - started
                with phase.lock:
                    phase.http[verb].append(elapsed)

    def _polled(self, client, phase: Phase, job: Job) -> None:
        started = time.perf_counter()
        job.id = self._http(phase, "submit", client.submit, job.payload)["id"]
        deadline = started + JOB_TIMEOUT_S
        while True:
            record = self._http(phase, "status", client.status, job.id)
            job.polls += 1
            if record["state"] in ("done", "failed", "cancelled"):
                break
            if time.perf_counter() > deadline:
                raise TimeoutError(f"job {job.id} still {record['state']}")
            time.sleep(CLIENT_POLL_S)
        job.record = record
        if record["state"] != "done":
            raise RuntimeError(f"job {job.id} ended {record['state']}")
        job.text = self._http(phase, "result", client.result, job.id)
        job.latency_s = time.perf_counter() - started

    def _watched(self, client, phase: Phase, job: Job) -> None:
        started = time.perf_counter()
        job.id = self._http(phase, "submit", client.submit, job.payload)["id"]
        subscribed = time.perf_counter()
        end_state = None
        with self.tracer.span("service.sse.stream", "service.sse"):
            for frame in client.iter_events(job.id):
                if job.first_frame_s is None:
                    job.first_frame_s = time.perf_counter() - subscribed
                job.frames += 1
                if frame["event"] == "end":
                    # {"state": ...} or {"kind": "job.<state>", "seq": ...}
                    data = frame["data"]
                    end_state = data.get("state") or data.get("kind", "").split(".")[-1]
        if end_state != "done":
            raise RuntimeError(f"watched job {job.id} ended {end_state}")
        job.text = self._http(phase, "result", client.result, job.id)
        job.latency_s = time.perf_counter() - started
        job.record = client.status(job.id)

    def _run_job(self, client, phase: Phase, job: Job, delay_s: float) -> bool:
        job.delay_s = delay_s
        time.sleep(delay_s)
        with phase.lock:
            phase.jobs.append(job)
        try:
            with self.tracer.span(f"bench.{job.kind}", "bench", new_trace=True):
                if job.kind == "watched":
                    self._watched(client, phase, job)
                else:
                    self._polled(client, phase, job)
        except Exception as exc:  # a failed, refused or lost job
            job.error = repr(exc)
            return False
        return True

    def phase(self, deadline: float) -> Phase:
        """Rounds until *deadline*.  The clients run in lockstep: in each
        step every client submits one job of the same kind and waits for
        it, so a job queues behind jobs of its own kind only."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.service.client import NO_RETRY, ServiceClient

        phase = Phase()
        clients = [
            ServiceClient(self.url, timeout=30.0, retry=NO_RETRY) for _ in range(CLIENTS)
        ]
        with ThreadPoolExecutor(max_workers=CLIENTS, thread_name_prefix="client") as pool:
            while time.perf_counter() < deadline:
                http_marks = {verb: len(values) for verb, values in phase.http.items()}
                before = self.paces.read()
                fresh = [self._fresh_payload() for _ in clients]
                steps = (
                    [Job("fresh", payload) for payload in fresh],
                    [Job("cached", json.loads(json.dumps(payload))) for payload in fresh],
                    [Job("watched", self._fresh_payload()) for _ in clients],
                )
                ok = True
                for jobs in steps:
                    # A seeded random delay before each submit spreads
                    # arrivals over the agent's claim-poll period, so
                    # the loop cannot lock onto its phase.
                    futures = [
                        pool.submit(
                            self._run_job, client, phase, job,
                            self.rng.uniform(0.0, AGENT_POLL_S),
                        )
                        for client, job in zip(clients, jobs)
                    ]
                    ok = all([f.result() for f in futures]) and ok
                    if not ok:
                        break
                if not ok:
                    break
                phase.end_round(steps, http_marks, self.paces.scale(before))
                # No job is in flight now: compute the round's requests
                # here, outside the measured window.
                cells: List[float] = []
                before = self.paces.read()
                for jobs in steps:
                    for job in jobs:
                        self.reference(job.payload, cells)
                scale = self.paces.scale(before)
                phase.cells.extend(t * scale for t in cells)
        return phase


def end_to_end(phase: Phase, rss_mb: float) -> Dict[str, float]:
    done = [j for j in phase.jobs if j.error is None]
    counts = {kind: sum(1 for j in done if j.kind == kind) for kind in KINDS}
    print_sample_counts(
        dict(counts, cells=len(phase.cells), rounds=len(phase.rounds))
    )
    out = {
        "study_s": median(phase.rounds),
        "cell_p50_ms": median(phase.cells) * 1e3,
        "cell_p90_ms": p90(phase.cells) * 1e3,
        "peak_rss_mb": rss_mb,
        "jobs_per_s": len(done) / sum(phase.rounds),
    }
    for kind in KINDS:
        lat = [j.paced_latency_s() for j in done if j.kind == kind]
        out[f"{kind}_p50_ms"] = median(lat) * 1e3
        out[f"{kind}_p90_ms"] = p90(lat) * 1e3
    return out


def layer_extras(
    phase: Phase, cells_per_job: int, agent_cache: Path, jobs_done: int
) -> Dict[str, float]:
    done = [j for j in phase.jobs if j.error is None and j.record is not None]
    # Waiting for a claim is waiting on the agent's poll timer: as measured.
    waits = [j.record["started_at"] - j.record["created_at"] for j in done]
    runs = [j.run_s() * j.scale for j in done]
    watched = [j for j in done if j.kind == "watched"]
    polled = [j for j in done if j.kind != "watched"]
    out = {
        "service.store.queue_wait_ms": median(waits) * 1e3 if waits else 0.0,
        "service.agent.run_ms": median(runs) * 1e3 if runs else 0.0,
        "service.sse.first_frame_ms": (
            median([j.first_frame_s * j.scale for j in watched]) * 1e3 if watched else 0.0
        ),
        "service.sse.frames_per_job": (
            sum(j.frames for j in watched) / len(watched) if watched else 0.0
        ),
        "service.client.polls_per_job": (
            sum(j.polls for j in polled) / len(polled) if polled else 0.0
        ),
    }
    for verb, values in phase.http.items():
        out[f"service.http.{verb}_p50_ms"] = median(values) * 1e3 if values else 0.0
        out[f"service.http.{verb}_p90_ms"] = p90(values) * 1e3 if values else 0.0
    # Every computed cell writes one cache entry in the agent; every
    # other cell lookup of the run's jobs was a hit.
    lookups = cells_per_job * jobs_done
    written = len(list(agent_cache.glob("*.pkl")))
    out["experiments.cache_hit_ratio"] = 1.0 - written / lookups if lookups else 0.0
    return out


def _verify(loop: ClientLoop, phases: List[Phase], ledger: Ledger) -> None:
    """Compare every job's result with ``run_request`` of its request
    (timing is over)."""
    for phase in phases:
        for job in phase.jobs:
            if job.error is not None:
                ledger.fail(f"{job.kind} job {job.id}: {job.error}")
                continue
            ledger.attempt(
                job.text == loop.reference(job.payload, []),
                f"{job.kind} job {job.id}: result differs from run_request",
            )


def run(seed: int, seconds: float, trace: bool, out: Path, tracer: Tracer, paces: PaceLog):
    """Run the fleet workload; returns ``(ledger, setup, e2e, layer
    extras and traced rounds or None)``."""
    ledger = Ledger()
    walls: List[float] = []
    readings: List[float] = []
    fleet: Optional[Fleet] = None
    try:
        for launch in range(BOOTS):
            if fleet is not None:
                fleet.stop(ledger)
            fleet = Fleet(out, f"fleet-{launch}")
            readings.append(paces.read())
            started = time.perf_counter()
            fleet.start()
            walls.append(time.perf_counter() - started)
            fleet.probe(ledger)
            # Read the pace once the fleet has settled: right after the
            # boot, the server and agent still compete for the CPU.
            readings.append(paces.read())

        loop = ClientLoop(fleet.url, seed, tracer, paces)
        started = time.perf_counter()
        if trace:
            untraced = loop.phase(started + seconds / 2)
            tracer.enabled = True
            try:
                traced = loop.phase(started + seconds)
            finally:
                tracer.enabled = False
            phases = [untraced, traced]
        else:
            phases = [loop.phase(started + seconds)]
        rss = fleet.peak_rss_mb()
    except Exception as exc:  # a fleet that never became ready
        ledger.fail(f"fleet did not run: {exc}")
        return ledger, None, None, None
    finally:
        if fleet is not None:
            fleet.stop(ledger)

    _verify(loop, phases, ledger)
    setup_s = median(walls) / median(readings)
    measured = phases[0]
    if not measured.rounds:
        ledger.fail("no complete fleet round")
        return ledger, setup_s, None, None
    e2e = end_to_end(measured, rss)
    if not trace:
        return ledger, setup_s, e2e, None
    traced = phases[1]
    jobs_done = sum(1 for p in phases for j in p.jobs if j.error is None)
    extras = layer_extras(traced, loop.cells_per_job, fleet.agent_cache, jobs_done)
    if traced.rounds:
        extras["trace.study_s"] = median(traced.rounds)
        extras["trace.overhead_s"] = median(traced.rounds) - median(measured.rounds)
    return ledger, setup_s, e2e, (extras, len(traced.rounds))
