"""Shared pieces of the benchmark: seeds, statistics, start-up timing,
memory, provenance and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, Iterable, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for one run (caches, stores, exports, span dumps).
OUT = Path(__file__).resolve().parent / "out"

#: Seed whose first-iteration artifacts are pinned in pinned.json.
DEFAULT_SEED = 1

#: The end-to-end metrics every run reports with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "study_s": "s",
    "cell_p50_ms": "ms",
    "cell_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "fresh_p50_ms": "ms",
    "fresh_p90_ms": "ms",
    "cached_p50_ms": "ms",
    "cached_p90_ms": "ms",
    "watched_p50_ms": "ms",
    "watched_p90_ms": "ms",
}

#: Fresh-interpreter launches whose median is ``setup_s``.
SETUP_LAUNCHES = 5


#: Mean seconds one pass of :func:`reference_kernel` took on the host
#: the benchmark was tuned on (a 2-vCPU x86-64 VM, Python 3.11, numpy
#: 2.4) while that host ran at its usual speed.
REFERENCE_PASS_S = 0.005
#: Passes of the reference kernel in one :func:`host_pace` reading.
PACE_PASSES = 2
#: Objects in the ring :func:`reference_kernel` walks (about 14 MB,
#: more than the CPU's own caches hold) and the steps of one walk.
RING_NODES = 200_000
RING_STEPS = 30_000


class _Event:
    __slots__ = ("time", "tag")

    def __init__(self, time: float, tag: int) -> None:
        self.time = time
        self.tag = tag


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: float) -> None:
        self.value = value
        self.next: Optional["_Node"] = None


_RING: List[_Node] = []


def _ring() -> _Node:
    """The first node of a ring of :data:`RING_NODES` objects linked in
    a fixed shuffled order, so that a walk along it jumps around memory
    (built once per process)."""
    if not _RING:
        import random

        nodes = [_Node(float(i)) for i in range(RING_NODES)]
        order = list(range(RING_NODES))
        random.Random(7).shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            nodes[a].next = nodes[b]
        _RING.append(nodes[order[0]])
    return _RING[0]


def reference_kernel() -> float:
    """A fixed piece of work shaped like the program's: a heap of small
    objects, dict updates, float arithmetic and short numpy calls, then
    a walk of :data:`RING_STEPS` objects scattered over more memory than
    the CPU caches hold.  When the host slows, it slows work on data in
    the caches more than work that waits on memory; the program does
    both, and so does this kernel.  It is part of the benchmark, so no
    change to the program moves it."""
    import heapq

    import numpy as np

    rng = np.random.default_rng(12345)
    delays = rng.exponential(3.0, 512).tolist()
    heap: list = []
    tally: Dict[int, float] = {}
    total = 0.0
    for i in range(4000):
        event = _Event(delays[i & 511] + i, i)
        heapq.heappush(heap, (event.time, i, event))
        if len(heap) > 64:
            when, _, done = heapq.heappop(heap)
            tally[done.tag % 97] = tally.get(done.tag % 97, 0.0) + when
            total += when * 0.5
    for _ in range(100):
        total += float(np.cumsum(rng.exponential(2.0, 128))[-1])
    node = _ring()
    for _ in range(RING_STEPS):
        total += node.value
        node = node.next
    return total


def host_pace() -> float:
    """How slowly this host runs code right now, relative to the host
    the benchmark was tuned on: the mean time of :data:`PACE_PASSES`
    passes of :func:`reference_kernel` over :data:`REFERENCE_PASS_S`
    (2.0 means twice as slow).

    The host is a VM whose CPUs change speed, by up to 3x and for
    seconds to minutes at a time.  Every timing the
    benchmark reports is a wall time divided by the mean of the paces
    read just before and just after it, so it reads as time on the
    reference host and the host's speed cancels out (see README.md,
    "Host pace")."""
    started = time.perf_counter()
    for _ in range(PACE_PASSES):
        reference_kernel()
    return (time.perf_counter() - started) / PACE_PASSES / REFERENCE_PASS_S


class PaceLog:
    """The host pace readings of one run."""

    def __init__(self) -> None:
        reference_kernel()  # warm up: imports, first numpy calls, the ring
        self.readings: List[float] = []

    def read(self) -> float:
        pace = host_pace()
        self.readings.append(pace)
        return pace

    def scale(self, before: float) -> float:
        """What a wall time measured since the reading *before* is
        multiplied by: 1 / the mean of *before* and a reading now."""
        return 2.0 / (before + self.read())

    def median(self) -> float:
        return median(self.readings) if self.readings else 1.0


def derive_seed(workload: str, seed: int, iteration: int) -> int:
    """The study seed of one iteration: a pure function of the
    workload, the run's ``--seed`` and the iteration index, so every
    iteration runs new inputs and no in-process memo of a whole result
    can serve a later one."""
    digest = hashlib.sha256(f"{workload}:{seed}:{iteration}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def p90(values: Sequence[float]) -> float:
    """The linear-interpolated 90th percentile (of one value, that value)."""
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=10, method="inclusive")[-1]


def print_sample_counts(counts: Dict[str, int]) -> None:
    """Say how many samples each measured quantile rests on."""
    print("samples " + json.dumps(counts, sort_keys=True))


def child_env(cache_dir: Path) -> Dict[str, str]:
    """Environment for ``repro`` subprocesses: this checkout's sources
    and an isolated result cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


_STARTUP_CHILD = """
import json, time
t0 = time.perf_counter()
import repro.cli
t1 = time.perf_counter()
for name in {modules!r}:
    __import__(name)
print(json.dumps({{"cli_import_s": t1 - t0}}), flush=True)
"""


def measure_startup(
    modules: Iterable[str], cache_dir: Path, paces: PaceLog
) -> Dict[str, float]:
    """Median time from launching a fresh interpreter until it has
    imported the ``repro`` CLI and the workload's modules and says so,
    over :data:`SETUP_LAUNCHES` launches (``setup_s``), plus the
    median import time of ``repro.cli`` alone (``cli.import_s``); both
    divided by the median host pace read around the launches."""
    code = _STARTUP_CHILD.format(modules=tuple(modules))
    walls: List[float] = []
    imports: List[float] = []
    readings: List[float] = []
    for _ in range(SETUP_LAUNCHES):
        readings.append(paces.read())
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=child_env(cache_dir),
            cwd=str(ROOT),
            timeout=120,
        )
        wall = time.perf_counter() - started
        if done.returncode != 0:
            raise RuntimeError(f"start-up probe failed: {done.stderr.strip()[-300:]}")
        readings.append(paces.read())
        walls.append(wall)
        imports.append(json.loads(done.stdout.strip().splitlines()[-1])["cli_import_s"])
    pace = median(readings)
    return {"setup_s": median(walls) / pace, "cli.import_s": median(imports) / pace}


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def source_digest() -> str:
    """SHA-256 over the program's sources (the checkout need not be a
    git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, extra: Dict[str, object]) -> Dict[str, object]:
    """What the numbers depend on besides the code."""
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=str(ROOT),
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    info: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }
    info.update(extra)
    return info


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, float], units: Dict[str, str]
) -> str:
    """The last stdout line: ``correct``, ``attempted``, ``failed`` and
    each metric's value and unit, as one JSON object."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name]}
                for name in units
            },
        }
    )


class Ledger:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def attempt(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        """A failed operation (one attempt that did not succeed)."""
        self.attempt(False, what)
