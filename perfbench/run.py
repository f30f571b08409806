"""Benchmark of the resilience-study reproduction: one command, four
workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scaling --seed 3 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` runs half of ``--seconds`` untraced, then the same loop
with spans recorded around every layer boundary, and reports the
per-layer metrics, each layer's self time and the tracing overhead;
the spans are written to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any correctness check failed or the program is missing.  See
perfbench/README.md for what each workload and metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    END_TO_END,
    OUT,
    Ledger,
    PaceLog,
    ROOT,
    SRC,
    measure_startup,
    provenance,
    result_line,
)

WORKLOADS = ("scaling", "datacenter", "observed", "fleet")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Run on one CPU, and start every child process there: the host's
    # CPUs change speed independently of each other, and the host pace
    # readings (common.host_pace) must measure the CPU that runs the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # Every run reads and writes its own result cache, never results/.cache/.
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    try:
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, run_dir: Path) -> int:
    from layers import PER_LAYER, layer_metrics
    from tracing import Tracer

    tracer = Tracer()
    trace = bool(args.trace)
    ledger = Ledger()
    paces = PaceLog()
    setup_s, e2e, layer_data, startup = None, None, None, {}
    if args.workload == "fleet":
        import fleet

        extra = {
            "clients": fleet.CLIENTS,
            "client_poll_s": fleet.CLIENT_POLL_S,
            "agent_poll_s": fleet.AGENT_POLL_S,
        }
        try:
            # The fleet's setup_s is its own boot; only the traced run
            # needs the client's start-up import time.
            if trace:
                startup = measure_startup(fleet.MODULES, run_dir / "cache", paces)
            ledger, setup_s, e2e, layer_data = fleet.run(
                args.seed, args.seconds, trace, run_dir, tracer, paces
            )
        except Exception as exc:  # a program that cannot start
            ledger.fail(f"fleet: {exc}")
    else:
        import studies

        extra = {"clients": 1}
        try:
            startup = measure_startup(studies.MODULES, run_dir / "cache", paces)
            setup_s = startup["setup_s"]
            runner, e2e, layer_data = studies.run(
                args.workload, args.seed, args.seconds, trace, run_dir, tracer, paces
            )
            ledger = runner.ledger
            extra["first_artifact_sha256"] = runner.first_digest
        except Exception as exc:  # a program that cannot start
            ledger.fail(f"{args.workload}: {exc}")

    info = provenance(
        args.seed,
        dict(
            extra,
            workload=args.workload,
            seconds=args.seconds,
            trace=args.trace,
            host_pace_median=paces.median(),
            host_pace_readings=len(paces.readings),
        ),
    )
    print("provenance " + json.dumps(info, sort_keys=True))

    metrics, units = {}, {}
    if trace and layer_data is not None:
        extras, iterations = layer_data
        extras = dict(
            extras,
            **{"cli.import_s": startup["cli.import_s"], "bench.host_pace": paces.median()},
        )
        metrics = layer_metrics(tracer, iterations, extras)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        units = PER_LAYER
    elif not trace and e2e is not None:
        metrics = dict(e2e, setup_s=setup_s)
        units = END_TO_END
    elif not ledger.failures:
        ledger.fail("no measured iteration completed")
    for failure in ledger.failures:
        print(f"FAILED: {failure}")
    for name, unit in units.items():
        print(f"{args.workload:<10} {name:<32} {metrics[name]:>14.6g} {unit}")

    failed = len(ledger.failures)
    print(result_line(failed == 0, max(ledger.attempted, 1), failed, metrics, units))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
