#!/usr/bin/env python
"""End-to-end smoke test of the live telemetry surface, as run by CI.

First SIGTERMs a throwaway server and agent the moment each prints
its ready line and requires exit 0 (signal handlers precede the line).
Then starts ``repro serve`` with ZERO in-process workers plus one ``repro
agent`` subprocess (the remote execution path), asserts ``GET /``
serves the status dashboard, then follows a watched job over SSE while
the agent runs it: the stream must open with a ``snapshot``, deliver
the lifecycle transitions in order (submitted before claimed before
done), interleave the job's *in-flight* simulation events forwarded
from the agent site, and close with an ``end`` frame.  The watch is
registered deterministically before the job becomes runnable by
parking it behind a dependency.  Finally SIGTERMs the agent and the
server and asserts both exit 0 (open streams must not wedge shutdown).

Exits 0 on success; any failure raises (non-zero exit).
"""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path.insert(0, SRC)

from repro.service.client import ServiceClient  # noqa: E402

JOB = {"experiment": "fig1", "format": "json", "quick": True, "trials": 2}


def smoke_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


def start_server(db_path: str, env: dict) -> "tuple[subprocess.Popen, str]":
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "0",
            "--store", f"sqlite://{db_path}",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on (http://\S+)", line)
    if not match:
        proc.kill()
        raise AssertionError(f"no listening line from server, got: {line!r}")
    return proc, match.group(1)


def start_agent(url: str, site: str, env: dict) -> subprocess.Popen:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "agent",
            "--url", url, "--site", site,
            "--workers", "1", "--batch-size", "2", "--lease-s", "60",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    if f"serving site {site}" not in line:
        proc.kill()
        raise AssertionError(f"no serving line from agent, got: {line!r}")
    return proc


def stop(proc: subprocess.Popen, name: str) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise AssertionError(f"{name} did not exit after SIGTERM")
    assert code == 0, f"{name} exited {code} after SIGTERM"


def check_sigterm_right_after_ready(tmp: str) -> None:
    """A SIGTERM sent the moment the ready line appears must still take
    the graceful drain and exit 0: both processes install their signal
    handlers before printing that line."""
    env = smoke_env(os.path.join(tmp, "cache-sigterm"))
    server, _ = start_server(os.path.join(tmp, "sigterm-1.db"), env)
    stop(server, "server SIGTERMed right after its ready line")
    server, url = start_server(os.path.join(tmp, "sigterm-2.db"), env)
    try:
        agent = start_agent(url, "dash-sigterm", env)
        stop(agent, "agent SIGTERMed right after its ready line")
    finally:
        stop(server, "server")
    print("[dash] SIGTERM right after the ready line drains and exits 0")


def check_dashboard(url: str) -> None:
    with urllib.request.urlopen(url + "/", timeout=30) as resp:
        assert resp.status == 200, resp.status
        ctype = resp.headers["Content-Type"]
        assert ctype.startswith("text/html"), ctype
        body = resp.read().decode("utf-8")
    for needle in (
        "repro fleet status",
        "/v1/metrics/stream",
        "/v1/events",
        # The grid cost/carbon ticker cards and their renderers.
        'id="c-cost"',
        'id="c-carbon"',
        "grid cost (USD)",
        "grid carbon (kg)",
        "m.grid",
    ):
        assert needle in body, f"dashboard page missing {needle!r}"
    print(f"[dash] GET / serves the status page ({len(body)} bytes)")


# A tiny priced scenario: one cell, three trials, flat curves — just
# enough for the remote agent to account dollars and grams and ship
# the grid.* counter deltas back with its completion push.
GRID_SPEC = {
    "scenario": {"name": "dash-grid-smoke"},
    "failures": {"regime": "poisson", "mtbf_years": 5.0},
    "workload": {"study": "scaling", "app_type": "A32", "fractions": [0.01]},
    "techniques": {"names": ["checkpoint_restart"]},
    "run": {"trials": 3},
    "grid": {
        "objective": "cost",
        "start_hour": 8.0,
        "price": {"kind": "flat", "level": 0.12},
        "carbon": {"kind": "flat", "level": 400.0},
    },
}


def check_grid_metrics(client: "ServiceClient") -> None:
    """A priced campaign run by the *remote* agent must surface
    fleet-cumulative dollars and grams in ``GET /v1/metrics`` — the
    counters only get there via the completion-push counter channel."""
    before = client.metrics()["grid"]
    campaign = client.submit_campaign(spec=GRID_SPEC, format="json")
    for unit in campaign["units"]:
        record = client.wait(unit["job"]["id"], timeout=120.0)
        assert record["state"] == "done", record
    after = client.metrics()["grid"]
    assert after["cells_accounted"] > before["cells_accounted"], after
    assert after["cost_usd"] > before["cost_usd"], after
    assert after["carbon_g"] > before["carbon_g"], after
    assert after["energy_kwh"] > before["energy_kwh"], after
    print(
        f"[dash] grid campaign accounted on the remote agent: "
        f"${after['cost_usd'] - before['cost_usd']:.2f}, "
        f"{after['carbon_g'] - before['carbon_g']:.0f} gCO2 "
        f"({after['cells_accounted'] - before['cells_accounted']} cell(s))"
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        check_sigterm_right_after_ready(tmp)
        server_env = smoke_env(os.path.join(tmp, "cache-server"))
        server, url = start_server(os.path.join(tmp, "service.db"), server_env)
        agent = None
        try:
            client = ServiceClient(url, timeout=60.0)
            assert client.health()["workers"] == 0
            check_dashboard(url)

            agent = start_agent(
                url, "dash-1", smoke_env(os.path.join(tmp, "cache-agent"))
            )
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                names = {s["name"] for s in client.list_sites()["sites"]}
                if "dash-1" in names:
                    break
                time.sleep(0.2)
            else:
                raise AssertionError(f"site never registered: {names}")
            print(f"[dash] agent registered at {url}")

            # Park the watched job behind a blocker so its SSE stream
            # (and therefore its watch) is open before it ever runs —
            # the claim response then tells the agent to forward the
            # job's live simulation events.
            blocker = client.submit(dict(JOB, trials=1))
            target = client.submit(dict(JOB, depends_on=[blocker["id"]]))
            print(f"[dash] submitted blocker {blocker['id'][:10]} "
                  f"and watched target {target['id'][:10]}")

            frames = list(
                client.iter_events(job_id=target["id"], last_event_id=0)
            )
            assert frames[0]["event"] == "snapshot", frames[0]
            assert frames[-1]["event"] == "end", frames[-1]
            kinds = [
                f["data"]["kind"] for f in frames if f["event"] == "event"
            ]
            for earlier, later in (
                ("job.submitted", "job.claimed"),
                ("job.claimed", "sim.TrialStarted"),
                ("sim.TrialStarted", "job.done"),
            ):
                assert earlier in kinds, (earlier, kinds)
                assert later in kinds, (later, kinds)
                assert kinds.index(earlier) < kinds.index(later), (
                    earlier, later, kinds
                )
            assert frames[-1]["data"]["kind"] == "job.done", frames[-1]
            sim_frames = [
                f for f in frames
                if f["event"] == "event"
                and f["data"]["kind"].startswith("sim.")
            ]
            assert sim_frames, "no live simulation events were forwarded"
            assert all(
                f["data"].get("site") == "dash-1" for f in sim_frames
            ), sim_frames[:3]
            print(
                f"[dash] SSE delivered {len(kinds)} events in order "
                f"({len(sim_frames)} live simulation events from dash-1)"
            )

            final = client.status(target["id"])
            assert final["state"] == "done", final
            telemetry = client.metrics()["telemetry"]
            assert telemetry["ring"]["last_seq"] >= len(kinds), telemetry
            assert telemetry["watched_jobs"] == 0, telemetry
            print(f"[dash] metrics telemetry block: {json.dumps(telemetry)}")

            check_grid_metrics(client)
        finally:
            if agent is not None:
                stop(agent, "agent")
            stop(server, "server")
        print("[dash] graceful SIGTERM shutdown with streams attached")
    time.sleep(0.1)
    print("[dash] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
