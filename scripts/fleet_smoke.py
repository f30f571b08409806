#!/usr/bin/env python
"""End-to-end smoke test of the control-plane/agent split, as run by CI.

First SIGTERMs a throwaway server and agent the moment each prints
its ready line and requires exit 0 (signal handlers precede the line).
Then starts ``repro serve`` with ZERO in-process workers (the pure control
plane), launches two ``repro agent`` subprocesses registered as
different sites (each with its own result cache, emulating separate
hosts), submits a scenario campaign plus a plain job through the
client SDK, waits for the fleet to drain everything, and byte-diffs
one artifact against a direct CLI run in a separate process — proving
a job executed by a remote agent produces the exact bytes of the CLI
path.  Checks the per-site metrics ledger adds up, then SIGTERMs the
agents and the server and asserts every process exits 0 (graceful
drain).

Exits 0 on success; any failure raises (non-zero exit).
"""

import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path.insert(0, SRC)

from repro.service.client import ServiceClient  # noqa: E402

JOB_PAYLOAD = {
    "experiment": "fig1",
    "format": "json",
    "quick": True,
    "trials": 4,
}


def fleet_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


def start_server(db_path: str, env: dict) -> "tuple[subprocess.Popen, str]":
    """Launch the workers=0 control plane and parse the bound URL."""
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
    """Launch one worker agent registered as *site*."""
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
    env = fleet_env(os.path.join(tmp, "cache-sigterm"))
    server, _ = start_server(os.path.join(tmp, "sigterm-1.db"), env)
    stop(server, "server SIGTERMed right after its ready line")
    server, url = start_server(os.path.join(tmp, "sigterm-2.db"), env)
    try:
        agent = start_agent(url, "fleet-sigterm", env)
        stop(agent, "agent SIGTERMed right after its ready line")
    finally:
        stop(server, "server")
    print("[fleet] SIGTERM right after the ready line drains and exits 0")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        check_sigterm_right_after_ready(tmp)
        server_env = fleet_env(os.path.join(tmp, "cache-server"))
        server, url = start_server(os.path.join(tmp, "service.db"), server_env)
        agents = []
        try:
            client = ServiceClient(url, timeout=30.0)
            health = client.health()
            assert health["workers"] == 0, health
            print(f"[fleet] control plane at {url} (0 in-process workers)")

            # Two agents on "different hosts" (separate caches).
            for site in ("fleet-a", "fleet-b"):
                agent_env = fleet_env(os.path.join(tmp, f"cache-{site}"))
                agents.append(start_agent(url, site, agent_env))
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                names = {s["name"] for s in client.list_sites()["sites"]}
                if names >= {"fleet-a", "fleet-b"}:
                    break
                time.sleep(0.2)
            else:
                raise AssertionError(f"sites never registered: {names}")
            print(f"[fleet] agents registered: {sorted(names)}")

            # A campaign plus a plain job — enough work for both sites.
            campaign = client.submit_campaign(
                scenario="weibull-aging", quick=True, format="csv"
            )
            job = client.submit(JOB_PAYLOAD)
            waiting = [u["job"]["id"] for u in campaign["units"]] + [job["id"]]
            print(f"[fleet] submitted {len(waiting)} jobs")
            finals = [
                client.wait(job_id, timeout=600.0, poll_s=0.5)
                for job_id in waiting
            ]
            assert all(f["state"] == "done" for f in finals), finals
            sites_used = {f["site"] for f in finals}
            assert sites_used <= {"fleet-a", "fleet-b"}, finals
            print(f"[fleet] all jobs done (executed by {sorted(sites_used)})")

            # Byte-diff the agent-produced artifact against a direct
            # CLI run in yet another process.
            fetched = client.result(job["id"])
            direct = subprocess.run(
                [
                    sys.executable, "-m", "repro", "fig1",
                    "--quick", "--trials", "4", "--format", "json",
                    "--no-cache",
                ],
                capture_output=True,
                text=True,
                env=fleet_env(os.path.join(tmp, "cache-direct")),
                check=True,
            ).stdout
            # The CLI appends one newline when printing the artifact.
            assert fetched + "\n" == direct, (
                "agent artifact differs from direct CLI run:\n"
                f"--- agent ({len(fetched)} bytes)\n{fetched[:400]}\n"
                f"--- direct ({len(direct)} bytes)\n{direct[:400]}"
            )
            print(f"[fleet] artifact byte-identical ({len(fetched)} bytes)")

            # The per-site ledger accounts for every completion.
            sites = client.metrics()["sites"]
            completed = sum(s.get("completed", 0) for s in sites.values())
            assert completed == len(waiting), sites
            for name in ("fleet-a", "fleet-b"):
                assert sites[name]["state"] == "active", sites
                assert sites[name]["last_heartbeat_age_s"] < 120, sites
            print(f"[fleet] per-site metrics add up: {sites}")
        finally:
            for index, agent in enumerate(agents):
                stop(agent, f"agent-{index}")
            stop(server, "server")
        print("[fleet] graceful SIGTERM shutdown of fleet and server")
    time.sleep(0.1)
    print("[fleet] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
