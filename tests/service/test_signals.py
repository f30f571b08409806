"""Graceful SIGTERM from the first moment: ``repro serve`` and ``repro
agent`` install their signal handlers *before* printing the ready line
a supervisor waits for, so a SIGTERM sent right after that line always
drains and exits 0 instead of meeting the default handler, which would
kill the process mid-start."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.agent import RemoteJobSource, WorkerAgent
from repro.service.app import ReproService, ServiceConfig
from repro.service.client import ServiceClient

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def restore_signal_handlers():
    saved = {
        signum: signal.getsignal(signum)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    yield
    for signum, handler in saved.items():
        signal.signal(signum, handler)


def _control_plane():
    return ReproService(
        ServiceConfig(host="127.0.0.1", port=0, workers=0, db_path=":memory:")
    )


def _self_sigterm(seen):
    """A ``ready`` callback: record the installed SIGTERM handler, then
    deliver SIGTERM to this process at once."""

    def ready():
        seen.append(signal.getsignal(signal.SIGTERM))
        os.kill(os.getpid(), signal.SIGTERM)

    return ready


class TestReadyAfterHandlers:
    def test_serve_forever_calls_ready_with_handlers_installed(
        self, restore_signal_handlers
    ):
        service = _control_plane()
        seen = []
        service.serve_forever(ready=_self_sigterm(seen))
        assert len(seen) == 1
        assert seen[0] not in (signal.SIG_DFL, signal.SIG_IGN, None)
        # The immediate SIGTERM ran the graceful shutdown.
        service.shutdown()  # idempotent: already shut down

    def test_run_forever_calls_ready_with_handlers_installed(
        self, restore_signal_handlers
    ):
        service = _control_plane()
        service.start()
        try:
            client = ServiceClient(service.url)
            agent = WorkerAgent(RemoteJobSource(client, "sig"), workers=1)
            seen = []
            agent.run_forever(ready=_self_sigterm(seen))
            assert len(seen) == 1
            assert seen[0] not in (signal.SIG_DFL, signal.SIG_IGN, None)
            assert agent.inflight() == {}
        finally:
            service.shutdown(timeout=30)


def _env(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return env


def _sigterm_after_first_line(proc):
    line = proc.stdout.readline()
    proc.send_signal(signal.SIGTERM)
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return line, err


class TestCliSigtermRightAfterReadyLine:
    def test_serve_exits_zero_with_drain_message(self, tmp_path):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "0",
                "--store", f"sqlite://{tmp_path / 'svc.db'}",
            ],
            env=_env(tmp_path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=str(REPO_ROOT),
        )
        line, err = _sigterm_after_first_line(proc)
        assert "listening on http://" in line
        assert proc.returncode == 0, err
        assert "repro service stopped (queue drained and persisted)" in err

    def test_agent_exits_zero_with_drain_message(self, tmp_path):
        service = _control_plane()
        service.start()
        try:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "agent",
                    "--url", service.url, "--site", "sig",
                    "--workers", "1",
                ],
                env=_env(tmp_path),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                cwd=str(REPO_ROOT),
            )
            line, err = _sigterm_after_first_line(proc)
        finally:
            service.shutdown(timeout=30)
        assert "serving site sig" in line
        assert proc.returncode == 0, err
        assert "stopped (leases released or completed)" in err
