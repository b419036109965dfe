"""Crash-recovery tests: kill ``repro serve`` mid-queue, restart, and
verify journaled jobs re-run exactly once and completed results are
never re-diagnosed.

These run the real CLI in a subprocess (SIGTERM for the graceful path,
SIGKILL for the hard path) against the stub diagnoser — or, where the
diagnosis itself is under test, the real pipeline — talking plain
``http.client`` to the published port.
"""

import functools
import http.client
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.corpus.registry import get_bug
from repro.daemon.queue import DEFAULT_QUEUE_SHARDS
from repro.observe.export import parse_exposition
from repro.service.artifacts import CrashArtifact
from repro.service.signature import shard_index, signature_of_text
from repro.service.triage import diagnose_job
from repro.trace.syzkaller import run_bug_finder

BUGS = ("SYZ-01", "SYZ-02", "SYZ-03")
STUB = "repro.daemon.worker:stub_diagnose_job"


@functools.lru_cache(maxsize=None)
def artifact_text(bug_id: str) -> str:
    return CrashArtifact.from_report(run_bug_finder(get_bug(bug_id))).render()


class Daemon:
    """One ``repro serve`` subprocess and its published port."""

    def __init__(self, data_dir: str, port_file: str, *extra: str,
                 diagnoser=STUB) -> None:
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        if os.path.exists(port_file):
            os.unlink(port_file)
        self.port_file = port_file
        if diagnoser is not None:
            extra = ("--diagnoser", diagnoser) + extra
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--data-dir", data_dir, "--port-file", port_file, *extra],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.port = self._wait_for_port()

    def _wait_for_port(self, timeout_s: float = 30.0) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise AssertionError(
                    f"daemon exited early: {self.process.returncode}")
            if os.path.exists(self.port_file):
                text = open(self.port_file).read().strip()
                if text:
                    return int(text.rsplit(":", 1)[1])
            time.sleep(0.02)
        raise AssertionError("daemon never published its port")

    def request(self, method: str, path: str, body: bytes = b""):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def submit(self, text: str):
        status, body = self.request("POST", "/submit", text.encode())
        return status, json.loads(body)

    def metrics(self) -> dict:
        status, body = self.request("GET", "/metrics")
        assert status == 200
        return parse_exposition(body.decode())

    def wait_for_metric(self, name: str, value: float,
                        timeout_s: float = 30.0) -> dict:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            metrics = self.metrics()
            if metrics.get(name, 0) >= value:
                return metrics
            time.sleep(0.05)
        raise AssertionError(f"{name} never reached {value}: "
                             f"{self.metrics()}")

    def sigterm(self, timeout_s: float = 30.0) -> int:
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=timeout_s)

    def sigkill(self) -> None:
        self.process.kill()
        self.process.wait(timeout=30)

    def ensure_dead(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)


@pytest.fixture
def launch(tmp_path):
    daemons = []
    data_dir = str(tmp_path / "data")
    port_file = str(tmp_path / "port")

    def start(*extra: str, diagnoser=STUB) -> Daemon:
        daemon = Daemon(data_dir, port_file, *extra, diagnoser=diagnoser)
        daemons.append(daemon)
        return daemon

    yield start
    for daemon in daemons:
        daemon.ensure_dead()


def test_sigterm_then_restart_reruns_journaled_jobs_once(launch):
    # Phase 1: accept three jobs but never drain them (--paused), then
    # stop gracefully.  The journal now owes three answers.
    parked = launch("--paused")
    for bug in BUGS:
        status, payload = parked.submit(artifact_text(bug))
        assert status == 202 and payload["status"] == "accepted"
    metrics = parked.metrics()
    assert metrics["aitia_daemon_queue_depth"] == 3
    assert parked.sigterm() == 0

    # Phase 2: restart draining.  All three recovered jobs complete —
    # exactly once each (completed == recovered, store holds 3).
    draining = launch()
    metrics = draining.wait_for_metric("aitia_daemon_completed_total", 3)
    assert metrics["aitia_daemon_recovered_total"] == 3
    assert metrics["aitia_daemon_accepted_total"] == 3
    assert metrics["aitia_daemon_completed_total"] == 3
    assert metrics["aitia_daemon_in_flight"] == 0

    # Phase 3: hard-kill the drained daemon; nothing was mid-flight, so
    # a restart recovers zero jobs and repeat submissions answer from
    # the (cold) store without re-diagnosis.
    draining.sigkill()
    restarted = launch()
    metrics = restarted.metrics()
    assert metrics.get("aitia_daemon_recovered_total", 0) == 0
    status, payload = restarted.submit(artifact_text(BUGS[0]))
    assert status == 200
    assert payload["status"] == "cache_hit"
    assert payload["tier"] == "cold"
    metrics = restarted.metrics()
    assert metrics["aitia_daemon_cache_hits_total"] == 1
    assert metrics.get("aitia_daemon_accepted_total", 0) == 0
    assert restarted.sigterm() == 0


def test_hard_kill_mid_queue_loses_no_accepted_work(launch):
    # Accept work with the drain paused, then SIGKILL — no graceful
    # flush, no compaction, the journal alone carries the state.
    parked = launch("--paused")
    digests = {}
    for bug in BUGS:
        status, payload = parked.submit(artifact_text(bug))
        assert status == 202
        digests[bug] = payload["digest"]
    parked.sigkill()

    # Every accepted job is re-run after the hard kill, exactly once.
    draining = launch()
    metrics = draining.wait_for_metric("aitia_daemon_completed_total", 3)
    assert metrics["aitia_daemon_recovered_total"] == 3
    assert metrics["aitia_daemon_completed_total"] == 3
    for digest in digests.values():
        status, body = draining.request("GET", f"/result/{digest}")
        assert status == 200
    assert draining.sigterm() == 0


def test_journal_with_removed_engine_keys_replays_once(launch, tmp_path):
    """A journal written before per-diagnosis wave parallelism was
    removed carries ``wave_jobs``/``executor`` payload keys.  It must
    still replay exactly once, through the real pipeline, and produce
    the same diagnosis a payload without those keys produces."""
    bug_id = BUGS[0]
    text = artifact_text(bug_id)
    digest = signature_of_text(CrashArtifact.parse(text).crash_text).digest
    job_id = f"{bug_id}:{digest}"
    payload = {"mode": "artifact", "artifact": text, "bug_id": bug_id,
               "digest": digest, "tenant": "default", "policy": "static"}
    legacy = dict(payload, wave_jobs=2, executor="fleet")
    queue_dir = tmp_path / "data" / "queue"
    queue_dir.mkdir(parents=True)
    shard = shard_index(digest, DEFAULT_QUEUE_SHARDS)
    entry = {"op": "push", "job_id": job_id, "digest": digest,
             "priority": 0, "timeout_s": 300.0, "tenant": "default",
             "payload": legacy}
    (queue_dir / f"queue-{shard:02d}.journal").write_text(
        json.dumps(entry, sort_keys=True) + "\n")

    daemon = launch(diagnoser=None)
    metrics = daemon.wait_for_metric("aitia_daemon_completed_total", 1)
    assert metrics["aitia_daemon_recovered_total"] == 1
    assert metrics["aitia_daemon_completed_total"] == 1
    assert metrics.get("aitia_daemon_failed_total", 0) == 0
    status, body = daemon.request("GET", f"/result/{digest}")
    assert status == 200
    assert json.loads(body)["result"]["row"] == \
        diagnose_job(payload)["row"]
    assert daemon.sigterm() == 0

    # Replayed once: the journal no longer owes the job.
    restarted = launch()
    assert restarted.metrics().get("aitia_daemon_recovered_total", 0) == 0
    assert restarted.sigterm() == 0
