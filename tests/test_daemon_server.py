"""End-to-end tests for the intake daemon over a real socket.

Each test boots a :class:`TriageDaemon` on an ephemeral port inside
``asyncio.run`` and drives it through :class:`DaemonClient` — the full
HTTP → admission → dedup → journal → drain → store path, with the
instant stub diagnoser so nothing here costs a real diagnosis.
"""

import asyncio
import functools
import threading
import time

from repro.corpus.registry import get_bug
from repro.daemon import (
    DaemonClient,
    DaemonConfig,
    TenantPolicy,
    start_daemon,
    stub_diagnose_job,
)
from repro.observe.export import parse_exposition
from repro.service.artifacts import CrashArtifact
from repro.service.queue import JobOutcome
from repro.service.triage import EMPTY_INTAKE_MESSAGE
from repro.trace.syzkaller import run_bug_finder


@functools.lru_cache(maxsize=None)
def artifact_text(bug_id: str) -> str:
    return CrashArtifact.from_report(run_bug_finder(get_bug(bug_id))).render()


def daemon_test(tmp_path, coro_fn, **overrides):
    """Boot daemon + client, run ``coro_fn(daemon, client)``, tear down."""
    settings = dict(port=0, data_dir=str(tmp_path / "data"),
                    diagnoser=stub_diagnose_job, poll_interval_s=0.005)
    settings.update(overrides)

    async def go():
        daemon = await start_daemon(DaemonConfig(**settings))
        client = DaemonClient("127.0.0.1", daemon.port)
        try:
            await coro_fn(daemon, client)
        finally:
            await client.close()
            await daemon.stop()

    asyncio.run(go())


async def wait_until(predicate, timeout_s: float = 10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        await asyncio.sleep(0.01)


async def scrape(client) -> dict:
    response = await client.request("GET", "/metrics")
    assert response.status == 200
    return parse_exposition(response.text)


def assert_reconciled(metrics: dict) -> None:
    """The acceptance identities: every submission is accounted for,
    and every accepted job is terminal or still in flight."""
    shed = sum(v for k, v in metrics.items()
               if k.startswith("aitia_daemon_shed_") and k.endswith("_total"))
    assert metrics.get("aitia_daemon_submissions_total", 0) == (
        metrics.get("aitia_daemon_accepted_total", 0)
        - metrics.get("aitia_daemon_recovered_total", 0)
        + metrics.get("aitia_daemon_deduped_total", 0)
        + metrics.get("aitia_daemon_cache_hits_total", 0)
        + metrics.get("aitia_daemon_rejected_total", 0)
        + shed)
    assert metrics.get("aitia_daemon_accepted_total", 0) == (
        metrics.get("aitia_daemon_completed_total", 0)
        + metrics.get("aitia_daemon_failed_total", 0)
        + metrics.get("aitia_daemon_timed_out_total", 0)
        + metrics.get("aitia_daemon_in_flight", 0))


class TestSubmitPath:
    def test_accept_diagnose_then_cache_hit(self, tmp_path):
        async def scenario(daemon, client):
            text = artifact_text("SYZ-01")
            response = await client.submit(text)
            assert response.status == 202
            accepted = response.json()
            assert accepted["status"] == "accepted"

            job = await client.wait_for_job(accepted["job_id"])
            assert job["status"] == "succeeded"
            assert job["result"]["row"]["reproduced"] is True
            # The job turns terminal a beat before its result settles
            # into the store (the pool's completion callback runs in an
            # executor thread); wait for the settled counter.
            await wait_until(lambda: daemon.metrics.count("completed") == 1)

            # The same signature now answers from the hot tier.
            again = await client.submit(text)
            assert again.status == 200
            hit = again.json()
            assert hit["status"] == "cache_hit"
            assert hit["tier"] == "hot"
            assert hit["digest"] == accepted["digest"]

            result = await client.request(
                "GET", f"/result/{accepted['digest']}")
            assert result.status == 200

            metrics = await scrape(client)
            assert metrics["aitia_daemon_submissions_total"] == 2
            assert metrics["aitia_daemon_accepted_total"] == 1
            assert metrics["aitia_daemon_completed_total"] == 1
            assert metrics["aitia_daemon_cache_hits_total"] == 1
            assert metrics["aitia_daemon_cache_hits_hot_total"] == 1
            assert_reconciled(metrics)

        daemon_test(tmp_path, scenario)

    def test_duplicate_folds_into_queued_job(self, tmp_path):
        async def scenario(daemon, client):
            text = artifact_text("SYZ-02")
            first = (await client.submit(text, tenant="a")).json()
            assert first["status"] == "accepted"
            second = (await client.submit(text, tenant="b")).json()
            assert second["status"] == "duplicate"
            assert second["job_id"] == first["job_id"]

            daemon.paused = False
            job = await client.wait_for_job(first["job_id"])
            assert job["status"] == "succeeded"
            assert job["duplicates"] == 1

            metrics = await scrape(client)
            assert metrics["aitia_daemon_deduped_total"] == 1
            assert_reconciled(metrics)

        daemon_test(tmp_path, scenario, paused=True)

    def test_pending_result_answers_202(self, tmp_path):
        async def scenario(daemon, client):
            accepted = (await client.submit(artifact_text("SYZ-03"))).json()
            response = await client.request(
                "GET", f"/result/{accepted['digest']}")
            assert response.status == 202
            assert response.json()["status"] == "pending"

        daemon_test(tmp_path, scenario, paused=True)

    def test_finished_but_unsettled_job_is_still_pending(self, tmp_path):
        """Between the executor marking a job SUCCEEDED and _finish
        storing its result, the job must read as pending/running (202),
        never as a missing result (404) or a result-less success."""
        entered, release = threading.Event(), threading.Event()

        async def scenario(daemon, client):
            finish = daemon._finish

            def held_finish(job):
                entered.set()
                release.wait(10)
                finish(job)

            daemon._finish = held_finish
            accepted = (await client.submit(artifact_text("SYZ-03"))).json()
            daemon.paused = False
            loop = asyncio.get_running_loop()
            try:
                assert await loop.run_in_executor(None, entered.wait, 10)
                job = daemon._jobs[accepted["job_id"]]
                assert job.outcome is JobOutcome.SUCCEEDED

                result = await client.request(
                    "GET", f"/result/{accepted['digest']}")
                assert result.status == 202
                assert result.json()["status"] == "pending"
                status = (await client.request(
                    "GET", f"/job/{accepted['job_id']}")).json()
                assert status["status"] == "running"
                assert "result" not in status
                again = (await client.submit(
                    artifact_text("SYZ-03"))).json()
                assert again["status"] == "duplicate"
            finally:
                release.set()

            job = await client.wait_for_job(accepted["job_id"])
            assert job["status"] == "succeeded"
            assert job["result"]["row"]["reproduced"] is True
            result = await client.request(
                "GET", f"/result/{accepted['digest']}")
            assert result.status == 200

        daemon_test(tmp_path, scenario, paused=True)

    def test_priority_header(self, tmp_path):
        async def scenario(daemon, client):
            response = await client.submit(artifact_text("SYZ-04"),
                                           priority=-5)
            job_id = response.json()["job_id"]
            job = (await client.request("GET", f"/job/{job_id}")).json()
            assert job["priority"] == -5

        daemon_test(tmp_path, scenario, paused=True)


class TestBackpressure:
    def test_queue_full_sheds_then_recovers(self, tmp_path):
        async def scenario(daemon, client):
            texts = [artifact_text(f"SYZ-{n:02d}") for n in (1, 2, 3)]
            accepted = []
            for text in texts[:2]:
                response = await client.submit(text)
                assert response.status == 202
                accepted.append(response.json()["job_id"])
            shed = await client.submit(texts[2])
            assert shed.status == 429
            assert shed.json()["error"] == "queue_full"

            # Shed work is lost *by design* — but nothing accepted is:
            # drain the queue and every accepted job completes.
            daemon.paused = False
            for job_id in accepted:
                job = await client.wait_for_job(job_id)
                assert job["status"] == "succeeded"

            # With the queue drained, the shed artifact resubmits fine.
            retry = await client.submit(texts[2])
            assert retry.status == 202
            job = await client.wait_for_job(retry.json()["job_id"])
            assert job["status"] == "succeeded"

            metrics = await scrape(client)
            assert metrics["aitia_daemon_shed_queue_full_total"] == 1
            assert metrics["aitia_daemon_accepted_total"] == 3
            assert metrics["aitia_daemon_completed_total"] == 3
            assert_reconciled(metrics)

        daemon_test(tmp_path, scenario, paused=True, max_depth=2)

    def test_rate_limited_tenant_sheds_others_pass(self, tmp_path):
        async def scenario(daemon, client):
            text = artifact_text("SYZ-05")
            first = await client.submit(text, tenant="noisy")
            assert first.status == 202
            second = await client.submit(text, tenant="noisy")
            assert second.status == 429
            assert second.json()["error"] == "rate_limited"
            # Another tenant has its own bucket; same signature, so the
            # submission folds into the queued job instead of shedding.
            other = await client.submit(text, tenant="quiet")
            assert other.status == 202
            assert other.json()["status"] == "duplicate"

            metrics = await scrape(client)
            assert metrics["aitia_daemon_shed_rate_limited_total"] == 1
            assert metrics['aitia_daemon_tenant_shed{tenant="noisy"}'] == 1
            assert metrics['aitia_daemon_tenant_accepted{tenant="noisy"}'] == 1
            assert_reconciled(metrics)

        daemon_test(tmp_path, scenario, paused=True,
                    tenant_policy=TenantPolicy(rate=0.000001, burst=1.0))

    def test_lifetime_quota(self, tmp_path):
        async def scenario(daemon, client):
            first = await client.submit(artifact_text("SYZ-06"), tenant="t")
            assert first.status == 202
            second = await client.submit(artifact_text("SYZ-07"), tenant="t")
            assert second.status == 429
            assert second.json()["error"] == "quota_exceeded"

        daemon_test(tmp_path, scenario, paused=True,
                    tenant_policy=TenantPolicy(max_accepted=1))


class TestRoutingAndHealth:
    def test_errors_and_health(self, tmp_path):
        async def scenario(daemon, client):
            assert (await client.request("GET", "/nope")).status == 404
            assert (await client.request("GET", "/submit")).status == 405
            assert (await client.request("PUT", "/job/x")).status == 405
            assert (await client.request("GET", "/job/missing")).status == 404
            assert (await client.request(
                "GET", "/result/feedfeedfeedfeed")).status == 404

            bad = await client.request("POST", "/submit", b"not an artifact")
            assert bad.status == 400

            bad_priority = await client.submit(artifact_text("SYZ-08"),
                                               priority=None)
            bad_priority = await client.request(
                "POST", "/submit", artifact_text("SYZ-08").encode(),
                {"X-Priority": "high"})
            assert bad_priority.status == 400

            health = (await client.request("GET", "/healthz")).json()
            assert health["status"] == "ok"
            metrics = await scrape(client)
            assert metrics["aitia_daemon_rejected_total"] == 2
            assert_reconciled(metrics)

        daemon_test(tmp_path, scenario)

    def test_empty_intake_message_matches_batch_verb(self, tmp_path):
        async def scenario(daemon, client):
            health = (await client.request("GET", "/healthz")).json()
            # Nothing submitted yet: the daemon reports the batch verb's
            # "nothing to do" message, one shared behaviour (satellite).
            assert health["message"] == EMPTY_INTAKE_MESSAGE
            await client.submit(artifact_text("SYZ-09"))
            health = (await client.request("GET", "/healthz")).json()
            assert "message" not in health

        daemon_test(tmp_path, scenario, paused=True)

    def test_connection_close_honored(self, tmp_path):
        async def scenario(daemon, client):
            response = await client.request("GET", "/healthz", b"",
                                            {"Connection": "close"})
            assert response.status == 200
            assert response.headers["connection"] == "close"
            # The client transparently reconnects.
            assert (await client.request("GET", "/healthz")).status == 200

        daemon_test(tmp_path, scenario)


class TestRecoveryInProcess:
    def test_journaled_jobs_rerun_after_restart(self, tmp_path):
        data_dir = str(tmp_path / "data")

        async def park(daemon, client):
            for bug in ("SYZ-10", "SYZ-11"):
                assert (await client.submit(artifact_text(bug))).status == 202
            assert daemon.queue.depth == 2

        daemon_test(tmp_path, park, paused=True, data_dir=data_dir)

        async def drain(daemon, client):
            assert len(daemon.queue.recovered) == 2
            await wait_until(lambda: daemon.metrics.count("completed") == 2)
            metrics = await scrape(client)
            assert metrics["aitia_daemon_recovered_total"] == 2
            assert metrics["aitia_daemon_accepted_total"] == 2
            assert metrics["aitia_daemon_in_flight"] == 0
            assert_reconciled(metrics)
            # The recovered work was diagnosed exactly once each.
            assert len(daemon.store) == 2

        daemon_test(tmp_path, drain, data_dir=data_dir)

    def test_completed_but_unmarked_job_not_rediagnosed(self, tmp_path):
        data_dir = str(tmp_path / "data")
        digests = {}

        async def park(daemon, client):
            for bug in ("SYZ-01", "SYZ-02"):
                accepted = (await client.submit(artifact_text(bug))).json()
                digests[bug] = accepted["digest"]

        daemon_test(tmp_path, park, paused=True, data_dir=data_dir)

        # Simulate a crash after the result hit the store but before the
        # journal's "done" record: persist SYZ-01's result by hand.
        from repro.daemon.tiers import ShardedColdStore
        from repro.daemon.queue import DEFAULT_QUEUE_SHARDS  # noqa: F401
        import os
        cold = ShardedColdStore(os.path.join(data_dir, "store"))
        cold.put(digests["SYZ-01"], {"bug_id": "SYZ-01", "row": {}})
        cold.close()

        calls = []

        def counting_diagnoser(payload):
            calls.append(payload["bug_id"])
            return stub_diagnose_job(payload)

        async def drain(daemon, client):
            await wait_until(lambda: daemon.metrics.count("completed") == 2)
            metrics = await scrape(client)
            assert metrics["aitia_daemon_completed_from_store_total"] == 1
            assert_reconciled(metrics)

        daemon_test(tmp_path, drain, data_dir=data_dir,
                    diagnoser=counting_diagnoser)
        # SYZ-01 answered from the store; only SYZ-02 was diagnosed.
        assert calls == ["SYZ-02"]


class TestShutdown:
    def test_stopping_daemon_sheds_with_503(self, tmp_path):
        async def scenario(daemon, client):
            daemon.request_shutdown()
            response = await client.submit(artifact_text("SYZ-12"))
            assert response.status == 503
            metrics_response = await client.request("GET", "/metrics")
            assert metrics_response.status == 200  # reads still served
            metrics = parse_exposition(metrics_response.text)
            assert metrics["aitia_daemon_shed_stopping_total"] == 1
            assert_reconciled(metrics)

        daemon_test(tmp_path, scenario)
