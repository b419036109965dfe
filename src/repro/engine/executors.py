"""The process-dispatch front door: diagnoses fanned out across processes.

Parallelism lives *across* diagnoses, never inside one: a diagnosis
always runs in one process, and batches of diagnoses (a corpus
evaluation, a triage drain, the daemon's queue) spread over worker
processes.  :func:`make_executor` builds the placement for such a
batch:

* :class:`JobExecutor` runs triage/evaluation
  :class:`~repro.service.queue.TriageJob`\\ s on the persistent
  fork-server fleet of :mod:`repro.engine.fleet` (one fork per worker
  lifetime, not per attempt): ``run(jobs, on_complete) -> jobs`` with
  per-job timeout, worker-death retry with backoff, and streaming
  completion callbacks;
* :class:`~repro.service.pool.InProcessPool` is the ``jobs=1``
  placement of the same contract.

Where a diagnosis runs never changes its result: the simulator is
deterministic, so rows are bit-identical at any ``jobs``.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional

from repro.engine.fleet import WorkerFleet, fleet_available


def _call_job_worker(worker, payload: dict, state: dict) -> dict:
    return worker(payload)


class JobExecutor:
    """Run :class:`~repro.service.queue.TriageJob`\\ s on a resident
    worker fleet.

    Per-job deadline (drained once more before the kill, so a result
    posted at the wire is never misreported as a timeout), worker-death
    retry with the :class:`~repro.service.queue.RetryPolicy` backoff,
    deterministic worker exceptions reported as ``failed`` without
    retry.  Workers fork once and stay resident across ``run()`` calls,
    so repeated drains (the daemon's steady state) pay no fork + import
    per attempt.
    """

    name = "jobs"
    parallel = True

    def __init__(self, worker: Callable[[dict], dict], jobs: int = 2,
                 retry=None, context: Optional[str] = None) -> None:
        from repro.service.queue import RetryPolicy

        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if context is None:
            context = "fork" if fleet_available("fork") else None
        self.worker = worker
        self.jobs = jobs
        self.retry = retry or RetryPolicy()
        kwargs = {} if context is None else {"context": context}
        self.fleet = WorkerFleet(
            functools.partial(_call_job_worker, worker), jobs, **kwargs)

    def run(self, jobs, on_complete=None):
        """Execute every job to a terminal outcome; returns the same
        objects, mutated in place (order preserved)."""
        from repro.service.queue import JobOutcome

        self.fleet.start()
        pending: List[tuple] = [(0.0, job) for job in jobs
                                if not job.done]  # (not_before, job)
        # Budget worker respawns to what the retry policy can consume:
        # every attempt of every job may cost one worker, plus the
        # fleet's own width.
        self.fleet.max_respawns = (
            self.fleet.respawns
            + len(pending) * (self.retry.max_retries + 1) + self.jobs)
        run_started = time.monotonic()
        in_flight: Dict[int, tuple] = {}  # task_id -> (job, started_at)
        next_task_id = 0
        while pending or in_flight:
            now = time.monotonic()
            idle = self.fleet.idle()
            while idle:
                idx = next((i for i, (nb, _) in enumerate(pending)
                            if nb <= now), None)
                if idx is None:
                    break
                worker = idle.pop()
                _, job = pending.pop(idx)
                job.outcome = JobOutcome.RUNNING
                job.attempts += 1
                if job.attempts == 1:
                    job.queue_wait_s = now - run_started
                task_id = next_task_id
                next_task_id += 1
                if self.fleet.dispatch(worker, task_id, job.payload,
                                       timeout_s=job.timeout_s):
                    in_flight[task_id] = (job, now)
                else:
                    # Dead at send time: same treatment as a worker that
                    # died mid-job.
                    self._lost(job, None, pending, on_complete)
            if not in_flight and pending \
                    and not any(w.alive for w in self.fleet.workers):
                # Respawn budget exhausted with work left: fail loudly
                # instead of spinning forever.
                for _, job in pending:
                    job.outcome = JobOutcome.FAILED
                    job.error = "worker fleet exhausted its respawn budget"
                    if on_complete is not None:
                        on_complete(job)
                pending = []
                break
            events = self.fleet.poll(0.02)
            now = time.monotonic()
            for event in events:
                entry = in_flight.pop(event.task_id, None)
                if entry is None:  # pragma: no cover — stale completion
                    continue
                job, started_at = entry
                job.seconds += now - started_at
                if event.kind == "ok":
                    job.outcome = JobOutcome.SUCCEEDED
                    job.result = event.body
                elif event.kind == "error":
                    job.outcome = JobOutcome.FAILED
                    job.error = event.body
                elif event.kind == "timeout":
                    # Deterministic simulator: a job that blew its
                    # deadline once will blow it again — never retried.
                    job.outcome = JobOutcome.TIMED_OUT
                    job.error = f"exceeded {job.timeout_s:.1f}s timeout"
                else:  # lost — worker died without posting a result
                    self._lost(job, event.body, pending, on_complete)
                    continue
                if on_complete is not None:
                    on_complete(job)
        return list(jobs)

    def _lost(self, job, exitcode, pending, on_complete) -> bool:
        """Worker-death bookkeeping; ``True`` when the job was requeued
        (not terminal yet)."""
        from repro.service.queue import JobOutcome

        if job.attempts <= self.retry.max_retries:
            job.outcome = JobOutcome.PENDING
            delay = self.retry.delay(job.attempts)
            pending.append((time.monotonic() + delay, job))
            return True
        job.outcome = JobOutcome.FAILED
        job.error = (f"worker died (exit {exitcode}) "
                     f"after {job.attempts} attempt(s)")
        if on_complete is not None:
            on_complete(job)
        return False

    def close(self) -> None:
        self.fleet.close()


# ----------------------------------------------------------------------
def make_executor(*, worker: Callable[[dict], dict], jobs: int = 1,
                  retry=None, context: Optional[str] = None):
    """The one front door for process dispatch.

    Builds a **job executor** (the triage contract:
    ``run(jobs, on_complete)``) for ``worker``:
    :class:`~repro.service.pool.InProcessPool` at ``jobs <= 1`` or
    where forking is impossible (daemonic workers), else a
    :class:`JobExecutor` on the resident fleet.

    Every executor has ``close()``; long-lived owners (the daemon) must
    call it to retire the resident workers.
    """
    from repro.service.pool import InProcessPool

    if jobs <= 1 or not fleet_available(context or "fork"):
        return InProcessPool(worker)
    return JobExecutor(worker, jobs=jobs, retry=retry, context=context)
