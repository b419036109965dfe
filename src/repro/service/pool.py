"""Process dispatch: triage jobs run in-process or on resident workers.

A diagnosis always runs in one process; batches of diagnoses (a corpus
evaluation, a triage drain, the daemon's queue) spread over worker
processes.  :func:`make_executor` builds the placement for a batch:
:class:`InProcessPool` at ``jobs <= 1``, else a :class:`JobExecutor`
whose workers fork on the first ``run()`` and stay resident across
runs, so repeated drains pay no fork + import per job.  Both share one
contract: ``run(jobs, on_complete)`` drives every
:class:`~repro.service.queue.TriageJob` to a terminal outcome in place,
streaming each to ``on_complete`` as it settles, and ``close()``
retires the workers.  The simulator is deterministic, so rows are
bit-identical at any ``jobs``.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Sequence

from repro.service.queue import JobOutcome, RetryPolicy, TriageJob

Worker = Callable[[dict], dict]


class InProcessPool:
    """Serial placement (``--jobs 1``): the job-executor contract, no
    processes.

    Never reads ``job.timeout_s``: a job runs to completion however
    long it takes.

    Takes no :class:`RetryPolicy`: the policy only governs worker-death
    retries, and an in-process worker cannot die without taking the
    whole pool with it — passing one here would silently promise retry
    behaviour that can never trigger, so the parameter is rejected
    loudly (``TypeError``) instead of accepted and ignored.
    """

    def __init__(self, worker: Worker) -> None:
        self.worker = worker

    def run(self, jobs: Sequence[TriageJob],
            on_complete: Optional[Callable[[TriageJob], None]] = None,
            ) -> List[TriageJob]:
        run_started = time.monotonic()
        for job in jobs:
            if job.done:
                continue
            job.outcome = JobOutcome.RUNNING
            job.attempts += 1
            start = time.monotonic()
            job.queue_wait_s = start - run_started
            try:
                job.result = self.worker(job.payload)
                job.outcome = JobOutcome.SUCCEEDED
            except KeyboardInterrupt:
                raise  # the user's ^C, not the job's failure
            except BaseException as exc:  # noqa: BLE001 — same contract as
                # a child worker: SystemExit and friends are reported as
                # a failed job, exactly like a worker process would.
                job.outcome = JobOutcome.FAILED
                job.error = f"{type(exc).__name__}: {exc}"
            job.seconds += time.monotonic() - start
            if on_complete is not None:
                on_complete(job)
        return list(jobs)

    def close(self) -> None:
        """No resident workers to retire; present so every job executor
        shares one lifecycle contract."""


# ----------------------------------------------------------------------
def _worker_main(worker: Worker, conn) -> None:
    """Resident worker loop: serve ``(task_id, payload)`` messages until
    the ``None`` sentinel or a closed pipe."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        task_id, payload = message
        try:
            reply = (task_id, "ok", worker(payload))
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            reply = (task_id, "error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover
            break


class _ResidentWorker:
    """One forked worker process and its parent-side bookkeeping."""

    def __init__(self, ctx, worker: Worker) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(worker, child_conn),
            daemon=True, name="repro-pool-worker")
        self.process.start()
        child_conn.close()  # parent keeps its own end only
        self.closed = False
        #: Task currently in flight on this worker (``None`` when idle).
        self.task_id: Optional[int] = None
        self.deadline: Optional[float] = None

    @property
    def alive(self) -> bool:
        return not self.closed and self.process.exitcode is None

    @property
    def idle(self) -> bool:
        return self.alive and self.task_id is None

    def clear_task(self) -> None:
        self.task_id = None
        self.deadline = None

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():  # pragma: no cover — stubborn child
                self.process.kill()
                self.process.join(timeout=1.0)
        if not self.closed:
            self.closed = True
            try:
                self.conn.close()
            except OSError:  # pragma: no cover
                pass


class JobExecutor:
    """Run triage jobs on ``jobs`` resident fork workers.

    Per-job deadline, worker-death retry with the
    :class:`~repro.service.queue.RetryPolicy` backoff, deterministic
    worker exceptions reported as ``failed`` without retry, and a
    bounded respawn budget so a worker that keeps dying fails the
    remaining jobs loudly instead of spinning.
    """

    def __init__(self, worker: Worker, jobs: int = 2,
                 retry: Optional[RetryPolicy] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.worker = worker
        self.jobs = jobs
        self.retry = retry or RetryPolicy()
        self.workers: List[_ResidentWorker] = []
        self.respawns = 0
        self.max_respawns = 0
        self.started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Fork the workers (idempotent, non-blocking): the pipes
        buffer, so jobs may be dispatched while a worker still boots."""
        if self.started:
            return
        self.started = True
        self._ctx = multiprocessing.get_context("fork")
        self.workers = [_ResidentWorker(self._ctx, self.worker)
                        for _ in range(self.jobs)]

    def close(self) -> None:
        """Retire the workers: sentinel, short join, kill stragglers."""
        for worker in self.workers:
            if worker.alive:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in self.workers:
            worker.process.join(timeout=0.5)
            worker.kill()
        self.workers = []
        self.started = False

    # -- the job loop ---------------------------------------------------
    def run(self, jobs: Sequence[TriageJob],
            on_complete: Optional[Callable[[TriageJob], None]] = None,
            ) -> List[TriageJob]:
        """Execute every job to a terminal outcome; returns the same
        objects, mutated in place (order preserved)."""
        self.start()
        pending: List[tuple] = [(0.0, job) for job in jobs
                                if not job.done]  # (not_before, job)
        # Budget worker respawns to what the retry policy can consume:
        # every attempt of every job may cost one worker, plus the
        # pool's own width.
        self.max_respawns = (
            self.respawns
            + len(pending) * (self.retry.max_retries + 1) + self.jobs)
        run_started = time.monotonic()
        in_flight: Dict[int, tuple] = {}  # task_id -> (job, started_at)
        next_task_id = 0
        while pending or in_flight:
            now = time.monotonic()
            idle = self.idle()
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
                if self.dispatch(worker, task_id, job.payload,
                                 timeout_s=job.timeout_s):
                    in_flight[task_id] = (job, now)
                else:
                    # Dead at send time: same treatment as a worker that
                    # died mid-job.
                    self._lost(job, None, pending, on_complete)
            if not in_flight and pending \
                    and not any(w.alive for w in self.workers):
                # Respawn budget exhausted with work left: fail loudly
                # instead of spinning forever.
                for _, job in pending:
                    job.outcome = JobOutcome.FAILED
                    job.error = "worker pool exhausted its respawn budget"
                    if on_complete is not None:
                        on_complete(job)
                pending = []
                break
            events = self.poll(0.02)
            now = time.monotonic()
            for kind, task_id, body in events:
                entry = in_flight.pop(task_id, None)
                if entry is None:  # pragma: no cover — stale completion
                    continue
                job, started_at = entry
                job.seconds += now - started_at
                if kind == "ok":
                    job.outcome = JobOutcome.SUCCEEDED
                    job.result = body
                elif kind == "error":
                    job.outcome = JobOutcome.FAILED
                    job.error = body
                elif kind == "timeout":
                    # Deterministic simulator: a job that blew its
                    # deadline once will blow it again — never retried.
                    job.outcome = JobOutcome.TIMED_OUT
                    job.error = f"exceeded {job.timeout_s:.1f}s timeout"
                else:  # lost — worker died without posting a result
                    self._lost(job, body, pending, on_complete)
                    continue
                if on_complete is not None:
                    on_complete(job)
        return list(jobs)

    def _lost(self, job, exitcode, pending, on_complete) -> None:
        """Worker-death bookkeeping: requeue with backoff while the
        retry policy allows, else report the job ``failed``."""
        if job.attempts <= self.retry.max_retries:
            job.outcome = JobOutcome.PENDING
            delay = self.retry.delay(job.attempts)
            pending.append((time.monotonic() + delay, job))
            return
        job.outcome = JobOutcome.FAILED
        job.error = (f"worker died (exit {exitcode}) "
                     f"after {job.attempts} attempt(s)")
        if on_complete is not None:
            on_complete(job)

    # -- dispatch and completion ----------------------------------------
    def idle(self) -> List[_ResidentWorker]:
        """Alive workers with no task in flight."""
        return [w for w in self.workers if w.idle]

    def dispatch(self, worker: _ResidentWorker, task_id: int, payload,
                 timeout_s: Optional[float] = None) -> bool:
        """Send one task; ``False`` (after reaping + respawning) when the
        worker turned out to be dead at send time."""
        try:
            worker.conn.send((task_id, payload))
        except (BrokenPipeError, OSError):
            self._reap(worker, [])
            return False
        worker.task_id = task_id
        worker.deadline = (time.monotonic() + timeout_s
                           if timeout_s is not None else None)
        return True

    def poll(self, timeout: float = 0.0) -> List[tuple]:
        """Drain every readable pipe (waiting up to ``timeout`` for the
        first message), reap dead workers, expire deadlines.

        Returns ``(kind, task_id, body)`` events in completion order:
        ``"ok"`` (``body`` is the worker's result), ``"error"`` (the
        exception text), ``"lost"`` (the worker died with the task in
        flight; its exit code) or ``"timeout"`` (``None``).
        """
        events: List[tuple] = []
        by_conn = {w.conn: w for w in self.workers if not w.closed}
        if by_conn:
            try:
                readable = _connection_wait(list(by_conn), timeout)
            except OSError:  # pragma: no cover — race with a closing pipe
                readable = []
            for conn in readable:
                self._drain(by_conn[conn], events)
        self._expire(events)
        return events

    def _drain(self, worker: _ResidentWorker, events: List[tuple]) -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                task_id, kind, body = worker.conn.recv()
            except (EOFError, OSError):
                self._reap(worker, events)
                return
            worker.clear_task()
            events.append((kind, task_id, body))

    def _expire(self, events: List[tuple]) -> None:
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.deadline is None or now <= worker.deadline:
                continue
            # A result posted between the last poll and the deadline
            # check must not be discarded by the kill below — drain the
            # pipe once more before declaring the timeout.
            self._drain(worker, events)
            if worker.task_id is None or not worker.alive:
                continue
            task_id = worker.task_id
            worker.clear_task()
            worker.kill()
            self._remove_and_respawn(worker)
            events.append(("timeout", task_id, None))

    def _reap(self, worker: _ResidentWorker, events: List[tuple]) -> None:
        """A worker's pipe hit EOF / its process died: surface the lost
        task (if any) and respawn within budget."""
        exitcode = worker.process.exitcode
        task_id = worker.task_id
        worker.clear_task()
        worker.kill()
        self._remove_and_respawn(worker)
        if task_id is not None:
            events.append(("lost", task_id, exitcode))

    def _remove_and_respawn(self, worker: _ResidentWorker) -> None:
        if worker in self.workers:
            self.workers.remove(worker)
        if self.started and self.respawns < self.max_respawns:
            self.respawns += 1
            self.workers.append(_ResidentWorker(self._ctx, self.worker))


# ----------------------------------------------------------------------
def make_executor(*, worker: Worker, jobs: int = 1,
                  retry: Optional[RetryPolicy] = None):
    """The one front door for process dispatch.

    :class:`InProcessPool` at ``jobs <= 1`` or where the ``fork`` start
    method is unavailable (workers inherit the worker callable and the
    already-imported modules by fork, not by pickling), else a
    :class:`JobExecutor` of ``jobs`` resident workers.  Long-lived
    owners (the daemon) must call ``close()`` to retire the workers.
    """
    if jobs <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return InProcessPool(worker)
    return JobExecutor(worker, jobs=jobs, retry=retry)
