"""Job model of the triage service.

A :class:`TriageJob` is one unit of diagnosis work: a picklable payload
(what the worker needs to rebuild and diagnose the crash), a priority, a
timeout, and the retry budget that governs what happens when the worker
process servicing it dies.  :class:`JobQueue` orders pending jobs by
priority (lower value first), FIFO within a priority.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: The per-job deadline every job gets unless its submitter sets one:
#: the triage service, the daemon, the CLI's ``--timeout`` and journal
#: replay all read it.
DEFAULT_JOB_TIMEOUT_S = 300.0


class JobOutcome(enum.Enum):
    """Terminal (and transient) states of a triage job."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    TIMED_OUT = "timed_out"
    CACHE_HIT = "cache_hit"

    @property
    def is_terminal(self) -> bool:
        return self not in (JobOutcome.PENDING, JobOutcome.RUNNING)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff on worker death.

    Timeouts are *not* retried — a job that blew its deadline once will
    blow it again on a deterministic simulator; it is reported as
    ``timed_out`` and the pool moves on.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.backoff_s * (self.backoff_factor ** max(attempt - 1, 0))


@dataclass
class TriageJob:
    """One diagnosis job flowing through the service."""

    job_id: str
    payload: dict
    priority: int = 0
    #: Per-job deadline in seconds; ``None`` runs the job unbounded.
    #: Only the resident-worker pool (``jobs > 1``) enforces it.
    timeout_s: Optional[float] = DEFAULT_JOB_TIMEOUT_S
    attempts: int = 0
    outcome: JobOutcome = JobOutcome.PENDING
    result: Optional[dict] = None
    error: str = ""
    #: Wall-clock seconds spent diagnosing (0 for cache hits).
    seconds: float = 0.0
    #: Seconds the job waited in the pool before its first attempt
    #: launched (0 for cache hits, which never reach the pool).
    queue_wait_s: float = 0.0
    #: Ids of duplicate submissions folded into this job by signature
    #: dedup — they all share this job's result.
    duplicates: List[str] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.outcome.is_terminal


class QueueFull(Exception):
    """Push rejected: the queue is at its bounded depth.

    The backpressure signal of the triage daemon — callers shed the
    submission (HTTP 429) instead of letting the queue grow without
    bound.  Nothing is journaled or enqueued for a rejected push.
    """


class JobQueue:
    """Priority queue of pending jobs (stable within a priority).

    ``max_depth`` bounds the number of *pending* jobs; a push past the
    bound raises :class:`QueueFull` (``None`` means unbounded, the
    batch verb's behaviour).
    """

    def __init__(self, max_depth: Optional[int] = None) -> None:
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._by_id: Dict[str, TriageJob] = {}
        self.max_depth = max_depth

    @property
    def full(self) -> bool:
        return (self.max_depth is not None
                and len(self._heap) >= self.max_depth)

    def push(self, job: TriageJob) -> None:
        if job.job_id in self._by_id:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        if self.full:
            raise QueueFull(
                f"queue at bounded depth {self.max_depth}")
        self._by_id[job.job_id] = job
        heapq.heappush(self._heap, (job.priority, next(self._seq), job))

    def pop(self) -> TriageJob:
        if not self._heap:
            raise IndexError("pop from empty job queue")
        _, _, job = heapq.heappop(self._heap)
        return job

    def drain(self) -> List[TriageJob]:
        """Pop everything, in priority order."""
        jobs = []
        while self._heap:
            jobs.append(self.pop())
        return jobs

    def get(self, job_id: str) -> Optional[TriageJob]:
        return self._by_id.get(job_id)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
