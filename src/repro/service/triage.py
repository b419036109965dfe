"""The triage orchestrator: intake → dedup → diagnose → cache.

:class:`TriageService` is the syzbot-style loop above the AITIA
pipeline.  Crash reports enter either as serialized artifacts (an
intake directory a fuzzing fleet drops files into) or straight from the
corpus; each is fingerprinted (:mod:`repro.service.signature`), folded
into an existing job when the signature repeats, answered from the
result store when the signature was ever diagnosed before, and
otherwise dispatched to the worker pool.  Completed diagnoses are
persisted keyed by signature digest, so the service's steady state is
cache hits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional

from repro.service.artifacts import (
    ArtifactParseError,
    CrashArtifact,
    scan_directory,
)
from repro.engine.executors import make_executor
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobOutcome, JobQueue, RetryPolicy, TriageJob
from repro.service.signature import CrashSignature, signature_of
from repro.service.store import ResultStore

DEFAULT_JOB_TIMEOUT_S = 300.0


#: The one empty-intake behaviour: zero crash reports is "nothing to
#: do", not an error.  The batch verb prints this and exits 0; the
#: daemon reports it when asked to drain an empty queue.
EMPTY_INTAKE_MESSAGE = "triage: no crash reports to process (nothing to do)"


def diagnose_job(payload: dict) -> dict:
    """Worker entry: rebuild the crash and run the full diagnosis.

    Shared by the batch triage service and the ``repro serve`` daemon
    (:mod:`repro.daemon.worker`).  Must stay a module-level function
    (worker processes may need to pickle it under the ``spawn`` start
    method).  Returns plain dicts — everything crossing the process
    boundary is JSON-shaped, which is also exactly what the result
    store persists.
    """
    from repro.analysis.evaluation import summarize_diagnosis
    from repro.core.causality import CaConfig
    from repro.core.diagnose import Aitia
    from repro.core.lifs import LifsConfig
    from repro.corpus import registry

    bug = registry.get_bug(payload["bug_id"])
    mode = payload["mode"]
    if mode == "artifact":
        report = CrashArtifact.parse(payload["artifact"]).to_report()
    elif mode == "pipeline":
        from repro.trace.syzkaller import run_bug_finder
        report = run_bug_finder(bug)
    elif mode == "direct":
        report = None
    else:
        raise ValueError(f"unknown triage mode {mode!r}")
    from repro.engine import EnginePolicy
    from repro.policy import ExperienceIndex

    # Payloads journaled by older daemons may carry extra engine keys
    # (a per-diagnosis wave width, an executor name); only the search
    # policy still shapes a diagnosis, so anything else is ignored.
    policy = EnginePolicy.resolve(search_policy=payload.get("policy"))
    experience = None
    if policy.search_policy != "static":
        # Rebuild the submitter's experience index from the payload
        # snapshot (empty priors otherwise) — the adaptive policy ranks
        # candidates against it inside this worker.
        experience = ExperienceIndex.from_snapshot(payload.get("experience"))
    diagnosis = Aitia(
        bug, report=report,
        lifs_config=LifsConfig(policy=policy.search_policy),
        ca_config=CaConfig(policy=policy.search_policy),
        experience=experience).diagnose()
    row = summarize_diagnosis(bug, diagnosis)
    result = {"bug_id": bug.bug_id, "mode": mode, "row": asdict(row)}
    if diagnosis.reproduced:
        # What this diagnosis learned, for the submitter to persist and
        # absorb — future adaptive searches rank by it.
        result["experience"] = ExperienceIndex.record_of(bug.bug_id,
                                                         diagnosis)
    return result


@dataclass
class TriageResult:
    """One signature's triage outcome (duplicates folded in)."""

    bug_id: str
    digest: str
    outcome: str  #: :class:`JobOutcome` value
    duplicates: int = 0
    attempts: int = 0
    seconds: float = 0.0
    reproduced: Optional[bool] = None
    chain: str = ""
    lifs_schedules: int = 0
    ca_schedules: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome in (JobOutcome.SUCCEEDED.value,
                                JobOutcome.CACHE_HIT.value)


@dataclass
class TriageSummary:
    """Everything one triage run did, renderable and archivable."""

    results: List[TriageResult] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def count(self, outcome: JobOutcome) -> int:
        return sum(1 for r in self.results if r.outcome == outcome.value)

    @property
    def empty(self) -> bool:
        """No reports reached the run — the "nothing to do" case."""
        return not self.results

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        from repro.analysis.tables import Table

        table = Table("crash triage",
                      ["bug", "signature", "outcome", "dups", "repro",
                       "LIFS #", "CA #", "secs", "chain"])
        for r in self.results:
            repro = "-" if r.reproduced is None else (
                "yes" if r.reproduced else "NO")
            table.add_row(r.bug_id, r.digest, r.outcome, r.duplicates,
                          repro, r.lifs_schedules, r.ca_schedules,
                          f"{r.seconds:.2f}", r.chain or r.error)
        counts = ", ".join(
            f"{self.count(o)} {o.value}" for o in (
                JobOutcome.SUCCEEDED, JobOutcome.CACHE_HIT,
                JobOutcome.FAILED, JobOutcome.TIMED_OUT))
        return f"{table.render()}\n\ntotals: {counts}"

    def to_json(self, indent: int = 2) -> str:
        return json.dumps({"results": [asdict(r) for r in self.results],
                           "metrics": self.metrics}, indent=indent)


class TriageService:
    """Ingests crash reports, diagnoses each unique signature once."""

    def __init__(self, jobs: int = 1,
                 store: Optional[ResultStore] = None,
                 metrics: Optional[ServiceMetrics] = None,
                 retry: Optional[RetryPolicy] = None,
                 timeout_s: float = DEFAULT_JOB_TIMEOUT_S,
                 context: Optional[str] = None,
                 policy: str = "static",
                 tracer=None) -> None:
        from repro.observe.tracer import as_tracer
        from repro.policy import ExperienceIndex

        self.jobs = jobs
        #: Search policy for each diagnosis (``"static"`` /
        #: ``"adaptive"``), forwarded in every job payload.
        self.policy = policy
        self.store = store if store is not None else ResultStore()
        #: The service-side experience index: seeded from the result
        #: store's persisted experience records, grown live as jobs
        #: complete, snapshotted into adaptive job payloads.
        self.experience = ExperienceIndex()
        if policy != "static":
            self.experience.load(self.store)
        self.tracer = as_tracer(tracer)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        if self.tracer.enabled:
            self.metrics.bind_tracer(self.tracer)
        self.retry = retry or RetryPolicy()
        self.timeout_s = timeout_s
        self._context = context
        self._queue = JobQueue()
        self._by_digest: dict = {}
        self._order: List[TriageJob] = []

    # -- intake ---------------------------------------------------------
    def _submit(self, bug_id: str, signature: CrashSignature,
                payload: dict, source: str, priority: int) -> TriageJob:
        self.metrics.incr("reports_submitted")
        digest = signature.digest
        existing = self._by_digest.get(digest)
        if existing is not None:
            existing.duplicates.append(source)
            self.metrics.incr("reports_deduped")
            return existing
        payload = dict(payload, bug_id=bug_id, digest=digest,
                       policy=self.policy)
        if self.policy != "static" and self.experience:
            payload["experience"] = self.experience.snapshot()
        job = TriageJob(job_id=f"{bug_id}:{digest}", payload=payload,
                        priority=priority, timeout_s=self.timeout_s)
        self._by_digest[digest] = job
        self._order.append(job)
        cached = self.store.get(digest)
        if cached is not None:
            job.outcome = JobOutcome.CACHE_HIT
            job.result = cached
            self.metrics.incr("cache_hits")
        else:
            self._queue.push(job)
            self.metrics.incr("jobs_enqueued")
        return job

    def submit_artifact(self, artifact: CrashArtifact,
                        source: str = "", priority: int = 0) -> TriageJob:
        """Ingest one serialized crash artifact."""
        with self.metrics.timer("intake"):
            signature = signature_of(artifact.to_report().crash)
        return self._submit(
            artifact.bug_id, signature,
            {"mode": "artifact", "artifact": artifact.render()},
            source or artifact.bug_id, priority)

    def submit_bug(self, bug, pipeline: bool = False,
                   priority: int = 0) -> TriageJob:
        """Ingest a corpus workload: the synthetic bug finder crashes it
        once (cheap — a single schedule) to obtain the crash report the
        signature is computed from; the diagnosis itself runs in the
        worker."""
        from repro.trace.syzkaller import run_bug_finder

        with self.metrics.timer("intake"):
            report = run_bug_finder(bug, benign_probes=0)
            signature = signature_of(report.crash)
        mode = "pipeline" if pipeline else "direct"
        return self._submit(bug.bug_id, signature, {"mode": mode},
                            bug.bug_id, priority)

    def intake_directory(self, path: str) -> List[TriageJob]:
        """Ingest every ``*.crash`` artifact in a directory; malformed
        files are counted and skipped, never fatal."""
        jobs = []
        for artifact_path in scan_directory(path):
            try:
                artifact = CrashArtifact.read(artifact_path)
            except (ArtifactParseError, OSError):
                self.metrics.incr("intake_errors")
                continue
            jobs.append(self.submit_artifact(artifact,
                                             source=artifact_path))
        return jobs

    # -- execution ------------------------------------------------------
    def run(self) -> TriageSummary:
        """Diagnose every pending unique signature and summarize."""
        pending = self._queue.drain()
        with self.tracer.span("triage.run", stage="triage",
                              jobs=self.jobs, unique=len(self._order),
                              dispatched=len(pending)) as span:
            if pending:
                executor = make_executor(
                    worker=diagnose_job, jobs=self.jobs,
                    retry=self.retry, context=self._context)
                try:
                    with self.metrics.timer("dispatch"):
                        executor.run(pending, on_complete=self._on_complete)
                finally:
                    executor.close()
            summary = TriageSummary(metrics=self.metrics.snapshot())
            for job in self._order:
                summary.results.append(self._result_of(job))
            span.set(cache_hits=self.metrics.count("cache_hits"),
                     succeeded=self.metrics.count("jobs_succeeded"),
                     failed=self.metrics.count("jobs_failed"))
        return summary

    def _on_complete(self, job: TriageJob) -> None:
        self.metrics.incr(f"jobs_{job.outcome.value}")
        if job.attempts > 1:
            self.metrics.incr("jobs_retried", job.attempts - 1)
        self.metrics.observe("queue_wait", job.queue_wait_s)
        if job.outcome is JobOutcome.SUCCEEDED:
            with self.metrics.timer("persist"):
                self.store.put(job.payload["digest"], job.result)
                record = (job.result or {}).get("experience")
                if record:
                    from repro.policy import RECORD_DIGEST_PREFIX
                    self.store.put(
                        RECORD_DIGEST_PREFIX + job.payload["digest"], record)
                    self.experience.absorb_record(record)

    @staticmethod
    def _result_of(job: TriageJob) -> TriageResult:
        result = TriageResult(
            bug_id=job.payload["bug_id"], digest=job.payload["digest"],
            outcome=job.outcome.value, duplicates=len(job.duplicates),
            attempts=job.attempts, seconds=job.seconds, error=job.error)
        row = (job.result or {}).get("row")
        if row:
            result.reproduced = row.get("reproduced")
            result.chain = row.get("chain", "")
            result.lifs_schedules = row.get("lifs_schedules", 0)
            result.ca_schedules = row.get("ca_schedules", 0)
        return result
