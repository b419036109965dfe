"""repro.api — the single documented entrypoint to the pipeline.

The library grew three inconsistent front doors (``Aitia(bug)
.diagnose()``, the :mod:`repro.analysis.evaluation` helpers, and
``repro.service.triage``); this facade unifies them behind three
functions the CLI also routes through, so library and command line
share one code path:

* :func:`diagnose` — one bug (by id or object) → :class:`Diagnosis`;
* :func:`evaluate` — a bug set → :class:`CorpusEvaluation`;
* :func:`triage`  — intake directories and/or corpus bugs through the
  crash-triage service → :class:`TriageReport`.

Every function accepts ``tracer=`` (a :class:`repro.observe.Tracer`)
to record structured spans and counters; ``None`` disables tracing at
zero cost.

Example::

    from repro import api
    from repro.observe import MemorySink, Tracer

    tracer = Tracer(MemorySink())
    diagnosis = api.diagnose("CVE-2017-15649", tracer=tracer)
    print(diagnosis.chain.render())
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Union

from repro.core.causality import CaConfig
from repro.core.diagnose import Aitia, Diagnosis
from repro.core.lifs import LifsConfig
from repro.engine import EnginePolicy
from repro.hypervisor.manager import DEFAULT_VM_COUNT

#: The triage facade's report type (the service's summary, re-exported
#: under its documented name).
from repro.service.triage import TriageSummary as TriageReport

__all__ = ["diagnose", "evaluate", "triage", "serve", "TriageReport"]

#: A bug workload object, or its corpus id.
BugLike = Union[str, object]
#: What :func:`triage` accepts: the literal ``"corpus"``, one intake
#: directory path, one bug (or id), or a sequence mixing all of these.
TriageSource = Union[str, object, Sequence[Union[str, object]]]


def _resolve_bug(bug_or_id: BugLike):
    if isinstance(bug_or_id, str):
        from repro.corpus import registry
        return registry.get_bug(bug_or_id)
    return bug_or_id


def diagnose(bug_or_id: BugLike, *,
             report=None,
             pipeline: bool = False,
             lifs: Optional[LifsConfig] = None,
             ca: Optional[CaConfig] = None,
             cost_model=None,
             vm_count: int = DEFAULT_VM_COUNT,
             snapshots: Optional[bool] = None,
             policy: Optional[str] = None,
             experience=None,
             tracer=None) -> Diagnosis:
    """Diagnose one kernel concurrency failure.

    ``bug_or_id`` is a corpus id (``"CVE-2017-15649"``) or any workload
    object the :class:`~repro.core.diagnose.Aitia` orchestrator accepts.
    ``pipeline=True`` first runs the synthetic bug finder to obtain a
    crash report + execution history and diagnoses through modeling and
    slicing; an explicit ``report`` skips the bug finder.  ``lifs`` /
    ``ca`` bound the two search stages; ``tracer`` records spans for
    every pipeline stage (slice, LIFS, CA, chain).

    ``snapshots=False`` is the ``--no-snapshot`` ablation: disable the
    prefix-checkpoint engine (see docs/PERFORMANCE.md) in both stages.
    ``policy="adaptive"`` routes both search stages through the
    adaptive search policy (``--policy``, see docs/PERFORMANCE.md):
    candidate runs are ranked by the ``experience``
    (:class:`~repro.policy.ExperienceIndex`) of prior diagnoses and
    flip candidates ruled out by error invariants are pruned.  Results
    are bit-identical whatever the settings; only the ``snapshot.*`` /
    ``ca.snapshot_*`` / ``policy.*`` accounting differs.  Both are
    ignored when an explicit ``lifs`` / ``ca`` config carries its own
    ``use_snapshots`` / ``policy``.  The diagnosis runs in this process;
    :func:`evaluate` and :func:`triage` fan diagnoses out across worker
    processes with ``jobs``.
    """
    bug = _resolve_bug(bug_or_id)
    if report is None and pipeline:
        from repro.trace.syzkaller import run_bug_finder
        report = run_bug_finder(bug)
    resolved = EnginePolicy.resolve(snapshots=snapshots,
                                    search_policy=policy)
    if lifs is None:
        lifs = LifsConfig(use_snapshots=resolved.use_snapshots,
                          policy=resolved.search_policy)
    if ca is None:
        ca = CaConfig(use_snapshots=resolved.use_snapshots,
                      policy=resolved.search_policy)
    return Aitia(bug, report=report, lifs_config=lifs, ca_config=ca,
                 cost_model=cost_model, vm_count=vm_count,
                 tracer=tracer, experience=experience).diagnose()


def evaluate(bugs: Optional[Sequence[BugLike]] = None, *,
             pipeline: bool = False,
             jobs: int = 1,
             timeout_s: float = 600.0,
             snapshots: Optional[bool] = None,
             policy: Optional[str] = None,
             tracer=None):
    """Run the paper's evaluation over a bug set (default: all 22).

    Returns a :class:`~repro.analysis.evaluation.CorpusEvaluation`.
    With ``jobs > 1`` the bugs are diagnosed in parallel worker
    processes; rows are bit-identical to the sequential ones.
    ``snapshots=False`` disables the prefix-checkpoint engine (the
    ``--no-snapshot`` ablation); ``policy="adaptive"`` the adaptive
    search policy (``--policy``).  Rows are bit-identical whatever the
    settings.
    """
    from repro.analysis.evaluation import evaluate_corpus

    engine = EnginePolicy.resolve(snapshots=snapshots, search_policy=policy)
    resolved = None
    if bugs is not None:
        resolved = [_resolve_bug(b) for b in bugs]
    return evaluate_corpus(resolved, pipeline=pipeline, jobs=jobs,
                           timeout_s=timeout_s,
                           snapshots=engine.use_snapshots,
                           policy=engine.search_policy, tracer=tracer)


def _triage_sources(spec: TriageSource) -> List[Union[str, object]]:
    if spec is None or (isinstance(spec, str) and spec == "corpus"):
        from repro.corpus.registry import all_bugs, load
        load()
        return list(all_bugs())
    if isinstance(spec, (str, os.PathLike)) or not hasattr(spec, "__iter__"):
        spec = [spec]
    sources: List[Union[str, object]] = []
    for item in spec:
        if isinstance(item, str) and item == "corpus":
            from repro.corpus.registry import all_bugs, load
            load()
            sources.extend(all_bugs())
        else:
            sources.append(item)
    return sources


def triage(paths_or_corpus: TriageSource = "corpus", *,
           jobs: int = 1,
           store=None,
           pipeline: bool = False,
           timeout_s: Optional[float] = None,
           policy: Optional[str] = None,
           tracer=None,
           service=None) -> TriageReport:
    """Run the crash-triage service over intake directories and/or bugs.

    ``paths_or_corpus`` is the literal ``"corpus"`` (all 22 corpus
    bugs), an intake directory of ``*.crash`` artifacts, a bug id/
    object, or a sequence mixing those.  ``store`` is a
    :class:`~repro.service.store.ResultStore` or a JSONL path; repeat
    signatures answer from it as cache hits.  ``jobs > 1`` diagnoses
    that many signatures at once in worker processes.  An explicit
    ``service`` overrides ``jobs``/``store``/``timeout_s``/``policy``/
    ``tracer`` (useful for injecting metrics or retry policies in
    tests).
    """
    from repro.service.store import ResultStore
    from repro.service.triage import DEFAULT_JOB_TIMEOUT_S, TriageService

    if service is None:
        if isinstance(store, (str, os.PathLike)):
            store = ResultStore(os.fspath(store))
        engine = EnginePolicy.resolve(search_policy=policy)
        service = TriageService(
            jobs=jobs, store=store,
            timeout_s=DEFAULT_JOB_TIMEOUT_S if timeout_s is None
            else timeout_s,
            policy=engine.search_policy,
            tracer=tracer)
    for source in _triage_sources(paths_or_corpus):
        if isinstance(source, (str, os.PathLike)):
            path = os.fspath(source)
            if not os.path.isdir(path):
                source = _resolve_bug(path)  # a bug id, not a directory
            else:
                service.intake_directory(path)
                continue
        else:
            source = _resolve_bug(source)
        service.submit_bug(source, pipeline=pipeline)
    return service.run()


def serve(*, config=None, **overrides) -> int:
    """Run the long-running triage intake daemon (``repro serve``).

    Blocks until the daemon is shut down (SIGTERM/SIGINT) and returns
    the exit code.  ``config`` is a
    :class:`~repro.daemon.lifecycle.DaemonConfig`; keyword overrides
    are applied on top (or to a default config when none is given)::

        from repro import api
        api.serve(port=8080, data_dir="/var/lib/aitia", jobs=4)

    For an in-process daemon you drive yourself (tests, benchmarks),
    use :func:`repro.daemon.start_daemon` inside a running event loop
    instead.  See ``docs/SERVICE.md`` for the HTTP protocol.
    """
    from dataclasses import replace

    from repro.daemon.lifecycle import DaemonConfig, run_daemon

    if config is None:
        config = DaemonConfig()
    if overrides:
        config = replace(config, **overrides)
    return run_daemon(config)
