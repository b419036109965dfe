"""Command-line interface.

::

    python -m repro list                      # the corpus
    python -m repro show CVE-2017-15649      # model + metadata
    python -m repro diagnose CVE-2017-15649  # direct diagnosis + report
    python -m repro diagnose SYZ-04 --pipeline   # fuzzer-report pipeline
    python -m repro diagnose CVE-2017-15649 --trace t.jsonl  # + tracing
    python -m repro trace-report t.jsonl     # summarize a trace
    python -m repro replay CVE-2017-15649    # record + verify replay
    python -m repro evaluate --json out.json # the whole evaluation
    python -m repro evaluate --jobs 4        # ... across 4 processes
    python -m repro triage --corpus --jobs 4 # crash-triage service
    python -m repro triage reports/ --store store.jsonl   # intake dir
    python -m repro serve --port 8080 --data-dir daemon-data  # daemon
    python -m repro minimize SYZ-08          # delta-debug a reproducer
    python -m repro fuzz SYZ-04 --diagnose   # oracle-free end to end

Every pipeline subcommand (diagnose / evaluate / triage) routes through
the :mod:`repro.api` facade and shares one flag vocabulary via parent
parsers: ``--trace PATH`` (JSONL span/counter trace), ``--jobs N``,
``--timeout S`` and (triage) ``--store PATH`` are spelled and defaulted
identically everywhere they appear.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import api
from repro.analysis.report import render_report
from repro.analysis.tables import Table
from repro.corpus import registry
from repro.engine import EnginePolicy

#: One shared default for every subcommand that takes ``--timeout``.
DEFAULT_TIMEOUT_S = 300.0


def _parent_parsers():
    """The shared flag vocabulary, as argparse parent parsers.

    ``trace``: --trace for every pipeline subcommand; ``policy``:
    --policy for everything that diagnoses; ``pool``: --jobs and
    --timeout for the multi-bug subcommands (--jobs is the one
    parallelism knob: diagnoses fan out across worker processes, each
    diagnosis runs in one); ``store``: --store for the triage service.
    (The 1.x hidden aliases --workers, --job-timeout and --result-store
    were removed in 2.0.)
    """
    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument("--trace", metavar="PATH",
                       help="write a JSONL span/counter trace of this "
                            "run to PATH (see 'repro trace-report')")

    policy = argparse.ArgumentParser(add_help=False)
    from repro.policy import POLICY_CHOICES
    policy.add_argument("--policy", choices=POLICY_CHOICES, default=None,
                        help="search policy: 'static' (canonical order, "
                             "the default) or 'adaptive' (rank candidate "
                             "runs by prior-diagnosis experience and "
                             "prune flips ruled out by error "
                             "invariants); diagnoses are bit-identical, "
                             "only policy.* accounting differs")

    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="diagnose this many bugs at once in worker "
                           "processes (default 1: in-process)")
    pool.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                      metavar="S",
                      help="per-job timeout in seconds (default "
                           f"{DEFAULT_TIMEOUT_S:.0f})")

    store = argparse.ArgumentParser(add_help=False)
    store.add_argument("--store", metavar="PATH",
                       help="persistent JSONL result store; repeat "
                            "signatures answer from it as cache hits")
    return trace, policy, pool, store


def _engine_policy(args: argparse.Namespace) -> EnginePolicy:
    """Resolve the run's engine policy from the CLI flags.

    CLI flags sit at the lowest precedence tier: an explicit algorithm
    config or api keyword (neither expressible from the command line)
    would win over them, per :meth:`EnginePolicy.resolve`.
    """
    no_snapshot = getattr(args, "no_snapshot", False)
    return EnginePolicy.resolve(
        cli_snapshots=False if no_snapshot else None,
        cli_search_policy=getattr(args, "policy", None))


def _open_tracer(args: argparse.Namespace):
    """The run's tracer, from ``--trace`` (None when untraced)."""
    path = getattr(args, "trace", None)
    if not path:
        return None
    from repro.observe import JsonlSink, Tracer
    return Tracer(JsonlSink(path))


def _close_tracer(tracer, args: argparse.Namespace) -> None:
    if tracer is not None:
        tracer.close()
        print(f"trace written to {args.trace}")


def _cmd_list(args: argparse.Namespace) -> int:
    registry.load()
    table = Table("aitia-repro corpus",
                  ["bug id", "source", "subsystem", "failure",
                   "multi-var", "threads"])
    bugs = (registry.figure_examples() + registry.all_bugs()
            + registry.extension_bugs())
    for bug in bugs:
        multi = "loose" if bug.loosely_correlated else (
            "yes" if bug.multi_variable else "no")
        table.add_row(bug.bug_id, bug.source, bug.subsystem,
                      bug.bug_type.name, multi, len(bug.threads))
    print(table.render())
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    bug = registry.get_bug(args.bug_id)
    print(f"{bug.bug_id}: {bug.title}")
    print(f"subsystem: {bug.subsystem}; failure: {bug.bug_type.value}")
    print()
    print(bug.description)
    print()
    print("racing contexts:")
    for thread in bug.threads:
        print(f"  {thread.proc}: {thread.syscall} -> {thread.entry}() "
              f"[{thread.kind.value}]")
    print()
    print(bug.image.disassemble())
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    bug = registry.get_bug(args.bug_id)
    report = None
    if args.pipeline:
        from repro.trace.syzkaller import run_bug_finder
        report = run_bug_finder(bug)
        print(f"[bug finder] {report.crash.failure}")
        print(f"[bug finder] history of {len(report.history)} events")
    tracer = _open_tracer(args)
    policy = _engine_policy(args)
    try:
        diagnosis = api.diagnose(bug, report=report, vm_count=args.vms,
                                 snapshots=policy.use_snapshots,
                                 policy=policy.search_policy,
                                 tracer=tracer)
    finally:
        _close_tracer(tracer, args)
    print(render_report(diagnosis, image=bug.image))
    return 0 if diagnosis.reproduced else 1


def _cmd_evaluate(args: argparse.Namespace) -> int:
    tracer = _open_tracer(args)
    policy = _engine_policy(args)
    try:
        evaluation = api.evaluate(args.bug_ids or None,
                                  pipeline=args.pipeline, jobs=args.jobs,
                                  timeout_s=args.timeout,
                                  snapshots=policy.use_snapshots,
                                  policy=policy.search_policy,
                                  tracer=tracer)
    finally:
        _close_tracer(tracer, args)
    table = Table("corpus evaluation",
                  ["bug", "repro", "inter", "LIFS #", "CA #",
                   "races", "chain", "ambiguous"])
    for row in evaluation.rows:
        table.add_row(row.bug_id, "yes" if row.reproduced else "NO",
                      row.interleavings, row.lifs_schedules,
                      row.ca_schedules, row.races_detected,
                      row.races_in_chain,
                      "yes" if row.ambiguous else "no")
    print(table.render())
    averages = evaluation.averages()
    print(f"\naverages: {averages['memory_accesses']:.1f} accesses, "
          f"{averages['races_detected']:.1f} races, "
          f"{averages['races_in_chain']:.1f} chain races; "
          f"ambiguous: {', '.join(evaluation.ambiguous_bugs) or 'none'}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(evaluation.to_json())
        print(f"wrote {args.json}")
    return 0


def _cmd_triage(args: argparse.Namespace) -> int:
    from repro.service.store import ResultStore
    from repro.service.triage import TriageService

    if not args.corpus and args.intake is None:
        print("error: give an intake directory or --corpus",
              file=sys.stderr)
        return 2
    if args.intake is not None:
        import os
        if not os.path.isdir(args.intake):
            print(f"error: intake directory {args.intake!r} does not exist",
                  file=sys.stderr)
            return 2
    sources: list = []
    if args.corpus:
        registry.load()
        bugs = ([registry.get_bug(b) for b in args.bugs]
                if args.bugs else registry.all_bugs())
        sources.extend(bugs)
        if args.emit:
            import os
            from repro.service.artifacts import emit_artifact
            os.makedirs(args.emit, exist_ok=True)
            for bug in bugs:
                emit_artifact(bug, args.emit)
    if args.intake is not None:
        sources.append(args.intake)
    tracer = _open_tracer(args)
    store = ResultStore(args.store) if args.store else None
    policy = _engine_policy(args)
    service = TriageService(jobs=args.jobs, store=store,
                            timeout_s=args.timeout,
                            policy=policy.search_policy,
                            tracer=tracer)
    try:
        summary = api.triage(sources, pipeline=args.pipeline,
                             service=service)
    finally:
        _close_tracer(tracer, args)
    if summary.empty:
        # Zero reports (an empty intake directory, say) is "nothing to
        # do", not a failure — the daemon treats an idle queue the same
        # way (repro.daemon shares this message).
        from repro.service.triage import EMPTY_INTAKE_MESSAGE
        print(EMPTY_INTAKE_MESSAGE)
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(summary.to_json())
        return 0
    print(summary.render())
    print()
    print(service.metrics.render())
    if args.store:
        print(f"\nstore: {service.store!r}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(summary.to_json())
        print(f"wrote {args.json}")
    return 0 if summary.all_ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.daemon.lifecycle import DaemonConfig, run_daemon
    from repro.daemon.tenants import TenantPolicy

    engine = _engine_policy(args)
    config = DaemonConfig(
        host=args.host, port=args.port, data_dir=args.data_dir,
        jobs=args.jobs, timeout_s=args.timeout,
        policy=engine.search_policy,
        hot_capacity=args.hot_capacity, max_depth=args.max_depth,
        store_shards=args.store_shards, queue_shards=args.queue_shards,
        batch_size=args.batch_size,
        tenant_policy=TenantPolicy(rate=args.rate, burst=args.burst,
                                   max_queued=args.tenant_max_queued),
        paused=args.paused, diagnoser=args.diagnoser,
        port_file=args.port_file)
    if args.trace:
        from repro.observe import JsonlSink, Tracer
        config.tracer = Tracer(JsonlSink(args.trace))
    try:
        return run_daemon(config)
    finally:
        if config.tracer is not None:
            config.tracer.close()


def _cmd_minimize(args: argparse.Namespace) -> int:
    from repro.core.minimize import minimize_schedule

    bug = registry.get_bug(args.bug_id)
    result = minimize_schedule(bug.machine_factory,
                               bug.known_failing_schedule)
    print(f"input:     {bug.known_failing_schedule.describe()}")
    print(f"minimized: {result.schedule.describe()}")
    print(f"removed {result.removed_preemptions} preemption(s) and "
          f"{result.removed_constraints} constraint(s) in "
          f"{result.schedules_executed} verification runs")
    print(f"still fails with: {result.run.failure}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.trace.fuzzer import RandomScheduleFuzzer

    bug = registry.get_bug(args.bug_id)
    fuzzer = RandomScheduleFuzzer(bug.machine_factory, seed=args.seed,
                                  max_runs=args.max_runs)
    result = fuzzer.fuzz()
    if not result.crashed:
        print(f"no crash in {result.runs_executed} random runs "
              f"(seed {args.seed})")
        return 1
    print(f"crash found after {result.runs_executed} random runs "
          f"(seed {args.seed}):")
    print(f"  {result.failure}")
    if result.schedule is not None:
        print(f"  distilled reproducer: {result.schedule.describe()}")
    if args.diagnose:
        from repro.trace.syzkaller import run_bug_finder
        report = run_bug_finder(bug, fuzz_seed=args.seed,
                                max_fuzz_runs=args.max_runs)
        diagnosis = api.diagnose(bug, report=report)
        print()
        print(render_report(diagnosis, image=bug.image))
        return 0 if diagnosis.reproduced else 1
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.observe.report import render_trace_report

    try:
        print(render_trace_report(args.trace_file))
    except BrokenPipeError:
        raise  # output piped into head/less — main() handles it
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.hypervisor.controller import ScheduleController
    from repro.hypervisor.replay import record, replay

    bug = registry.get_bug(args.bug_id)
    run = ScheduleController(bug.machine_factory(),
                             bug.known_failing_schedule).run()
    recording = record(run)
    print(f"recorded: {recording.schedule.describe()}")
    print(f"outcome:  {run.failure}")
    replayed = replay(bug.machine_factory, recording)
    print(f"replayed: identical execution "
          f"({len(replayed.trace)} instructions, same signature)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AITIA (EuroSys 2023) reproduction: diagnose kernel "
                    "concurrency failures as causality chains.")
    sub = parser.add_subparsers(dest="command", required=True)
    trace_parent, policy_parent, pool_parent, store_parent = \
        _parent_parsers()

    sub.add_parser("list", help="list the corpus").set_defaults(
        func=_cmd_list)

    show = sub.add_parser("show", help="print one bug's model")
    show.add_argument("bug_id")
    show.set_defaults(func=_cmd_show)

    diagnose = sub.add_parser("diagnose", help="diagnose one bug",
                              parents=[trace_parent, policy_parent])
    diagnose.add_argument("bug_id")
    diagnose.add_argument("--pipeline", action="store_true",
                          help="go through the synthetic bug finder "
                               "(history + slicing) instead of the "
                               "canonical threads")
    diagnose.add_argument("--no-snapshot", action="store_true",
                          help="ablation: disable the prefix-checkpoint "
                               "engine (snapshot/resume + suffix splicing); "
                               "results are bit-identical, only snapshot.* "
                               "accounting differs")
    diagnose.add_argument("--vms", type=int, default=32,
                          help="VM pool size for the parallel-time "
                               "estimate (default 32)")
    diagnose.set_defaults(func=_cmd_diagnose)

    rep = sub.add_parser("replay",
                         help="record the known failing schedule and "
                              "verify deterministic replay")
    rep.add_argument("bug_id")
    rep.set_defaults(func=_cmd_replay)

    evaluate = sub.add_parser(
        "evaluate", help="run the paper's evaluation over the corpus",
        parents=[trace_parent, policy_parent, pool_parent])
    evaluate.add_argument("bug_ids", nargs="*",
                          help="specific bugs (default: all 22)")
    evaluate.add_argument("--pipeline", action="store_true",
                          help="drive every bug through the synthetic "
                               "bug finder")
    evaluate.add_argument("--no-snapshot", action="store_true",
                          help="ablation: disable the prefix-checkpoint "
                               "engine in both search stages")
    evaluate.add_argument("--json", metavar="PATH",
                          help="also write the structured results as JSON")
    evaluate.set_defaults(func=_cmd_evaluate)

    triage = sub.add_parser(
        "triage", help="run the crash-triage service: intake -> dedup "
                       "-> parallel diagnosis -> cached results",
        parents=[trace_parent, policy_parent, pool_parent, store_parent])
    triage.add_argument("intake", nargs="?", metavar="DIR",
                        help="intake directory of *.crash artifacts")
    triage.add_argument("--corpus", action="store_true",
                        help="triage the corpus bugs instead of (or in "
                             "addition to) an intake directory")
    triage.add_argument("--bugs", nargs="+", metavar="BUG_ID",
                        help="with --corpus: specific bugs "
                             "(default: all 22)")
    triage.add_argument("--pipeline", action="store_true",
                        help="with --corpus: diagnose through the "
                             "synthetic bug finder (history + slicing)")
    triage.add_argument("--emit", metavar="DIR",
                        help="with --corpus: also drop each bug's "
                             "serialized crash artifact into DIR")
    triage.add_argument("--json", metavar="PATH",
                        help="also write the triage summary as JSON")
    triage.set_defaults(func=_cmd_triage)

    serve = sub.add_parser(
        "serve", help="run the long-running triage intake daemon: "
                      "HTTP .crash submission, dedup, journaled queue, "
                      "two-tier result cache, /metrics",
        parents=[trace_parent, policy_parent, pool_parent])
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0: ephemeral; see --port-file)")
    serve.add_argument("--data-dir", default="daemon-data", metavar="DIR",
                       help="queue journal + cold store shards live here "
                            "(default ./daemon-data)")
    serve.add_argument("--hot-capacity", type=int, default=1024,
                       metavar="N",
                       help="hot-tier LRU capacity in records "
                            "(default 1024)")
    serve.add_argument("--store-shards", type=int, default=8, metavar="N",
                       help="cold-tier JSONL shard count (default 8)")
    serve.add_argument("--queue-shards", type=int, default=4, metavar="N",
                       help="queue journal shard count (default 4)")
    serve.add_argument("--max-depth", type=int, default=256, metavar="N",
                       help="bounded queue depth; submissions past it "
                            "are shed with HTTP 429 (default 256)")
    serve.add_argument("--batch-size", type=int, default=4, metavar="N",
                       help="jobs per drain batch (default 4)")
    serve.add_argument("--rate", type=float, default=0.0, metavar="R",
                       help="per-tenant sustained submissions/second "
                            "(default 0: unlimited)")
    serve.add_argument("--burst", type=float, default=100.0, metavar="B",
                       help="per-tenant burst capacity (default 100)")
    serve.add_argument("--tenant-max-queued", type=int, default=None,
                       metavar="N",
                       help="per-tenant bound on queued+running jobs "
                            "(default: unbounded)")
    serve.add_argument("--paused", action="store_true",
                       help="accept and journal submissions but do not "
                            "drain the queue (recovery testing)")
    serve.add_argument("--port-file", metavar="PATH",
                       help="write the bound host:port here once "
                            "listening (for --port 0)")
    serve.add_argument("--diagnoser", metavar="MODULE:FUNC",
                       help="worker entry override (default: the real "
                            "pipeline; tests use "
                            "repro.daemon.worker:stub_diagnose_job)")
    serve.set_defaults(func=_cmd_serve)

    trace_report = sub.add_parser(
        "trace-report",
        help="summarize a --trace JSONL file: per-stage spans and "
             "seconds, LIFS depth profile, CA flips, counters")
    trace_report.add_argument("trace_file", metavar="TRACE.jsonl")
    trace_report.set_defaults(func=_cmd_trace_report)

    minimize = sub.add_parser(
        "minimize", help="delta-debug a bug's known failing schedule")
    minimize.add_argument("bug_id")
    minimize.set_defaults(func=_cmd_minimize)

    fuzz = sub.add_parser(
        "fuzz", help="find the crash with the seeded random scheduler "
                     "(no recorded reproducer)")
    fuzz.add_argument("bug_id")
    fuzz.add_argument("--seed", type=int, default=7)
    fuzz.add_argument("--max-runs", type=int, default=20000)
    fuzz.add_argument("--diagnose", action="store_true",
                      help="continue into the full AITIA pipeline")
    fuzz.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into head/less that closed early — not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
