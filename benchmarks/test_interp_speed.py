"""Interpreter fast-path throughput: the layer PR 9 optimizes.

Three measurements over the 22-bug corpus, all on the instruction-level
fast path (opcode dispatch table, decoded operands, interval-indexed
memory, O(dirty) captures, generation-cached state keys):

* **steps/sec** — raw interpretation: every bug's known failing
  schedule replayed from its boot checkpoint, fully interpreted each
  time (checkpoint policy on, as in a real run).
* **snapshots/sec / capture bytes** — O(dirty) capture rate: the same
  replay with a capture after *every* step, plus the pickled wire size
  of a mid-run checkpoint.
* **schedules/sec** — the triage replay loop this PR targets: each
  schedule answered by the execution engine resuming from the deepest
  harvested prefix checkpoint (the LIFS extension pattern), suffix
  interpreted, result bit-identical to a fresh boot.  Reported as the
  best of three timed passes so a loaded CI host does not flake the
  floor.

Results land in ``benchmarks/output/bench_interp.json``.  Like the
sibling snapshot benchmark this avoids pytest-benchmark so CI can run
it directly; ``BENCH_INTERP_BUGS=<n>`` restricts to the first *n* bugs
(CI uses 3; subset runs write ``bench_interp.subset.json``).  The >= 5x floor over the pre-fast-path baseline is
asserted only on the full corpus.
"""

import os
import pickle
import time

from conftest import emit, emit_json

from repro.analysis.tables import Table
from repro.corpus import registry
from repro.engine.engine import ScheduleExecutionEngine
from repro.engine.protocol import EnginePolicy, RunRequest
from repro.hypervisor.controller import ScheduleController
from repro.hypervisor.snapshot import CheckpointPolicy, boot_checkpoint

#: Whole-corpus schedule throughput of the diagnosis loop before the
#: instruction-level fast path (bench_snapshot.json, schedules_per_sec_on,
#: measured at the PR 8 seed).
BASELINE_SCHEDULES_PER_SEC = 1503.0

#: Replays per bug in each timed section.
STEP_REPS = 10
REPLAY_REPS = 100
TIMED_PASSES = 3


def _corpus():
    registry.load()
    bugs = list(registry.all_bugs())
    subset = int(os.environ.get("BENCH_INTERP_BUGS", "0"))
    if subset:
        bugs = bugs[:subset]
    return bugs, bool(subset)


def _measure_steps(bugs):
    """Full interpretation from boot: steps/sec with captures on."""
    total_steps = total_runs = 0
    elapsed = 0.0
    for bug in bugs:
        machine = bug.machine_factory()
        boot = boot_checkpoint(machine)
        schedule = bug.known_failing_schedule
        started = time.perf_counter()
        for _ in range(STEP_REPS):
            run = ScheduleController(
                machine, schedule, resume_from=boot,
                checkpoint_policy=CheckpointPolicy()).run()
            total_steps += run.steps
            total_runs += 1
        elapsed += time.perf_counter() - started
    return {
        "runs": total_runs,
        "steps": total_steps,
        "steps_per_sec": round(total_steps / max(1e-9, elapsed)),
    }


def _measure_snapshots(bugs):
    """Capture after every interpreted step: O(dirty) snapshot rate."""
    captures = 0
    elapsed = 0.0
    wire_bytes = []
    for bug in bugs:
        machine = bug.machine_factory()
        boot = boot_checkpoint(machine)
        schedule = bug.known_failing_schedule
        started = time.perf_counter()
        controller = ScheduleController(
            machine, schedule, resume_from=boot,
            checkpoint_policy=CheckpointPolicy(interval=1,
                                               max_checkpoints=1 << 30))
        controller.run()
        elapsed += time.perf_counter() - started
        captures += len(controller.checkpoints)
        if controller.checkpoints:
            mid = controller.checkpoints[len(controller.checkpoints) // 2]
            wire_bytes.append(len(pickle.dumps(mid.machine)))
    return {
        "captures": captures,
        "snapshots_per_sec": round(captures / max(1e-9, elapsed)),
        "capture_bytes_avg": round(sum(wire_bytes)
                                   / max(1, len(wire_bytes))),
    }


def _measure_replay(bugs):
    """Engine-mediated replay from the deepest prefix checkpoint —
    the triage loop's steady state.  Every resumed run is checked
    bit-identical (Mazurkiewicz signature) to a fresh inline boot of
    the same schedule."""
    work = []
    for bug in bugs:
        engine = ScheduleExecutionEngine(
            bug.machine_factory, policy=EnginePolicy(use_snapshots=True))
        schedule = bug.known_failing_schedule
        fresh = ScheduleController(bug.machine_factory(), schedule).run()
        first = eng_run = engine.run(
            RunRequest(schedule=schedule, capture_checkpoints=True))
        assert eng_run.run.signature_hash() == fresh.signature_hash(), \
            bug.bug_id
        assert str(eng_run.run.failure) == str(fresh.failure), bug.bug_id
        deepest = max(first.checkpoints, key=lambda c: c.steps) \
            if first.checkpoints else None
        work.append((bug, engine, schedule, deepest, fresh))

    best = 0.0
    for _ in range(TIMED_PASSES):
        started = time.perf_counter()
        for bug, engine, schedule, deepest, _ in work:
            for _ in range(REPLAY_REPS):
                engine.run(RunRequest(schedule=schedule,
                                      resume_from=deepest))
        elapsed = time.perf_counter() - started
        replays = REPLAY_REPS * len(work)
        best = max(best, replays / max(1e-9, elapsed))

    # Bit-identity spot check after the timed passes: the resumed run
    # still reproduces the fresh boot's signature and failure.
    for bug, engine, schedule, deepest, fresh in work:
        resumed = engine.run(RunRequest(schedule=schedule,
                                        resume_from=deepest))
        assert resumed.run.signature_hash() == fresh.signature_hash(), \
            bug.bug_id
        assert str(resumed.run.failure) == str(fresh.failure), bug.bug_id
    return {
        "replays_per_pass": REPLAY_REPS * len(work),
        "passes": TIMED_PASSES,
        "schedules_per_sec": round(best, 1),
    }


def test_interp_speed():
    bugs, subset = _corpus()

    steps = _measure_steps(bugs)
    snaps = _measure_snapshots(bugs)
    replay = _measure_replay(bugs)
    speedup = replay["schedules_per_sec"] / BASELINE_SCHEDULES_PER_SEC

    table = Table(
        "Interpreter fast path: dispatch table + O(dirty) captures",
        ["metric", "value"])
    table.add_row("bugs", len(bugs))
    table.add_row("steps/sec (full interpretation)", steps["steps_per_sec"])
    table.add_row("snapshots/sec (capture every step)",
                  snaps["snapshots_per_sec"])
    table.add_row("capture bytes (pickled, avg)", snaps["capture_bytes_avg"])
    table.add_row("schedules/sec (resumed replay)",
                  replay["schedules_per_sec"])
    table.add_row("baseline schedules/sec", BASELINE_SCHEDULES_PER_SEC)
    table.add_row("speedup", f"{speedup:.2f}x")
    emit("bench_interp", table.render(), subset=subset)

    payload = {
        "bugs": len(bugs),
        "subset": subset,
        "schedules_per_sec": replay["schedules_per_sec"],
        "baseline_schedules_per_sec": BASELINE_SCHEDULES_PER_SEC,
        "speedup": round(speedup, 2),
        "steps": steps,
        "snapshots": snaps,
        "replay": replay,
    }
    emit_json("bench_interp", payload, subset=bool(subset))

    # The acceptance floor holds on the full corpus only; subsets (CI)
    # still exercise every code path and the bit-identity asserts.
    if not subset:
        assert speedup >= 5.0, \
            f"replay throughput {replay['schedules_per_sec']}/s is " \
            f"{speedup:.2f}x baseline, below the 5x floor"
