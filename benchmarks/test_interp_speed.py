"""Interpreter fast-path throughput: the layer PR 9 optimizes.

Three measurements over the 22-bug corpus, all on the instruction-level
fast path (opcode dispatch table, decoded operands, interval-indexed
memory, O(dirty) captures, generation-cached state keys):

* **steps/sec** — raw interpretation: every bug's known failing
  schedule replayed from its boot checkpoint, fully interpreted each
  time (pre-fire checkpoint capture on, as in a real run).
* **snapshots/sec / capture bytes** — O(dirty) capture rate: the
  machine driven through the known failing schedule's fresh-run trace,
  one ``snapshot_machine`` timed after *every* step, plus the pickled
  wire size of a mid-run snapshot.
* **schedules/sec** — the replay loop the fast path targets: each
  schedule answered by the execution engine resuming from a prefix
  checkpoint 1-8 steps before the run ends (the LIFS extension
  pattern), suffix interpreted, result bit-identical to a fresh boot.
  Reported as the best of three timed passes so a loaded CI host does
  not flake the floor.

The replay's resume depth is the deepest checkpoint of the capture
cadence the baseline was measured under — at run entry, before and
after each preemption fire, and every 8 steps, at most 64 per run.
Runs now capture only before a fire, so the benchmark rebuilds that
checkpoint at the same step the way LIFS harvests one: a probe
preemption appended at that trace entry, and its pre-fire capture.

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
from repro.engine.protocol import RunRequest
from repro.hypervisor.controller import ScheduleController
from repro.core.schedule import Preemption, Schedule
from repro.hypervisor.snapshot import boot_checkpoint
from repro.kernel.snapshot import snapshot_machine

#: Whole-corpus schedule throughput of the diagnosis loop before the
#: instruction-level fast path (bench_snapshot.json, schedules_per_sec_on,
#: measured at the PR 8 seed).
BASELINE_SCHEDULES_PER_SEC = 1503.0

#: Replays per bug in each timed section.
STEP_REPS = 10
REPLAY_REPS = 100
TIMED_PASSES = 3

#: The capture cadence the baseline was measured under: every
#: ``CADENCE_INTERVAL`` steps since the last capture, at most
#: ``CADENCE_MAX`` captures per run.
CADENCE_INTERVAL = 8
CADENCE_MAX = 64


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
                capture_checkpoints=True).run()
            total_steps += run.steps
            total_runs += 1
        elapsed += time.perf_counter() - started
    return {
        "runs": total_runs,
        "steps": total_steps,
        "steps_per_sec": round(total_steps / max(1e-9, elapsed)),
    }


def _measure_snapshots(bugs):
    """Snapshot after every step of the known failing schedule, the
    machine driven in its fresh run's trace order: O(dirty) capture
    rate (only the captures are timed)."""
    captures = 0
    elapsed = 0.0
    wire_bytes = []
    for bug in bugs:
        trace = ScheduleController(bug.machine_factory(),
                                   bug.known_failing_schedule).run().trace
        machine = bug.machine_factory()
        mid = None
        for index, entry in enumerate(trace):
            machine.step(entry.thread)
            if machine.halted:
                break  # the failure: a halted machine has no snapshot
            started = time.perf_counter()
            snapshot = snapshot_machine(machine)
            elapsed += time.perf_counter() - started
            captures += 1
            if index == len(trace) // 2:
                mid = snapshot
        if mid is not None:
            wire_bytes.append(len(pickle.dumps(mid)))
    return {
        "captures": captures,
        "snapshots_per_sec": round(captures / max(1e-9, elapsed)),
        "capture_bytes_avg": round(sum(wire_bytes)
                                   / max(1, len(wire_bytes))),
    }


def _cadence_depth(bug, schedule):
    """Steps before the deepest checkpoint the baseline's cadence took
    on a fresh run of ``schedule``: at entry, before and after each
    preemption fire, and every ``CADENCE_INTERVAL`` steps since the last
    capture, at most ``CADENCE_MAX``; never on a halted or finished
    machine.  Also returns each trace entry with the steps executed
    before it."""
    machine = bug.machine_factory()
    controller = ScheduleController(machine, schedule)
    events = []  # "fire", or the machine's liveness after a step
    entries = []
    step, fire = machine.step, controller._fire_preemption

    def noting_step(name):
        before = len(machine.trace)
        outcome = step(name)
        if len(machine.trace) > before:
            entries.append((controller._steps, machine.trace[-1]))
        events.append(not machine.halted and not machine.all_done())
        return outcome

    def noting_fire(*args):
        events.append("fire")
        fire(*args)

    machine.step = noting_step
    controller._fire_preemption = noting_fire
    controller.run()

    captures = [0]
    steps = since = 0
    for event in events:
        if event == "fire":
            captures += [steps, steps]
            since = 0
            continue
        steps += 1
        since += 1
        if since >= CADENCE_INTERVAL and event:
            captures.append(steps)
            since = 0
    return max(captures[:CADENCE_MAX]), entries


def _checkpoint_before(bug, schedule, entry):
    """The checkpoint of ``schedule``'s run just before trace ``entry``
    executes, as LIFS harvests one: the pre-fire capture of a probe
    preemption appended at that entry."""
    probe = Preemption(thread=entry.thread, instr_addr=entry.instr_addr,
                       occurrence=entry.occurrence, switch_to=None,
                       instr_label=entry.instr_label)
    probed = Schedule(start_order=schedule.start_order,
                      preemptions=list(schedule.preemptions) + [probe])
    controller = ScheduleController(bug.machine_factory(), probed,
                                    capture_checkpoints=True)
    run = controller.run()
    fired = [p is probe for p in run.fired_preemptions]
    return controller.checkpoints[fired.index(True)]


def _resume_point(bug, schedule):
    """The checkpoint at the baseline cadence's deepest capture step, or
    at the latest trace entry before it; never nearer the run's end."""
    depth, entries = _cadence_depth(bug, schedule)
    eligible = [entry for steps, entry in entries if steps <= depth]
    if not eligible:
        return None
    checkpoint = _checkpoint_before(bug, schedule, eligible[-1])
    assert checkpoint.steps <= depth, bug.bug_id
    return checkpoint


def _measure_replay(bugs):
    """Engine-mediated replay from a deep prefix checkpoint — the
    search loop's steady state.  Every resumed run is checked
    bit-identical (Mazurkiewicz signature) to a fresh inline boot of
    the same schedule."""
    work = []
    for bug in bugs:
        engine = ScheduleExecutionEngine(bug.machine_factory,
                                         use_snapshots=True)
        schedule = bug.known_failing_schedule
        fresh = ScheduleController(bug.machine_factory(), schedule).run()
        eng_run = engine.run(RunRequest(schedule=schedule))
        assert eng_run.run.signature_hash() == fresh.signature_hash(), \
            bug.bug_id
        assert str(eng_run.run.failure) == str(fresh.failure), bug.bug_id
        deepest = _resume_point(bug, schedule)
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
