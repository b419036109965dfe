"""Tests for the prefix-checkpoint execution engine.

Covers the three layers end to end: controller-level checkpoint/resume
(property: resuming from the checkpoint at any trace step is
bit-identical to a fresh boot), the capture rule (one checkpoint
immediately before each fired preemption, none on constraint
schedules), the LIFS accounting identities (``snapshot.hits +
snapshot.misses == lifs.schedules``), the ``use_snapshots`` ablation
(identical diagnoses, fewer interpreted steps), continuation splicing,
and thread-recreating restores.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.causality import CaConfig, CausalityAnalysis
from repro.core.diagnose import Aitia
from repro.core.lifs import (
    FailureMatcher,
    LeastInterleavingFirstSearch,
    LifsConfig,
)
from repro.core.schedule import Preemption, Schedule
from repro.corpus.registry import get_bug
from repro.engine import RunRequest, ScheduleExecutionEngine
from repro.hypervisor.controller import ScheduleController
from repro.hypervisor.snapshot import boot_checkpoint, capture, restore
from repro.kernel.snapshot import machine_state_key, snapshot_state_key
from repro.observe import MemorySink, Tracer

from helpers import fig2_factory, fig2_image, fig2_machine, run_thread

IMAGE = fig2_image()
A_LABELS = ["A2", "A5", "A6", "A12"]
B_LABELS = ["B2", "B11", "B12", "B17a"]

preemption_lists = st.lists(
    st.tuples(
        st.sampled_from(["A", "B"]),
        st.sampled_from(A_LABELS + B_LABELS),
        st.sampled_from(["A", "B", None]),
    ),
    min_size=0, max_size=3,
)


def _schedule(preempts, start_first):
    preemptions = []
    for thread, label, target in preempts:
        if label in A_LABELS and thread != "A":
            thread = "A"
        if label in B_LABELS and thread != "B":
            thread = "B"
        if target == thread:
            target = None
        preemptions.append(Preemption(
            thread=thread, instr_addr=IMAGE.instruction_labeled(label).addr,
            occurrence=1, switch_to=target, instr_label=label))
    order = ("A", "B") if start_first else ("B", "A")
    return Schedule(start_order=order, preemptions=preemptions)


def _run_facts(run):
    return (
        [(t.thread, t.instr_addr, t.seq, t.occurrence) for t in run.trace],
        [(a.thread, a.instr_addr, a.data_addr, a.seq) for a in run.accesses],
        run.failure,
        run.steps,
        run.interleavings,
    )


def _checkpoint_before(schedule, entry):
    """The checkpoint of ``schedule``'s run just before ``entry``
    executes, obtained as LIFS harvests one: append a probe preemption at
    that trace entry and keep its pre-fire capture."""
    probe = Preemption(thread=entry.thread, instr_addr=entry.instr_addr,
                       occurrence=entry.occurrence, switch_to=None,
                       instr_label=entry.instr_label)
    probed = Schedule(start_order=schedule.start_order,
                      preemptions=list(schedule.preemptions) + [probe])
    controller = ScheduleController(fig2_machine(), probed,
                                    capture_checkpoints=True)
    run = controller.run()
    fired = [p is probe for p in run.fired_preemptions]
    return controller.checkpoints[fired.index(True)]


class TestResumeBitIdentity:
    """Property: a controller resumed from the checkpoint at any trace
    step produces the same trace, access log, failure, and step count as
    a fresh boot enforcing the same schedule."""

    @given(preemption_lists, st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_resume_from_any_checkpoint_matches_fresh_boot(
            self, preempts, start_first, data):
        schedule = _schedule(preempts, start_first)
        run1 = ScheduleController(fig2_machine(), schedule).run()
        index = data.draw(st.integers(0, len(run1.trace) - 1),
                          label="trace index")
        ckpt = _checkpoint_before(schedule, run1.trace[index])
        assert ckpt.horizon_seq == (run1.trace[index - 1].seq
                                    if index else 0)
        run2 = ScheduleController(fig2_machine(), schedule,
                                  resume_from=ckpt).run()
        assert _run_facts(run2) == _run_facts(run1)
        assert run2.signature_hash() == run1.signature_hash()

    @given(preemption_lists, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_boot_checkpoint_resumes_under_any_schedule(
            self, preempts, start_first):
        schedule = _schedule(preempts, start_first)
        run1 = ScheduleController(fig2_machine(), schedule).run()
        machine = fig2_machine()
        ckpt = boot_checkpoint(machine)
        run2 = ScheduleController(machine, schedule,
                                  resume_from=ckpt).run()
        assert _run_facts(run2) == _run_facts(run1)


class TestCaptureRule:
    """A run captures a checkpoint only immediately before a preemption
    fires: the one point where a derived schedule can diverge from it."""

    @given(preemption_lists, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_one_capture_per_fired_preemption_at_its_fire_seq(
            self, preempts, start_first):
        schedule = _schedule(preempts, start_first)
        controller = ScheduleController(fig2_machine(), schedule,
                                        capture_checkpoints=True)
        run = controller.run()
        assert [c.horizon_seq for c in controller.checkpoints] \
            == list(run.fired_seqs)
        # Through the engine: the first request boots fresh, the second
        # resumes from the boot checkpoint; neither resumes mid-run.
        engine = ScheduleExecutionEngine(fig2_machine, use_snapshots=True)
        for _ in range(2):
            outcome = engine.run(RunRequest(schedule=schedule))
            assert [c.horizon_seq for c in outcome.checkpoints] \
                == list(outcome.run.fired_seqs)
            assert [c.steps for c in outcome.checkpoints] \
                == [c.steps for c in controller.checkpoints]

    def test_ca_flip_runs_capture_none(self):
        lifs_result = LeastInterleavingFirstSearch(
            fig2_factory(), ["A", "B"], FailureMatcher.any_failure()).search()
        assert lifs_result.reproduced
        ca = CausalityAnalysis(fig2_factory(), lifs_result,
                               config=CaConfig(use_snapshots=True))
        ca.analyze()
        assert ca.engine.snapshots_active
        assert ca.engine.stats.requests > 0
        assert ca.engine.stats.checkpoints_captured == 0


class TestSnapshotAccounting:
    def test_hits_plus_misses_equals_schedules(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        lifs = LeastInterleavingFirstSearch(
            fig2_factory(), ["A", "B"], FailureMatcher.any_failure(),
            config=LifsConfig(use_snapshots=True), tracer=tracer)
        result = lifs.search()
        tracer.close()
        stats = result.stats
        assert stats.snapshot_hits + stats.snapshot_misses \
            == stats.schedules_executed
        assert stats.snapshot_hits > 0
        # The same identity holds at the trace-counter level.
        counters = sink.counter_totals()
        assert counters["snapshot.hits"] + counters["snapshot.misses"] \
            == counters["lifs.schedules"]

    def test_snapshots_off_counts_every_run_as_miss(self):
        lifs = LeastInterleavingFirstSearch(
            fig2_factory(), ["A", "B"], FailureMatcher.any_failure(),
            config=LifsConfig(use_snapshots=False))
        result = lifs.search()
        stats = result.stats
        assert stats.snapshot_hits == 0
        assert stats.snapshot_splices == 0
        assert stats.snapshot_misses == stats.schedules_executed

    def test_ca_hits_plus_misses_equals_flip_schedules(self):
        bug = get_bug("SYZ-01")
        diagnosis = Aitia(bug, ca_config=CaConfig(use_snapshots=True)
                          ).diagnose()
        stats = diagnosis.ca_result.stats
        assert stats.snapshot_hits + stats.snapshot_misses \
            == stats.schedules_executed
        assert stats.snapshot_hits > 0


class TestAblation:
    """``use_snapshots=False`` (the ``--no-snapshot`` CLI flag) must be a
    pure accounting change: identical diagnosis, more interpreted steps."""

    def _diagnose(self, bug_id, on):
        bug = get_bug(bug_id)
        return Aitia(bug,
                     lifs_config=LifsConfig(use_snapshots=on),
                     ca_config=CaConfig(use_snapshots=on)).diagnose()

    def test_diagnosis_is_bit_identical(self):
        on = self._diagnose("CVE-2017-15649", True)
        off = self._diagnose("CVE-2017-15649", False)
        assert on.chain.render() == off.chain.render()
        assert on.lifs_result.failure_run.signature_hash() \
            == off.lifs_result.failure_run.signature_hash()
        assert on.lifs_result.stats.schedules_executed \
            == off.lifs_result.stats.schedules_executed
        assert on.lifs_result.stats.total_steps \
            == off.lifs_result.stats.total_steps
        assert on.ca_result.stats.schedules_executed \
            == off.ca_result.stats.schedules_executed
        assert on.ca_result.stats.total_steps \
            == off.ca_result.stats.total_steps

    def test_snapshots_interpret_fewer_steps(self):
        on = self._diagnose("CVE-2017-15649", True)
        off = self._diagnose("CVE-2017-15649", False)
        on_steps = (on.lifs_result.stats.interpreted_steps
                    + on.ca_result.stats.interpreted_steps)
        off_steps = (off.lifs_result.stats.interpreted_steps
                     + off.ca_result.stats.interpreted_steps)
        assert on_steps < off_steps
        assert on.lifs_result.stats.saved_steps > 0

    def test_continuation_splicing_fires_and_stays_identical(self):
        on = self._diagnose("SYZ-01", True)
        off = self._diagnose("SYZ-01", False)
        assert on.lifs_result.stats.snapshot_splices > 0
        assert on.lifs_result.stats.snapshot_spliced_steps > 0
        assert on.ca_result.stats.snapshot_splices > 0
        assert on.chain.render() == off.chain.render()
        assert on.lifs_result.failure_run.signature_hash() \
            == off.lifs_result.failure_run.signature_hash()


class TestThreadRecreation:
    def test_restore_forward_recreates_spawned_threads(self):
        bug = get_bug("SYZ-04")
        machine = bug.machine_factory()
        pre = capture(machine)
        baseline = len(machine.threads)
        run_thread(machine, "A")
        run_thread(machine, "B")  # queue_work spawns the kworker
        assert len(machine.threads) > baseline
        assert machine.failure is None
        post = capture(machine)

        # Rewind discards the kworker...
        restore(machine, pre)
        assert len(machine.threads) == baseline
        # ...and fast-forwarding recreates it, bit-for-bit.
        restore(machine, post)
        assert len(machine.threads) > baseline
        assert machine_state_key(machine) == snapshot_state_key(post)
