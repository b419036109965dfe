"""The execution engine's core contract: runs are bit-identical with
snapshots on or off, and a coverage-instrumented machine pins every run
to a fresh boot."""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.causality import CaConfig, CausalityAnalysis
from repro.core.lifs import LeastInterleavingFirstSearch, LifsConfig
from repro.core.schedule import Preemption, Schedule
from repro.engine import RunPlan, RunRequest, ScheduleExecutionEngine
from repro.hypervisor.controller import ScheduleController
from repro.kernel.kcov import Kcov
from repro.kernel.machine import KernelMachine, ThreadSpec

from helpers import fig2_image, fig2_machine, two_counter_machine

IMAGE = fig2_image()
A_LABELS = ["A2", "A5", "A6", "A12"]
B_LABELS = ["B2", "B11", "B12", "B17a"]

#: Every engine mode: fresh boots, and snapshot resume/splice.
MODES = {"inline": False, "snapshot": True}


def _run_facts(outcome):
    run = outcome.run
    return (run.signature(), run.failure is None, run.steps,
            len(run.trace), run.interleavings)


preemption_lists = st.lists(
    st.tuples(st.sampled_from(A_LABELS + B_LABELS),
              st.sampled_from(["A", "B", None])),
    min_size=0, max_size=3)


def _schedule(preempts, start_first, note):
    preemptions = []
    for label, target in preempts:
        thread = "A" if label in A_LABELS else "B"
        if target == thread:
            target = None
        preemptions.append(Preemption(
            thread=thread, instr_addr=IMAGE.instruction_labeled(label).addr,
            occurrence=1, switch_to=target, instr_label=label))
    order = ("A", "B") if start_first else ("B", "A")
    return Schedule(start_order=order, preemptions=preemptions, note=note)


class TestBackendEquivalence:
    @given(preemption_lists, preemption_lists, st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_every_backend_returns_identical_outcomes(
            self, preempts_a, preempts_b, start_first):
        """One plan of random schedules, executed with snapshots on and
        off, yields the same runs bit for bit — placement and accounting
        are the only things the mode may change."""
        schedules = [_schedule(preempts_a, start_first, "p1"),
                     _schedule(preempts_b, not start_first, "p2")]
        results = {}
        for name, snapshots in MODES.items():
            engine = ScheduleExecutionEngine(fig2_machine,
                                             use_snapshots=snapshots)
            outcomes = engine.run_plan(RunPlan(
                [RunRequest(schedule=s) for s in schedules], phase="equivalence"))
            results[name] = [_run_facts(o) for o in outcomes]
        baseline = results.pop("inline")
        for name, facts in results.items():
            assert facts == baseline, name

    def test_single_requests_match_plans(self):
        """run() and run_plan() agree for the same schedules."""
        schedule = _schedule([("A6", "B"), ("B12", None)], True, "s")
        for snapshots in MODES.values():
            run_engine = ScheduleExecutionEngine(fig2_machine,
                                                 use_snapshots=snapshots)
            plan_engine = ScheduleExecutionEngine(fig2_machine,
                                                  use_snapshots=snapshots)
            via_run = run_engine.run(RunRequest(schedule=schedule))
            via_plan = plan_engine.run_plan(
                RunPlan([RunRequest(schedule=schedule)]))[0]
            assert _run_facts(via_run) == _run_facts(via_plan)

    def test_plain_runs_never_dedup(self):
        """Two identical requests execute twice: CA's edge recheck
        depends on the engine never reusing an earlier result."""
        schedule = _schedule([("A6", None)], True, "x")
        engine = ScheduleExecutionEngine(fig2_machine)
        first = engine.run(RunRequest(schedule=schedule))
        second = engine.run(RunRequest(schedule=schedule))
        assert second is not first
        assert second.run is not first.run
        assert engine.stats.requests == 2

    def test_benign_program_equivalence(self):
        """The counter-bumping model (no failure) agrees across modes
        too — equivalence is not an artifact of the crash path."""
        schedules = [Schedule(start_order=("A", "B")),
                     Schedule(start_order=("B", "A"))]
        baseline = None
        for snapshots in MODES.values():
            engine = ScheduleExecutionEngine(two_counter_machine,
                                             use_snapshots=snapshots)
            facts = [_run_facts(o) for o in engine.run_plan(
                RunPlan([RunRequest(schedule=s) for s in schedules]))]
            if baseline is None:
                baseline = facts
            assert facts == baseline


def _kcov_factory(kcovs):
    """A Figure 2 machine factory whose every boot carries its own kcov
    callback, appended to ``kcovs`` in boot order."""
    def factory():
        image = fig2_image()
        kcov = Kcov(image)
        kcovs.append(kcov)
        return KernelMachine(
            image,
            [ThreadSpec("A", "fanout_add"),
             ThreadSpec("B", "packet_do_bind")],
            globals_init={"po_running": 1, "po_fanout": 0,
                          "global_list": ()},
            coverage_cb=kcov)
    return factory


def _blocks(kcov):
    return {thread: kcov.covered_blocks(thread) for thread in ("A", "B")}


class TestCoveragePinning:
    """A kcov callback must fire over every instruction of every run, so
    a coverage-instrumented machine demotes snapshots for good even when
    the engine was built with ``use_snapshots=True``."""

    SCHEDULES = [_schedule([], True, "ab"),
                 _schedule([("A6", "B")], True, "a6"),
                 _schedule([], False, "ba"),
                 _schedule([("B12", None)], False, "b12")]

    def _reference(self, schedule):
        kcovs = []
        ScheduleController(_kcov_factory(kcovs)(), schedule).run()
        return _blocks(kcovs[0])

    def _run_all(self, engine):
        return [engine.run(RunRequest(schedule=s))
                for s in self.SCHEDULES]

    def _assert_fresh_and_covered(self, outcomes, kcovs):
        assert len(kcovs) == len(self.SCHEDULES)
        for outcome, kcov, schedule in zip(outcomes, kcovs, self.SCHEDULES):
            assert outcome.resumed is False
            assert outcome.prefix_steps == 0
            assert outcome.spliced_steps == 0
            assert outcome.checkpoints == ()
            blocks = _blocks(kcov)
            assert blocks["A"] and blocks["B"]
            assert blocks == self._reference(schedule)

    def test_lazy_path_boots_every_run(self):
        """LIFS pattern: the first run's boot reveals kcov.  That request
        started with snapshots on, so it is labelled ``snapshot``, but it
        neither resumes nor captures; every later run is ``inline``."""
        kcovs = []
        engine = ScheduleExecutionEngine(_kcov_factory(kcovs),
                                         use_snapshots=True)
        outcomes = self._run_all(engine)
        assert not engine.snapshots_active
        assert [o.backend for o in outcomes[1:]] == ["inline"] * 3
        self._assert_fresh_and_covered(outcomes, kcovs)
        assert engine.stats.snapshot_hits == 0
        assert engine.stats.splices == 0

    def test_eager_path_boots_every_run(self):
        """CA pattern: ``prime()`` sees kcov before any run, so every
        outcome is ``inline``."""
        kcovs = []
        engine = ScheduleExecutionEngine(_kcov_factory(kcovs),
                                         use_snapshots=True)
        engine.prime()
        assert not engine.snapshots_active
        primed = kcovs.pop(0)
        assert _blocks(primed) == {"A": [], "B": []}
        outcomes = self._run_all(engine)
        assert [o.backend for o in outcomes] == ["inline"] * 4
        self._assert_fresh_and_covered(outcomes, kcovs)
        assert engine.stats.backend_requests == {"inline": 4}


class TestConfigsReachTheEngine:
    """LIFS and CA build their engine from their own config's
    ``use_snapshots`` and ``policy``: an explicit config is the only
    place those two settings come from."""

    CONFIG = dict(use_snapshots=False, policy="adaptive")

    def _assert_engine(self, engine):
        assert engine.snapshots_active is False
        assert engine.search_policy.name == "prune+adaptive-noprune"

    def test_lifs_config(self):
        lifs = LeastInterleavingFirstSearch(
            fig2_machine, ["A", "B"], config=LifsConfig(**self.CONFIG))
        self._assert_engine(lifs.engine)

    def test_ca_config(self):
        result = LeastInterleavingFirstSearch(fig2_machine,
                                              ["A", "B"]).search()
        ca = CausalityAnalysis(fig2_machine, result,
                               config=CaConfig(**self.CONFIG))
        self._assert_engine(ca.engine)
        assert ca.analyze().chain is not None
        assert ca.engine.stats.snapshot_hits == 0


class TestAlgorithmPurity:
    """LIFS, CA and the triage orchestrator are pure consumers of the
    layers below them: their sources must not reference pool/executor
    internals (only the ``make_executor`` front door and the engine's
    own surface are fair game), and the engine itself knows nothing of
    processes or of the service that dispatches it."""

    #: Dispatch and engine internals no algorithm/orchestrator module
    #: may name.
    FORBIDDEN = ("InProcessPool", "JobExecutor", "_ResidentWorker",
                 "_worker_main", "ContinuationCache", "CheckpointPolicy")

    @pytest.mark.parametrize("module", ["lifs.py", "causality.py"])
    def test_algorithms_reference_no_execution_machinery(self, module):
        import repro.core
        source = (pathlib.Path(repro.core.__file__).parent
                  / module).read_text()
        for forbidden in self.FORBIDDEN + ("repro.service",
                                           "make_executor"):
            assert forbidden not in source, (
                f"{module} references {forbidden}; execution placement "
                f"belongs to repro.engine")

    def test_triage_uses_only_the_executor_front_door(self):
        import repro.service
        source = (pathlib.Path(repro.service.__file__).parent
                  / "triage.py").read_text()
        for forbidden in self.FORBIDDEN:
            assert forbidden not in source, (
                f"triage.py references {forbidden}; dispatch goes "
                f"through repro.service.pool.make_executor")
        assert "from repro.service.pool import make_executor\n" in source

    def test_engine_knows_no_processes_or_service(self):
        import repro.engine
        sources = sorted(pathlib.Path(repro.engine.__file__).parent
                         .glob("*.py"))
        assert sources
        for path in sources:
            text = path.read_text()
            for forbidden in ("repro.service", "multiprocessing"):
                assert forbidden not in text, (
                    f"engine/{path.name} references {forbidden}; process "
                    f"dispatch lives in repro.service.pool")
