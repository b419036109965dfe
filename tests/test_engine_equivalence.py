"""The execution engine's core contract: every backend combination
returns bit-identical runs, and policy resolution respects the
config > api kwarg > CLI flag precedence."""

import dataclasses
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.causality import CaConfig
from repro.core.lifs import LifsConfig
from repro.core.schedule import Preemption, Schedule
from repro.engine import (EnginePolicy, RunPlan, RunRequest,
                          ScheduleExecutionEngine)

from helpers import fig2_image, fig2_machine, two_counter_machine

IMAGE = fig2_image()
A_LABELS = ["A2", "A5", "A6", "A12"]
B_LABELS = ["B2", "B11", "B12", "B17a"]

#: Every backend composition the engine can select.
POLICIES = {
    "inline": EnginePolicy(use_snapshots=False),
    "snapshot": EnginePolicy(use_snapshots=True),
}


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
        """One plan of random schedules, executed through every backend
        composition, yields the same runs bit for bit — placement and
        accounting are the only things a policy may change."""
        schedules = [_schedule(preempts_a, start_first, "p1"),
                     _schedule(preempts_b, not start_first, "p2")]
        results = {}
        for name, policy in POLICIES.items():
            engine = ScheduleExecutionEngine(fig2_machine, policy)
            outcomes = engine.run_plan(RunPlan(
                [RunRequest(schedule=s, capture_checkpoints=True)
                 for s in schedules], phase="equivalence"))
            results[name] = [_run_facts(o) for o in outcomes]
        baseline = results.pop("inline")
        for name, facts in results.items():
            assert facts == baseline, name

    def test_single_requests_match_plans(self):
        """run() and run_plan() agree for the same schedules."""
        schedule = _schedule([("A6", "B"), ("B12", None)], True, "s")
        for policy in POLICIES.values():
            run_engine = ScheduleExecutionEngine(fig2_machine, policy)
            plan_engine = ScheduleExecutionEngine(fig2_machine, policy)
            via_run = run_engine.run(RunRequest(schedule=schedule))
            via_plan = plan_engine.run_plan(
                RunPlan([RunRequest(schedule=schedule)]))[0]
            assert _run_facts(via_run) == _run_facts(via_plan)

    def test_plain_runs_never_dedup(self):
        """Two identical requests execute twice: CA's edge recheck
        depends on the engine never reusing an earlier result."""
        schedule = _schedule([("A6", None)], True, "x")
        engine = ScheduleExecutionEngine(fig2_machine, EnginePolicy())
        first = engine.run(RunRequest(schedule=schedule))
        second = engine.run(RunRequest(schedule=schedule))
        assert second is not first
        assert second.run is not first.run
        assert engine.stats.requests == 2

    def test_benign_program_equivalence(self):
        """The counter-bumping model (no failure) agrees across backends
        too — equivalence is not an artifact of the crash path."""
        schedules = [Schedule(start_order=("A", "B")),
                     Schedule(start_order=("B", "A"))]
        baseline = None
        for policy in POLICIES.values():
            engine = ScheduleExecutionEngine(two_counter_machine, policy)
            facts = [_run_facts(o) for o in engine.run_plan(
                RunPlan([RunRequest(schedule=s) for s in schedules]))]
            if baseline is None:
                baseline = facts
            assert facts == baseline


class TestEnginePolicyResolution:
    def test_defaults(self):
        policy = EnginePolicy.resolve()
        assert policy.use_snapshots is True
        assert policy.search_policy == "static"

    def test_policy_has_no_parallel_knobs(self):
        """A diagnosis always runs in one process: the policy carries
        backend and search settings only, no wave width or executor."""
        assert [f.name for f in dataclasses.fields(EnginePolicy)] == [
            "use_snapshots", "snapshot_interval",
            "max_checkpoints_per_run", "max_continuations",
            "search_policy"]

    def test_cli_flags_beat_defaults(self):
        policy = EnginePolicy.resolve(cli_snapshots=False,
                                      cli_search_policy="adaptive")
        assert policy.use_snapshots is False
        assert policy.search_policy == "adaptive"

    def test_api_kwargs_beat_cli_flags(self):
        policy = EnginePolicy.resolve(snapshots=True, search_policy="static",
                                      cli_snapshots=False,
                                      cli_search_policy="adaptive")
        assert policy.use_snapshots is True
        assert policy.search_policy == "static"

    def test_config_beats_everything(self):
        config = LifsConfig(use_snapshots=False, policy="adaptive")
        policy = EnginePolicy.resolve(config=config, snapshots=True,
                                      search_policy="static",
                                      cli_snapshots=True,
                                      cli_search_policy="static")
        assert policy.use_snapshots is False
        assert policy.search_policy == "adaptive"

    def test_unset_tiers_fall_through(self):
        policy = EnginePolicy.resolve(snapshots=None, search_policy=None,
                                      cli_snapshots=None,
                                      cli_search_policy="adaptive")
        assert policy.use_snapshots is True
        assert policy.search_policy == "adaptive"

    def test_config_carries_tuning_knobs(self):
        config = LifsConfig(snapshot_interval=4, max_checkpoints_per_run=16,
                            max_continuations=128)
        policy = EnginePolicy.for_lifs(config)
        assert policy.snapshot_interval == 4
        assert policy.max_checkpoints_per_run == 16
        assert policy.max_continuations == 128

    def test_ca_config_resolves_too(self):
        policy = EnginePolicy.for_ca(CaConfig(use_snapshots=False,
                                              policy="adaptive"))
        assert policy.use_snapshots is False
        assert policy.search_policy == "adaptive"


class TestAlgorithmPurity:
    """LIFS, CA and the triage orchestrator are pure consumers of the
    dispatch layer: their sources must not reference pool/executor
    internals (only the ``make_executor`` front door and the engine's
    own surface are fair game)."""

    #: Dispatch internals no algorithm/orchestrator module may name.
    FORBIDDEN = ("InProcessPool", "WorkerFleet", "JobExecutor",
                 "ContinuationCache", "CheckpointPolicy",
                 "repro.service.pool", "repro.engine.fleet")

    @pytest.mark.parametrize("module", ["lifs.py", "causality.py"])
    def test_algorithms_reference_no_execution_machinery(self, module):
        import repro.core
        source = (pathlib.Path(repro.core.__file__).parent
                  / module).read_text()
        for forbidden in self.FORBIDDEN + ("make_executor",):
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
                f"through repro.engine.executors.make_executor")
        assert "make_executor" in source
