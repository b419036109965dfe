"""The schedule-execution engine: one run service for every algorithm.

:class:`ScheduleExecutionEngine` owns everything between "algorithm
wants runs" and "hypervisor interprets instructions": snapshot resume
and suffix splicing on one vehicle machine (or a fresh boot per request
when snapshots are off), coverage pinning, the unified snapshot
accounting, and the single place that publishes the ``snapshot.*`` /
``ca.snapshot_*`` / ``engine.*`` counters.  A diagnosis always executes
in this one process; parallelism lives across diagnoses, in the job
pool of the triage service.

Algorithms (LIFS, Causality Analysis) stay pure: they emit
:class:`RunRequest`/:class:`RunPlan` values and consume
:class:`RunOutcome`\\ s — no algorithm touches ``ContinuationCache``
or checkpoint capture directly.

Invariants the engine maintains (and the equivalence tests assert):

* **Bit identity** — a request produces the same ``RunResult`` bits
  with snapshots on or off; only placement and accounting differ.
* **Coverage pinning** — the first boot of a machine with a kcov
  callback permanently demotes snapshots: coverage callbacks must fire
  over every instruction.
* **No result reuse** — every :meth:`run`/:meth:`run_plan` request
  executes; identical schedules execute again (Causality Analysis
  deliberately re-executes them when rechecking chain edges).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Optional

from repro.hypervisor.controller import (ContinuationCache,
                                         ScheduleController, SpliceSession)
from repro.hypervisor.snapshot import RunCheckpoint, boot_checkpoint
from repro.observe.tracer import as_tracer

from repro.engine.protocol import EngineStats, RunOutcome, RunPlan, RunRequest
from repro.policy import make_policy

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from typing import Callable

    from repro.kernel.machine import KernelMachine


class ScheduleExecutionEngine:
    """Execute schedules on behalf of one algorithm instance.

    An engine is built per algorithm instance (one for a LIFS search,
    one for a Causality Analysis) so its stats and continuation memo
    describe exactly that consumer's work.

    With ``use_snapshots`` every request runs on one vehicle machine,
    restored in place from a prefix or boot checkpoint and spliced onto
    memoized continuations.  The vehicle and its boot checkpoint are
    adopted either eagerly (:meth:`prime`, the CA pattern) or lazily from
    the first fresh boot (the LIFS pattern).  Without snapshots — or once
    a coverage-instrumented machine demotes them — each request boots a
    fresh machine.
    """

    def __init__(self, machine_factory: "Callable[[], KernelMachine]", *,
                 use_snapshots: bool = True, search_policy: str = "static",
                 tracer=None, experience=None) -> None:
        self.machine_factory = machine_factory
        self.tracer = as_tracer(tracer)
        self.stats = EngineStats()
        #: The search policy shaping candidate plans (repro.policy).
        #: ``experience`` is the caller's ExperienceIndex — shared
        #: across diagnoses by triage/daemon workers so ranking improves
        #: over the corpus and over uptime.
        self.search_policy = make_policy(search_policy,
                                         experience=experience)
        #: Whether runs resume from checkpoints; permanently demoted by
        #: a coverage-instrumented or halted boot.
        self.snapshots_active = bool(use_snapshots)
        self.vehicle: Optional["KernelMachine"] = None
        self.boot_checkpoint: Optional[RunCheckpoint] = None
        self.continuations = ContinuationCache()

    # -- machine knowledge ---------------------------------------------
    def _boot(self) -> "KernelMachine":
        """Boot a fresh machine and record what it reveals: a coverage
        callback means every instruction must be interpreted, so
        snapshots (prefix skipping) are permanently pinned off."""
        machine = self.machine_factory()
        if machine.coverage_cb is not None:
            self.snapshots_active = False
        return machine

    def _adopt(self, machine: "KernelMachine") -> None:
        """Make a fresh boot the snapshot vehicle and checkpoint its boot
        state, which replaces per-run reboots from here on; a halted boot
        demotes snapshots instead."""
        if self.snapshots_active and not machine.halted:
            self.vehicle = machine
            self.boot_checkpoint = boot_checkpoint(machine)
        else:
            self.snapshots_active = False

    def prime(self) -> "KernelMachine":
        """Eagerly boot one machine and adopt it as the snapshot vehicle
        (the Causality Analysis pattern — CA needs a booted image up
        front anyway).  Returns the machine; a halted or
        coverage-instrumented boot demotes snapshots."""
        machine = self._boot()
        self._adopt(machine)
        return machine

    # -- execution ------------------------------------------------------
    def run(self, request: RunRequest) -> RunOutcome:
        """Execute one request: resume the vehicle from the request's
        prefix checkpoint or the boot checkpoint when snapshots are on,
        else boot fresh (and, with snapshots on, adopt that boot as the
        vehicle).  Runs capture checkpoints only while snapshots are on:
        one immediately before each preemption fires."""
        active = self.snapshots_active
        resume: Optional[RunCheckpoint] = None
        if active:
            resume = (request.resume_from if request.resume_from is not None
                      else self.boot_checkpoint)
        if resume is not None:
            machine = self.vehicle
        else:
            # A coverage machine revealed by this boot demotes snapshots
            # before the run, so it neither splices nor becomes the
            # vehicle.
            machine = self._boot()
            self._adopt(machine)
        session: Optional[SpliceSession] = None
        if self.snapshots_active:
            session = self.continuations.session()
        controller = ScheduleController(
            machine, request.schedule, watch_races=request.watch_races,
            tracer=self.tracer, resume_from=resume,
            capture_checkpoints=self.snapshots_active,
            splice_probe=session.probe if session else None)
        run = controller.run()
        if session is not None:
            session.donate(run)
        outcome = RunOutcome(
            run=run, checkpoints=tuple(controller.checkpoints),
            resumed=resume is not None,
            prefix_steps=resume.steps if resume is not None else 0,
            setup_steps=machine.setup_steps,
            spliced_steps=controller.spliced_steps,
            backend="snapshot" if active else "inline")
        self._account(outcome)
        return outcome

    def run_plan(self, plan: RunPlan) -> List[RunOutcome]:
        """Execute a batch sequentially; outcomes come back in
        submission order."""
        self.stats.plans += 1
        if self.tracer.enabled and plan.requests:
            self.tracer.point(
                "engine.plan", stage="engine", phase=plan.phase,
                backend="snapshot" if self.snapshots_active else "inline",
                requests=len(plan.requests))
        return [self.run(request) for request in plan.requests]

    def shape_plan(self, plan: RunPlan, context=None):
        """Route a candidate plan through the search policy.

        Returns ``(shaped plan, pruned requests)``: the policy first
        discards candidates it can prove irrelevant, then orders the
        rest.  Callers execute the shaped plan and map outcomes back to
        submission positions through each request's ``meta.index``.
        The default static policy returns the canonical order and
        prunes nothing, so routing every batch through here is free.
        """
        shaped, pruned = self.search_policy.shape(plan, context)
        if pruned and self.tracer.enabled:
            self.tracer.point("policy.prune", stage="policy",
                              phase=plan.phase, pruned=len(pruned),
                              kept=len(shaped.requests))
        return shaped, pruned

    # -- accounting -----------------------------------------------------
    def _account(self, outcome: RunOutcome) -> None:
        """Fold one outcome into the engine stats.

        One formula covers every run: ``suffix = steps - prefix -
        spliced`` is what the interpreter actually executed for a
        resumed run; a fresh boot additionally interprets its setup.
        """
        stats = self.stats
        stats.requests += 1
        stats.backend_requests[outcome.backend] = (
            stats.backend_requests.get(outcome.backend, 0) + 1)
        suffix = (outcome.run.steps - outcome.prefix_steps
                  - outcome.spliced_steps)
        if outcome.resumed:
            stats.snapshot_hits += 1
            stats.resumed_steps += suffix
            stats.saved_steps += (outcome.prefix_steps + outcome.setup_steps
                                  + outcome.spliced_steps)
            stats.interpreted_steps += suffix
        else:
            stats.snapshot_misses += 1
            stats.interpreted_steps += (outcome.run.steps
                                        + outcome.setup_steps)
        if outcome.spliced_steps:
            stats.splices += 1
            stats.spliced_steps += outcome.spliced_steps
        stats.checkpoints_captured += len(outcome.checkpoints)

    def emit_counters(self, names: Mapping[str, str]) -> None:
        """Publish the engine accounting as trace counters.

        ``names`` maps :class:`EngineStats` field names to the counter
        names the consumer's report section expects
        (:data:`LIFS_COUNTER_NAMES` / :data:`CA_COUNTER_NAMES`); the
        engine's own ``engine.*`` counters are always emitted alongside.
        """
        if not self.tracer.enabled:
            return
        for field_name, counter in names.items():
            self.tracer.count(counter, getattr(self.stats, field_name))
        self.tracer.count("engine.requests", self.stats.requests)
        self.tracer.count("engine.plans", self.stats.plans)
        for backend, count in sorted(self.stats.backend_requests.items()):
            self.tracer.count(f"engine.backend.{backend}", count)
        policy_stats = self.search_policy.stats
        self.tracer.count("policy.ranked", policy_stats.ranked)
        self.tracer.count("policy.pruned", policy_stats.pruned)
        self.tracer.count("policy.experience_hits",
                          policy_stats.experience_hits)
