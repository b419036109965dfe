"""The schedule-execution engine: one run service for every algorithm.

:class:`ScheduleExecutionEngine` owns everything between "algorithm
wants runs" and "hypervisor interprets instructions": backend selection
(inline / snapshot) under one :class:`EnginePolicy`, coverage pinning,
the unified snapshot accounting, and the single place that publishes
the ``snapshot.*`` / ``ca.snapshot_*`` / ``engine.*`` counters.  A
diagnosis always executes in this one process; parallelism lives across
diagnoses (:func:`repro.engine.executors.make_executor`).

Algorithms (LIFS, Causality Analysis) stay pure: they emit
:class:`RunRequest`/:class:`RunPlan` values and consume
:class:`RunOutcome`\\ s — no algorithm touches ``ContinuationCache``
or ``CheckpointPolicy`` directly.

Invariants the engine maintains (and the equivalence tests assert):

* **Bit identity** — for any request, every backend produces the same
  ``RunResult`` bits; policies change placement and accounting only.
* **Coverage pinning** — the first boot of a machine with a kcov
  callback permanently demotes snapshots: coverage callbacks must fire
  over every instruction.
* **No result reuse** — every :meth:`run`/:meth:`run_plan` request
  executes; identical schedules execute again (Causality Analysis
  deliberately re-executes them when rechecking chain edges).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Optional

from repro.observe.tracer import as_tracer

from repro.engine.backends import InlineBackend, SnapshotBackend
from repro.engine.protocol import (EnginePolicy, EngineStats, RunOutcome,
                                   RunPlan, RunRequest)
from repro.policy import make_policy

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from typing import Callable

    from repro.kernel.machine import KernelMachine


class ScheduleExecutionEngine:
    """Execute schedules on behalf of one algorithm instance.

    An engine is built per algorithm instance (one for a LIFS search,
    one for a Causality Analysis) so its stats and continuation memo
    describe exactly that consumer's work.
    """

    def __init__(self, machine_factory: "Callable[[], KernelMachine]",
                 policy: Optional[EnginePolicy] = None,
                 tracer=None, experience=None) -> None:
        self.machine_factory = machine_factory
        self.policy = policy or EnginePolicy()
        self.tracer = as_tracer(tracer)
        self.stats = EngineStats()
        #: The search policy shaping candidate plans (repro.policy).
        #: ``experience`` is the caller's ExperienceIndex — shared
        #: across diagnoses by triage/daemon workers so ranking improves
        #: over the corpus and over uptime.
        self.search_policy = make_policy(self.policy.search_policy,
                                         experience=experience)
        self.inline_backend = InlineBackend(self)
        self.snapshot_backend = SnapshotBackend(self)

    # -- machine knowledge ---------------------------------------------
    @property
    def snapshots_active(self) -> bool:
        """Whether runs currently resume from checkpoints (policy said
        so and no coverage machine has demoted the backend)."""
        return self.snapshot_backend.active

    def note_coverage(self, machine: "KernelMachine") -> None:
        """Record what a boot revealed about the machine factory.

        A coverage callback means every instruction must be interpreted:
        snapshots (prefix skipping) are permanently pinned off.
        """
        if machine.coverage_cb is not None:
            self.snapshot_backend.active = False

    def prime(self) -> "KernelMachine":
        """Eagerly boot one machine and, when the policy allows, adopt
        it as the snapshot vehicle (the Causality Analysis pattern —
        CA needs a booted image up front anyway).  Returns the machine;
        a halted or coverage-instrumented boot demotes snapshots."""
        machine = self.machine_factory()
        self.note_coverage(machine)
        snapshot = self.snapshot_backend
        if snapshot.active and not machine.halted:
            snapshot.adopt(machine)
        else:
            snapshot.active = False
        return machine

    # -- execution ------------------------------------------------------
    def run(self, request: RunRequest) -> RunOutcome:
        """Execute one request through the snapshot/inline machinery."""
        if self.snapshot_backend.active:
            outcome = self.snapshot_backend.run(request)
        else:
            outcome = self.inline_backend.run(request)
        self._account(outcome)
        return outcome

    def run_plan(self, plan: RunPlan) -> List[RunOutcome]:
        """Execute a batch sequentially; outcomes come back in
        submission order."""
        self.stats.plans += 1
        self._trace_plan(plan, self.snapshot_backend.name
                         if self.snapshot_backend.active
                         else self.inline_backend.name)
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

        One formula covers every backend: ``suffix = steps - prefix -
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

    def _trace_plan(self, plan: RunPlan, backend: str) -> None:
        if self.tracer.enabled and plan.requests:
            self.tracer.point("engine.plan", stage="engine",
                              phase=plan.phase, backend=backend,
                              requests=len(plan.requests))

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
