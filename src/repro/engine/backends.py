"""Composable execution backends behind the schedule-execution engine.

Each backend turns a :class:`~repro.engine.protocol.RunRequest` (or a
batch of them) into :class:`~repro.engine.protocol.RunOutcome`\\ s; the
:class:`~repro.engine.engine.ScheduleExecutionEngine` selects between
them per request and owns all accounting.  The contract every backend
must keep is the bit-identity invariant the whole pipeline is built on:
where and how a schedule executes never changes the run's bits — only
the placement facts reported on the outcome (resumed/prefix/setup/
spliced steps) differ.

* :class:`InlineBackend`   — boot a fresh machine per request, run in
  the parent.  The ``--no-snapshot`` baseline and the only legal
  backend for coverage-instrumented machines (kcov callbacks must fire
  in this process, over every instruction).
* :class:`SnapshotBackend` — one vehicle machine restored in place from
  boot/prefix checkpoints (:class:`CheckpointPolicy` captures,
  :class:`ContinuationCache` suffix splicing).  docs/PERFORMANCE.md.

Candidate *selection* is not a backend concern: which requests of a
plan execute, and in what order, is decided before any backend sees
them, by the :mod:`repro.policy` search policy behind the engine's
``shape_plan``.  Backends must treat ``RunRequest.meta`` (the policy's
candidate bookkeeping) as opaque and never read it.

Adding a backend means implementing ``run`` returning outcomes whose
runs are bit-identical to :class:`InlineBackend`'s, and teaching the
engine's selection logic when it applies — see docs/ARCHITECTURE.md.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hypervisor.controller import (ContinuationCache,
                                         ScheduleController, SpliceSession)
from repro.hypervisor.snapshot import (CheckpointPolicy, RunCheckpoint,
                                       boot_checkpoint)

from repro.engine.protocol import RunOutcome, RunRequest

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.engine.engine import ScheduleExecutionEngine
    from repro.kernel.machine import KernelMachine


class InlineBackend:
    """Fresh boot per request, executed in the parent process."""

    name = "inline"

    def __init__(self, engine: "ScheduleExecutionEngine") -> None:
        self._engine = engine

    def run(self, request: RunRequest) -> RunOutcome:
        machine = self._engine.machine_factory()
        self._engine.note_coverage(machine)
        controller = ScheduleController(
            machine, request.schedule, watch_races=request.watch_races,
            tracer=self._engine.tracer)
        run = controller.run()
        return RunOutcome(
            run=run, checkpoints=tuple(controller.checkpoints),
            resumed=False, prefix_steps=0,
            setup_steps=machine.setup_steps,
            spliced_steps=controller.spliced_steps, backend=self.name)


class SnapshotBackend:
    """One vehicle machine, restored in place per request.

    The vehicle and its boot checkpoint are adopted either eagerly
    (:meth:`ScheduleExecutionEngine.prime`, the CA pattern) or lazily
    from the first fresh boot's captured boot checkpoint (the LIFS
    pattern).  ``active`` starts at the policy's ``use_snapshots`` and
    is permanently demoted the moment a coverage-instrumented machine
    is seen: resuming would skip the prefix's coverage callbacks.
    """

    name = "snapshot"

    def __init__(self, engine: "ScheduleExecutionEngine") -> None:
        self._engine = engine
        self.active = bool(engine.policy.use_snapshots)
        self.vehicle: Optional["KernelMachine"] = None
        self.boot_checkpoint: Optional[RunCheckpoint] = None
        self.continuations = ContinuationCache(
            engine.policy.max_continuations)

    def adopt(self, machine: "KernelMachine") -> None:
        """Eagerly make ``machine`` the vehicle (boot state captured now)."""
        self.vehicle = machine
        self.boot_checkpoint = boot_checkpoint(machine)

    def checkpoint_policy(
            self, request: RunRequest) -> Optional[CheckpointPolicy]:
        if not self.active or not request.capture_checkpoints:
            return None
        policy = self._engine.policy
        return CheckpointPolicy(
            interval=policy.snapshot_interval,
            max_checkpoints=policy.max_checkpoints_per_run)

    def resolve_resume(self, request: RunRequest) -> Optional[RunCheckpoint]:
        """The checkpoint this request resumes from: the request's own
        prefix checkpoint, else the boot checkpoint, else a fresh boot."""
        if not self.active:
            return None
        if request.resume_from is not None:
            return request.resume_from
        return self.boot_checkpoint

    def run(self, request: RunRequest) -> RunOutcome:
        resume = self.resolve_resume(request)
        session: Optional[SpliceSession] = None
        if resume is not None:
            machine = self.vehicle
            session = self.continuations.session()
            controller = ScheduleController(
                machine, request.schedule, watch_races=request.watch_races,
                tracer=self._engine.tracer, resume_from=resume,
                checkpoint_policy=self.checkpoint_policy(request),
                splice_probe=session.probe)
        else:
            # No resume point yet: boot fresh, and — unless this boot
            # reveals a coverage machine and demotes the backend — adopt
            # the boot as the vehicle and splice like any other run.
            machine = self._engine.machine_factory()
            self._engine.note_coverage(machine)
            if self.active:
                session = self.continuations.session()
            controller = ScheduleController(
                machine, request.schedule, watch_races=request.watch_races,
                tracer=self._engine.tracer,
                checkpoint_policy=self.checkpoint_policy(request),
                splice_probe=session.probe if session else None)
            if self.active:
                self.vehicle = machine
        run = controller.run()
        if session is not None:
            session.donate(run)
        if self.active and self.boot_checkpoint is None:
            # Harvest the run-entry capture as the boot checkpoint that
            # replaces per-schedule reboots from here on.
            for ckpt in controller.checkpoints:
                if ckpt.steps == 0 and not ckpt.fired:
                    self.boot_checkpoint = ckpt
                    break
        return RunOutcome(
            run=run, checkpoints=tuple(controller.checkpoints),
            resumed=resume is not None,
            prefix_steps=resume.steps if resume is not None else 0,
            setup_steps=machine.setup_steps,
            spliced_steps=controller.spliced_steps, backend=self.name)
