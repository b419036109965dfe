"""One reproducer/diagnoser virtual machine.

The real AITIA boots a guest VM per reproducer/diagnoser, reverts its
memory after each schedule, and must *reboot* it whenever a run crashes
the guest kernel — the dominant cost of the diagnosing stage (paper
section 5.1).  :class:`VirtualMachine` wraps a machine factory with that
lifecycle and keeps the accounting the evaluation tables are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.schedule import Schedule
from repro.hypervisor.controller import RunResult, ScheduleController
from repro.kernel.machine import KernelMachine


@dataclass
class VmAccounting:
    runs: int = 0
    reboots: int = 0
    restores: int = 0
    steps: int = 0


class VirtualMachine:
    """A guest VM executing schedules over fresh kernel instances."""

    def __init__(self, vm_id: int,
                 machine_factory: Callable[[], KernelMachine]) -> None:
        self.vm_id = vm_id
        self.machine_factory = machine_factory
        self.accounting = VmAccounting()

    def execute(self, schedule: Schedule,
                watch_races: bool = True, tracer=None) -> RunResult:
        """Boot (or restore) the guest, enforce the schedule, and account
        for the revert/reboot afterwards."""
        controller = ScheduleController(self.machine_factory(), schedule,
                                        watch_races=watch_races,
                                        tracer=tracer)
        run = controller.run()
        self.accounting.runs += 1
        self.accounting.steps += run.steps
        if run.failed:
            self.accounting.reboots += 1
        else:
            self.accounting.restores += 1
        return run
