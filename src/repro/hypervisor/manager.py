"""The VM pool manager.

AITIA's manager (2,889 LoC of GO in the paper) launches multiple guest
VMs — 32 in the evaluation — and parallelizes the reproducing stage across
slices and the diagnosing stage across flip tests (sections 4.1, 4.5).

Execution is sequential and work is only *assigned* to VMs round-robin,
exactly as the manager would, so per-VM accounting and the idealized
parallel wall-clock estimate are meaningful.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.core.schedule import Schedule
from repro.hypervisor.controller import RunResult
from repro.hypervisor.vm import VirtualMachine, VmAccounting
from repro.kernel.machine import KernelMachine

DEFAULT_VM_COUNT = 32


class VmPool:
    """A fixed-size pool of reproducer/diagnoser VMs."""

    def __init__(self, machine_factory: Callable[[], KernelMachine],
                 vm_count: int = DEFAULT_VM_COUNT, tracer=None) -> None:
        from repro.observe.tracer import as_tracer

        if vm_count < 1:
            raise ValueError("vm_count must be at least 1")
        self.tracer = as_tracer(tracer)
        self.machine_factory = machine_factory
        self.vms = [VirtualMachine(i, machine_factory)
                    for i in range(vm_count)]
        self._next = 0
        #: Width of the widest batch that could have run concurrently
        #: since :meth:`reset_accounting`.
        self.max_batch_width = 0

    def execute(self, schedule: Schedule,
                watch_races: bool = True) -> RunResult:
        """Run one schedule on the next VM (round-robin assignment)."""
        vm = self.vms[self._next]
        self._next = (self._next + 1) % len(self.vms)
        self.tracer.count("hv.vm_assignments")
        # A lone schedule is a batch of width 1, never more.
        self.max_batch_width = max(self.max_batch_width, 1)
        return vm.execute(schedule, watch_races=watch_races,
                          tracer=self.tracer)

    def execute_all(self, schedules: Sequence[Schedule],
                    watch_races: bool = True) -> List[RunResult]:
        """Run a batch of independent schedules (a diagnosing-stage batch).

        Each batch restarts assignment at VM 0: a batch of *k* schedules
        occupies exactly ``min(k, vm_count)`` VMs, so consecutive small
        batches pile onto the same VMs instead of drifting round-robin
        across the whole pool and inflating accounting beyond any width
        that actually ran concurrently.
        """
        self._next = 0
        width = min(len(schedules), len(self.vms))
        self.max_batch_width = max(self.max_batch_width, width)
        if self.tracer.enabled and schedules:
            self.tracer.point("hv.vm_batch", stage="hv",
                              schedules=len(schedules), width=width)
        return [self.execute(s, watch_races=watch_races)
                for s in schedules]

    def reset_accounting(self) -> None:
        """Zero all per-VM accounting and restart assignment at VM 0 —
        called between triage batches so each diagnosis reports its own
        honest pool statistics."""
        for vm in self.vms:
            vm.accounting = VmAccounting()
        self._next = 0
        self.max_batch_width = 0

    #: Alias — ``pool.reset()`` reads naturally at triage call sites.
    reset = reset_accounting

    # ------------------------------------------------------------------
    @property
    def total_runs(self) -> int:
        return sum(vm.accounting.runs for vm in self.vms)

    @property
    def total_reboots(self) -> int:
        return sum(vm.accounting.reboots for vm in self.vms)

    @property
    def busy_vms(self) -> int:
        return sum(1 for vm in self.vms if vm.accounting.runs)

    def parallel_speedup(self) -> float:
        """Idealized speedup: the widest batch that ran concurrently.

        Based on :attr:`max_batch_width`, not :attr:`busy_vms` — round
        robin assignment spreads consecutive single runs across many VMs,
        but a VM that only ever ran while the others were idle
        contributes no speedup.  A pool that executed every schedule one
        at a time reports 1.0 no matter how many VMs took an assignment.
        """
        return float(self.max_batch_width or 1)
