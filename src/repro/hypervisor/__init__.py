"""The AITIA hypervisor analogue.

The real AITIA modifies KVM and QEMU to gain instruction-level control of a
guest kernel: code breakpoints trap threads at scheduling points, data
watchpoints detect conflicting accesses, a trampoline parks suspended
threads, and snapshots revert guest memory between runs (paper section 4).

This package provides the same capabilities over the simulated kernel:

* :mod:`repro.hypervisor.breakpoints` — breakpoint/watchpoint managers;
* :mod:`repro.hypervisor.trampoline` — parking of suspended threads;
* :mod:`repro.hypervisor.controller` — enforcement of reproduce/diagnosis
  schedules (the hypercall protocol of sections 4.3–4.5);
* :mod:`repro.hypervisor.vm` — one bootable VM with reboot accounting;
* :mod:`repro.hypervisor.manager` — the pool of reproducer/diagnoser VMs;
* :mod:`repro.hypervisor.snapshot` — run checkpoints for resuming a
  schedule mid-run (docs/PERFORMANCE.md).
"""

from repro.hypervisor.agent import ObservedRace, UserAgent
from repro.hypervisor.breakpoints import BreakpointManager, WatchpointManager
from repro.hypervisor.controller import RunResult, ScheduleController
from repro.hypervisor.manager import VmPool
from repro.hypervisor.replay import Recording, record, replay
from repro.hypervisor.snapshot import (
    CheckpointPolicy,
    MachineSnapshot,
    RunCheckpoint,
    boot_checkpoint,
    capture,
    restore,
)
from repro.hypervisor.trampoline import Trampoline
from repro.hypervisor.vm import VirtualMachine

__all__ = [
    "BreakpointManager",
    "CheckpointPolicy",
    "MachineSnapshot",
    "RunCheckpoint",
    "boot_checkpoint",
    "ObservedRace",
    "Recording",
    "RunResult",
    "ScheduleController",
    "Trampoline",
    "UserAgent",
    "VirtualMachine",
    "VmPool",
    "WatchpointManager",
    "capture",
    "record",
    "replay",
    "restore",
]
