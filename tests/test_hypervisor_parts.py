"""Unit tests for breakpoints, watchpoints, trampoline, VMs and the pool."""

import pytest

from repro.hypervisor.breakpoints import (
    Breakpoint,
    BreakpointManager,
    Watchpoint,
    WatchpointManager,
)
from repro.hypervisor.manager import VmPool
from repro.hypervisor.trampoline import ParkReason, Trampoline
from repro.hypervisor.vm import VirtualMachine
from repro.hypervisor.controller import serial_schedule
from repro.kernel.access import AccessKind, MemoryAccess

from helpers import fig2_machine


def _access(thread="B", addr=100, kind=AccessKind.READ):
    return MemoryAccess(seq=1, thread=thread, instr_addr=0x20,
                        instr_label="B2", func="f", data_addr=addr,
                        kind=kind, occurrence=1)


class TestBreakpoints:
    def test_wildcard_breakpoint_matches_any_thread(self):
        bpm = BreakpointManager()
        bpm.install(Breakpoint(0x10))
        assert bpm.hit("A", 0x10, 1)
        assert bpm.hit("B", 0x10, 5)
        assert bpm.hit("A", 0x14, 1) is None

    def test_thread_and_occurrence_filters(self):
        bp = Breakpoint(0x10, thread="A", occurrence=2)
        assert bp.matches("A", 0x10, 2)
        assert not bp.matches("B", 0x10, 2)
        assert not bp.matches("A", 0x10, 1)

    def test_remove_and_clear(self):
        bpm = BreakpointManager()
        bp = Breakpoint(0x10)
        bpm.install(bp)
        assert len(bpm) == 1
        bpm.remove(bp)
        assert len(bpm) == 0
        bpm.install(bp)
        bpm.clear()
        assert bpm.hit("A", 0x10, 1) is None


class TestWatchpoints:
    def test_other_thread_access_traps(self):
        wpm = WatchpointManager()
        wpm.install(Watchpoint(data_addr=100, owner_thread="A",
                               owner_instr_addr=0x10, owner_label="A6"))
        hits = wpm.observe(_access(thread="B", addr=100))
        assert len(hits) == 1
        assert hits[0].watchpoint.owner_label == "A6"

    def test_owner_access_does_not_trap(self):
        wpm = WatchpointManager()
        wpm.install(Watchpoint(100, "A", 0x10))
        assert wpm.observe(_access(thread="A", addr=100)) == []

    def test_unwatched_address_ignored(self):
        wpm = WatchpointManager()
        wpm.install(Watchpoint(100, "A", 0x10))
        assert wpm.observe(_access(addr=200)) == []

    def test_remove_owned_by(self):
        wpm = WatchpointManager()
        wpm.install(Watchpoint(100, "A", 0x10))
        wpm.remove_owned_by("A", 0x10)
        assert wpm.observe(_access(addr=100)) == []


class TestTrampoline:
    def test_preempted_parking_is_lifo(self):
        t = Trampoline()
        t.park_preempted("A", 0x10)
        t.park_preempted("B", 0x20)
        assert t.resume_candidates() == ["B", "A"]
        t.release("B")
        assert t.resume_candidates() == ["A"]
        assert not t.is_parked("B")

    def test_constraint_parking(self):
        t = Trampoline()
        t.park_on_constraint("A", 3, 0x10)
        assert t.parked_reason("A") is ParkReason.CONSTRAINT
        assert t.constraint_index("A") == 3
        released = t.release_constraint_parked()
        assert released == ["A"]
        assert not t.is_parked("A")

    def test_release_constraint_leaves_preempted(self):
        t = Trampoline()
        t.park_preempted("A", 0x10)
        t.park_on_constraint("B", 1, 0x20)
        assert t.release_constraint_parked() == ["B"]
        assert t.is_parked("A")

    def test_clear(self):
        t = Trampoline()
        t.park_preempted("A", 0x10)
        t.clear()
        assert t.parked_threads() == []


class TestVirtualMachine:
    def test_accounting_counts_reboots_and_restores(self):
        vm = VirtualMachine(0, fig2_machine)
        ok = vm.execute(serial_schedule(["A", "B"]))
        assert not ok.failed
        assert vm.accounting.restores == 1
        assert vm.accounting.reboots == 0
        assert vm.accounting.runs == 1
        assert vm.accounting.steps == ok.steps


class TestVmPool:
    def test_round_robin_assignment(self):
        pool = VmPool(fig2_machine, vm_count=3)
        for _ in range(6):
            pool.execute(serial_schedule(["A", "B"]))
        assert [vm.accounting.runs for vm in pool.vms] == [2, 2, 2]
        assert pool.total_runs == 6
        assert pool.busy_vms == 3
        # Round-robin drift touched all 3 VMs, but nothing ever ran
        # concurrently: single execute() calls are width-1 batches.
        assert pool.max_batch_width == 1
        assert pool.parallel_speedup() == 1.0

    def test_single_executes_never_inflate_speedup(self):
        # Regression: parallel_speedup() used to return busy_vms, so a
        # purely sequential workload spread across the pool by
        # round-robin assignment claimed a VM-count speedup.
        pool = VmPool(fig2_machine, vm_count=4)
        for _ in range(8):
            pool.execute(serial_schedule(["A", "B"]))
        assert pool.busy_vms == 4  # drift did spread the work...
        assert pool.parallel_speedup() == 1.0  # ...but nothing was parallel

    def test_execute_all(self):
        pool = VmPool(fig2_machine, vm_count=2)
        runs = pool.execute_all([serial_schedule(["A", "B"]),
                                 serial_schedule(["B", "A"])])
        assert len(runs) == 2
        assert pool.parallel_speedup() == 2.0

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            VmPool(fig2_machine, vm_count=0)

    def test_small_batches_do_not_drift_across_the_pool(self):
        # Three waves of 2 schedules on a 4-VM pool: pure round-robin
        # would touch all 4 VMs (and fake a 4x speedup); per-batch
        # assignment keeps the work on VMs 0-1.
        pool = VmPool(fig2_machine, vm_count=4)
        batch = [serial_schedule(["A", "B"]), serial_schedule(["B", "A"])]
        for _ in range(3):
            pool.execute_all(batch)
        assert [vm.accounting.runs for vm in pool.vms] == [3, 3, 0, 0]
        assert pool.busy_vms == 2
        assert pool.max_batch_width == 2
        assert pool.parallel_speedup() == 2.0

    def test_batch_wider_than_pool_wraps(self):
        pool = VmPool(fig2_machine, vm_count=2)
        pool.execute_all([serial_schedule(["A", "B"])] * 5)
        assert pool.total_runs == 5
        assert pool.busy_vms == 2
        assert pool.max_batch_width == 2

    def test_reset_accounting(self):
        pool = VmPool(fig2_machine, vm_count=3)
        pool.execute_all([serial_schedule(["A", "B"])] * 2)
        pool.execute(serial_schedule(["B", "A"]))
        assert pool.total_runs == 3
        pool.reset_accounting()
        assert pool.total_runs == 0
        assert pool.total_reboots == 0
        assert pool.busy_vms == 0
        assert pool.max_batch_width == 0
        assert pool.parallel_speedup() == 1.0
        # assignment restarts at VM 0 after a reset
        pool.execute(serial_schedule(["A", "B"]))
        assert pool.vms[0].accounting.runs == 1

    def test_reset_alias(self):
        pool = VmPool(fig2_machine, vm_count=2)
        pool.execute(serial_schedule(["A", "B"]))
        pool.reset()
        assert pool.total_runs == 0
