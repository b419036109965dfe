"""Regression tests for the interpreter fast path (PR 9).

Covers the bug fixes that rode along with the instruction-level fast
path:

* ``Memory.free`` of a redzone address must fault (GPF), not silently
  free the object whose redzone it is — or, worse, a neighbour.
* ``Memory`` reads must not mutate cells: loading an uninitialized
  in-bounds slot returns 0 without materializing it, so pure loads
  never change ``machine_state_key``.
"""

import pytest

from repro.kernel.builder import ProgramBuilder
from repro.kernel.failures import FailureKind, KernelFault
from repro.kernel.machine import KernelMachine, ThreadSpec
from repro.kernel.memory import Memory, ObjectState
from repro.kernel.snapshot import (
    machine_state_key,
    snapshot_machine,
    snapshot_state_key,
)


class TestRedzoneFree:
    """S2: FREE of a non-base, non-interior pointer is a GPF."""

    def test_free_of_redzone_address_faults(self):
        mem = Memory()
        a = mem.alloc(16, "victim")
        b = mem.alloc(16, "neighbour")
        with pytest.raises(KernelFault) as exc:
            mem.free(a + 16)  # first redzone byte past `victim`
        assert exc.value.kind is FailureKind.GPF
        assert "redzone" in exc.value.message
        assert exc.value.object_tag == "victim"
        # Neither the object nor its neighbour was freed.
        assert mem.object_at(a).state is ObjectState.ALLOCATED
        assert mem.object_at(b).state is ObjectState.ALLOCATED

    def test_interior_free_still_releases_the_object(self):
        mem = Memory()
        a = mem.alloc(16, "obj")
        freed = mem.free(a + 8, site="K1")
        assert freed.base == a
        assert freed.state is ObjectState.FREED

    def test_corpus_style_redzone_free_halts_machine(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.alloc("r0", 16, "buf", label="A")
            f.binop("r1", "add", f.r("r0"), 16, label="B")
            f.free(f.r("r1"), label="C")
        machine = KernelMachine(b.build(), [ThreadSpec("T", "main")])
        while not machine.thread("T").done and not machine.halted:
            machine.step("T")
        assert machine.failure is not None
        assert machine.failure.kind is FailureKind.GPF
        assert "redzone" in machine.failure.message
        assert machine.failure.object_tag == "buf"
        # The faulting FREE never released the object.
        base = machine.thread("T").regs["r0"]
        assert machine.memory.object_at(base).state is ObjectState.ALLOCATED


class TestNonMutatingReads:
    """S3: pure loads leave memory — and its canonical key — untouched."""

    def test_load_of_uninitialized_slot_does_not_materialize_cell(self):
        mem = Memory()
        addr = mem.alloc(32, "obj")
        before = mem.state_key_parts()
        assert mem.load(addr + 8) == 0
        assert mem.load(addr + 24) == 0
        assert addr + 8 not in mem._cells
        assert mem.state_key_parts() == before

    def test_stored_zero_is_canonically_absent(self):
        # A slot written with 0 and a never-written slot are the same
        # state: the canonical key must not distinguish them, or reads
        # vs writes-of-zero would break state-key convergence.
        a = Memory()
        b = Memory()
        addr_a = a.alloc(32, "obj")
        addr_b = b.alloc(32, "obj")
        assert addr_a == addr_b
        b.store(addr_b + 8, 0)
        assert a.state_key_parts() == b.state_key_parts()

    def test_read_vs_no_read_machines_converge(self):
        """Two runs that differ only in pure loads of uninitialized
        slots reach the same memory state key."""
        def build(with_reads):
            b = ProgramBuilder()
            with b.function("main") as f:
                f.alloc("r0", 32, "buf", label="A")
                if with_reads:
                    f.load("r1", f.at("r0", 8), label="R1")
                    f.load("r2", f.at("r0", 24), label="R2")
                f.store(f.at("r0", 0), 7, label="W")
            return b.build()

        keys = []
        for with_reads in (False, True):
            m = KernelMachine(build(with_reads),
                              [ThreadSpec("T", "main")])
            while not m.thread("T").done and not m.halted:
                m.step("T")
            assert m.failure is None
            keys.append(m.memory.state_key_parts())
        assert keys[0] == keys[1]

    def test_live_and_snapshot_keys_agree_after_reads(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.alloc("r0", 32, "buf", label="A")
            f.load("r1", f.at("r0", 16), label="R")
            f.store(f.at("r0", 0), 1, label="W")
        m = KernelMachine(b.build(), [ThreadSpec("T", "main")])
        while not m.thread("T").done and not m.halted:
            m.step("T")
        assert snapshot_state_key(snapshot_machine(m)) == \
            machine_state_key(m)
