"""Full-fidelity machine snapshots: the kernel half of the checkpoint engine.

A :class:`MachineSnapshot` is a pure-data capture of everything a
:class:`~repro.kernel.machine.KernelMachine` mutates while running: memory,
the lock table, every thread (identity *and* state, so threads that do not
exist on the target machine are recreated), the global sequence counter and
the three run logs.  Restoring one rewinds a machine in place — forward or
backward — which is what lets the hypervisor resume a run mid-flight
instead of rebooting and re-interpreting the shared prefix (the QEMU
snapshot trick of paper section 4.3).

Log prefixes are stored as :class:`LogSlice` views over the machine's
append-only log lists — O(1) to capture regardless of how long the run has
been going.  Memory is captured as a structurally shared
:class:`~repro.kernel.memory.MemoryImage` (O(dirty)), and per-thread images
are generation-cached, so a checkpoint's cost tracks what changed since the
previous one, not the size of the machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.kernel.memory import (MemoryImage, _canon_cells, _canon_globals,
                                 _canon_objects)
from repro.kernel.threads import ThreadContext, ThreadImage

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.machine import KernelMachine

_by_tid = attrgetter("tid")


class LogSlice(Sequence):
    """An immutable length-bounded view over an append-only log list.

    The machine's run logs only ever grow (a restore swaps in a *fresh*
    list, freezing the old backing), so a ``(backing, length)`` pair is a
    faithful prefix capture at O(1) cost — where tuple-copying the logs on
    every checkpoint used to make capture cost quadratic in run length.
    Pickles as a plain tuple of the captured prefix.
    """

    __slots__ = ("_items", "_length")

    def __init__(self, backing, length: Optional[int] = None) -> None:
        self._items = backing
        self._length = len(backing) if length is None else length

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return islice(iter(self._items), self._length)

    def __getitem__(self, index):
        n = self._length
        if isinstance(index, slice):
            return tuple(self._items[i] for i in range(*index.indices(n)))
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("LogSlice index out of range")
        return self._items[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (LogSlice, tuple, list)):
            return len(other) == self._length and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"LogSlice({self._length} entries)"

    def __reduce__(self):
        return (tuple, (tuple(self),))


@dataclass(frozen=True)
class MachineSnapshot:
    """Captured state of one machine.

    ``memory`` is a :class:`~repro.kernel.memory.MemoryImage` (legacy
    full-copy dicts are still restorable); the log fields are
    :class:`LogSlice` prefixes (tuples after a pickle round trip).
    """

    memory: MemoryImage
    locks: dict
    threads: Tuple[ThreadImage, ...]
    seq: int
    trace: Sequence
    access_log: Sequence
    spawn_events: Sequence

    @property
    def thread_count(self) -> int:
        return len(self.threads)


def snapshot_machine(machine: "KernelMachine") -> MachineSnapshot:
    """Capture a machine (typically mid-run, before trying something).

    O(dirty since the last capture): memory emits a structurally shared
    image, unchanged threads return their cached images, and the run logs
    are captured as constant-time prefix views."""
    if machine.halted:
        raise ValueError("cannot snapshot a halted machine")
    return MachineSnapshot(
        memory=machine.memory.snapshot(),
        locks=machine.locks.snapshot(),
        threads=tuple(t.capture() for t in machine.threads),
        seq=machine._seq,
        trace=LogSlice(machine.trace),
        access_log=LogSlice(machine.access_log),
        spawn_events=LogSlice(machine.spawn_events),
    )


def _thread_state_key(image: ThreadImage) -> Tuple:
    state = image.state
    return (
        image.tid, image.name, image.kind.value, image.entry,
        state["state"].value,
        tuple(sorted(state["regs"].items())),
        tuple((fr.func, fr.pc) for fr in state["frames"]),
        tuple(state["locks_held"]),
        state["blocked_on"],
        tuple(sorted(state["exec_counts"].items())),
        # ``steps`` is deliberately excluded: it counts blocked re-attempts,
        # which two semantically identical prefixes may differ in, and it
        # feeds nothing but the runaway-thread limit.
    )


def _memory_key_parts(memory) -> Tuple:
    if isinstance(memory, MemoryImage):
        return memory.state_key_parts()
    return (
        _canon_cells(memory["cells"]),
        _canon_globals(memory["globals"]),
        _canon_objects(memory["objects"]),
        memory["next_global"],
        memory["next_heap"],
    )


def _locks_key(locks: dict) -> Tuple:
    return tuple((name, owner, tuple(waiters))
                 for name, (owner, waiters) in sorted(locks.items()))


def _state_key(memory, locks: dict,
               threads: Tuple[ThreadImage, ...]) -> Tuple:
    return _memory_key_parts(memory) + (
        _locks_key(locks),
        tuple(_thread_state_key(t) for t in sorted(threads, key=_by_tid)),
    )


def machine_state_key(machine: "KernelMachine") -> Tuple:
    """Canonical, hashable capture of a machine's *semantic* state.

    Two machines in the same lineage with equal keys behave identically
    from here on: memory contents, heap object metadata, lock ownership
    and wait queues, and every thread's control state are all included.
    The hypervisor uses key equality to detect that a reordered run has
    *converged* back onto its base run's state, at which point the base's
    already-computed suffix can be spliced instead of re-interpreted.

    Assembled from generation-cached component keys: a convergence probe
    after a step that touched one thread and a handful of cells only
    re-canonicalizes those components."""
    return machine.memory.state_key_parts() + (
        machine.locks.state_key(),
        tuple(t.state_key()
              for t in sorted(machine.threads, key=_by_tid)),
    )


def snapshot_state_key(snapshot: MachineSnapshot) -> Tuple:
    """:func:`machine_state_key` computed from a captured snapshot; a live
    machine and a snapshot of an equal state produce equal keys."""
    return _state_key(snapshot.memory, snapshot.locks, snapshot.threads)


def restore_machine(machine: "KernelMachine",
                    snapshot: MachineSnapshot) -> None:
    """Put a machine into exactly the captured state.

    The thread list is rebuilt from the snapshot's thread images: threads
    spawned after the capture point are discarded, threads missing from the
    target (captured after a spawn, restored onto a pre-spawn state) are
    recreated.  Logs are reset to the captured prefixes and the failure
    flag is cleared — a crash that happened after the capture never
    happened.
    """
    for image in snapshot.threads:
        if image.entry not in machine.image.functions:
            raise ValueError(
                f"snapshot does not belong to this machine: thread "
                f"{image.name!r} enters unknown function {image.entry!r}")
    machine.memory.restore(snapshot.memory)
    machine.locks.restore(snapshot.locks)
    # Rebuild the thread roster, reusing the machine's existing contexts
    # where possible.  A context whose cached capture *is* the image being
    # restored (generation-stamped identity) has not run since that
    # capture and needs no work at all; a context with matching identity
    # is rewound in place and re-stamped so its next capture() returns
    # the shared image without copying.  Only genuinely new threads are
    # materialized from scratch.
    by_name = machine._by_name
    threads = []
    for image in snapshot.threads:
        ctx = by_name.get(image.name)
        if ctx is not None:
            if ctx._cap is image and ctx._cap_gen == ctx.gen:
                threads.append(ctx)
                continue
            if (ctx.tid == image.tid and ctx.entry == image.entry
                    and ctx.kind is image.kind
                    and ctx.spawned_by == image.spawned_by
                    and ctx.spawn_instr == image.spawn_instr):
                ctx.restore(image.state)
                ctx._cap = image
                ctx._cap_gen = ctx.gen
                threads.append(ctx)
                continue
        threads.append(ThreadContext.from_image(image))
    machine.threads = threads
    machine._by_name = {ctx.name: ctx for ctx in threads}
    machine._seq = snapshot.seq
    machine.trace = list(snapshot.trace)
    machine.access_log = list(snapshot.access_log)
    machine.spawn_events = list(snapshot.spawn_events)
    machine.failure = None
