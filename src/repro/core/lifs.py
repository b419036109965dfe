"""Least Interleaving First Search (paper section 3.3).

LIFS reproduces a reported concurrency failure by exploring interleavings
of *conflicting* instructions, fewest preemptions first:

1. **Interleaving count 0** — every serial order of the slice's threads is
   executed.  These runs discover each thread's memory-accessing
   instructions (the kcov + disassembly step of section 4.3) and seed the
   conflict knowledge.
2. **Interleaving count k** — every non-failing run with k-1 preemptions is
   extended with one more preemption, placed *after* the previous ones
   (front-to-back search) and only at instructions whose data address is
   also accessed, conflictingly, by the thread being switched to.  The
   latter is the dynamic-partial-order-reduction insight: preempting where
   the target thread cannot conflict yields an equivalent trace, so those
   candidates are pruned without running (the grey branches of Figure 5).
3. Runs whose Mazurkiewicz signature repeats an earlier run are recorded as
   equivalent rather than explored further.

New instructions executed because of race-steered control flows enter the
knowledge base as soon as a run reveals them, extending the candidate set
on the fly — the property that lets LIFS handle the asynchronous patterns
of Figure 4 without predefined bug shapes.

The search stops at the first run whose failure matches the reported
symptom and returns the totally ordered failure-causing instruction
sequence together with every data race observed in it.
"""

from __future__ import annotations

import bisect
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.races import RaceSet, find_data_races
from repro.core.schedule import Preemption, Schedule
from repro.hypervisor.controller import RunResult, ScheduleController
from repro.hypervisor.snapshot import RunCheckpoint
from repro.kernel.failures import Failure, FailureKind
from repro.kernel.machine import KernelMachine
from repro.observe.tracer import as_tracer

from repro.engine import (LIFS_COUNTER_NAMES, EnginePolicy, RunPlan,
                          RunRequest, ScheduleExecutionEngine)
from repro.policy import (CandidateMeta, PolicyContext,
                          lifs_candidate_features)


@dataclass(frozen=True)
class FailureMatcher:
    """Does an observed failure match the reported one?

    ``kind=None`` matches any failure; ``location=None`` matches any
    instruction.  Crash reports give both (section 4.2).
    """

    kind: Optional[FailureKind] = None
    location: Optional[str] = None

    def matches(self, failure: Optional[Failure]) -> bool:
        if failure is None:
            return False
        if self.kind is not None and failure.kind is not self.kind:
            return False
        if self.location is not None and failure.instr_label != self.location:
            return False
        return True

    @classmethod
    def any_failure(cls) -> "FailureMatcher":
        return cls()


@dataclass
class LifsConfig:
    """Search bounds."""

    max_interleavings: int = 4
    max_schedules: int = 20_000
    #: How many full (non-failing) run results to retain for baselines and
    #: inspection; the frontier itself keeps only what extension needs.
    keep_runs: int = 64
    #: Ablation switch: disable the DPOR-style candidate pruning (preempt
    #: at *every* memory instruction, conflicting or not).  Exists to
    #: measure how much the paper's partial-order reduction buys.
    conflict_pruning: bool = True
    #: Ablation switch: extend equivalent (same-signature) runs instead of
    #: skipping their subtrees.
    equivalence_dedup: bool = True
    #: Prefix-checkpoint engine (docs/PERFORMANCE.md): run every schedule on
    #: one vehicle machine, resumed from the latest checkpoint before the
    #: point where the schedule diverges from its base run, instead of
    #: rebooting and re-interpreting the shared prefix.  Results are
    #: bit-identical with the engine on or off (the ``--no-snapshot``
    #: ablation); only ``snapshot.*`` accounting differs.
    use_snapshots: bool = True
    #: Capture a checkpoint every N executed instructions (besides the boot
    #: checkpoint and one at every preemption fire).
    snapshot_interval: int = 8
    #: Per-run cap on captured checkpoints.
    max_checkpoints_per_run: int = 64
    #: Cap on memoized run continuations (suffix splicing); each entry
    #: pins its donor run for the duration of the search.
    max_continuations: int = 65536
    #: Debugging aid: dedup on the full nested Mazurkiewicz signature
    #: tuples instead of the stable 64-bit digest.
    full_signatures: bool = False
    #: Retain full ``RunResult``s for ``sample_runs`` instead of the
    #: lightweight summaries that are replayed on demand.
    keep_full_runs: bool = False
    #: Which :mod:`repro.policy` search policy shapes frontier-extension
    #: batches (``--policy``): ``"static"`` (the canonical lazy
    #: front-to-back order, the default) or ``"adaptive"``
    #: (experience-ranked candidates, so a structurally familiar
    #: reproduction surfaces in fewer executed schedules).  Final
    #: diagnoses are identical under every policy; only cost accounting
    #: differs.
    policy: str = "static"


@dataclass
class SearchStats:
    schedules_executed: int = 0
    candidates_pruned: int = 0
    equivalent_runs: int = 0
    total_steps: int = 0
    failing_runs: int = 0
    per_round_executed: Dict[int, int] = field(default_factory=dict)
    per_round_pruned: Dict[int, int] = field(default_factory=dict)
    per_round_equivalent: Dict[int, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    #: Schedules resumed from a checkpoint / booted fresh; their sum always
    #: equals ``schedules_executed``.
    snapshot_hits: int = 0
    snapshot_misses: int = 0
    #: Checkpoints captured across all runs.
    snapshot_checkpoints: int = 0
    #: Suffix steps actually interpreted by resumed runs.
    resumed_steps: int = 0
    #: Prefix + boot-setup steps resumed runs did *not* interpret.
    saved_steps: int = 0
    #: Steps the interpreter really executed (suffixes plus setup on fresh
    #: boots).  With snapshots off this equals total_steps + setup per run;
    #: ``total_steps`` itself keeps whole-run semantics either way.
    interpreted_steps: int = 0
    #: Runs whose suffix was grafted from a memoized continuation after
    #: state convergence (the engine's continuation cache; see
    #: docs/PERFORMANCE.md), and the steps those grafts covered without
    #: interpretation.
    snapshot_splices: int = 0
    snapshot_spliced_steps: int = 0


@dataclass(frozen=True)
class RunSummary:
    """Lightweight record of one executed schedule: what retention keeps
    instead of a full ``RunResult`` (whose trace and access log pin the
    whole run in memory).  The schedule plus the deterministic controller
    are enough to rematerialize the full run on demand."""

    schedule: Schedule
    failure: Optional[Failure]
    steps: int
    interleavings: int
    signature_hash: int

    @property
    def failed(self) -> bool:
        return self.failure is not None


@dataclass
class LifsResult:
    """Outcome of one LIFS search over one slice."""

    reproduced: bool
    failure_run: Optional[RunResult]
    races: RaceSet
    stats: SearchStats
    #: Paper-style interleaving count of the reproducing run (preempted and
    #: later resumed pairs).
    interleaving_count: int = 0
    #: Summaries of the first ``LifsConfig.keep_runs`` executed schedules.
    run_summaries: List[RunSummary] = field(default_factory=list)
    _replayer: Optional[Callable[[Schedule], RunResult]] = field(
        default=None, repr=False, compare=False)
    _materialized: Optional[List[RunResult]] = field(
        default=None, repr=False, compare=False)

    @property
    def sample_runs(self) -> List[RunResult]:
        """Full ``RunResult``s for the retained schedules.

        Replayed on demand (execution is deterministic, so the replay is
        exact) and cached; with ``LifsConfig.keep_full_runs`` the search
        hands over the original runs instead.
        """
        if self._materialized is None:
            if self._replayer is None:
                self._materialized = []
            else:
                self._materialized = [self._replayer(s.schedule)
                                      for s in self.run_summaries]
        return self._materialized

    @property
    def failure_sequence(self):
        """The totally ordered failure-causing instruction sequence."""
        if self.failure_run is None:
            return []
        return self.failure_run.trace

    @property
    def schedule(self) -> Optional[Schedule]:
        return self.failure_run.schedule if self.failure_run else None


class _Knowledge:
    """What LIFS has learned from executed runs: who accesses which data
    address and how, plus which threads spawn which background threads."""

    def __init__(self) -> None:
        #: data_addr -> {(thread, is_write)}
        self.accessors: Dict[int, Set[Tuple[str, bool]]] = {}
        #: parent thread -> {child threads it has been seen spawning}
        self.spawn_children: Dict[str, Set[str]] = {}

    def absorb(self, run: RunResult) -> None:
        for access in run.accesses:
            self.accessors.setdefault(access.data_addr, set()).add(
                (access.thread, access.is_write))
        for spawn in run.spawn_events:
            self.spawn_children.setdefault(spawn.parent, set()).add(
                spawn.child)

    def _with_descendants(self, thread: str) -> Set[str]:
        family = {thread}
        work = [thread]
        while work:
            for child in self.spawn_children.get(work.pop(), ()):
                if child not in family:
                    family.add(child)
                    work.append(child)
        return family

    def conflicts(self, data_addr: int, accessor_is_write: bool,
                  target_thread: str) -> bool:
        """Would switching to the target thread allow a conflicting access
        to this address — by the target itself or by a background thread
        it (transitively) invokes?  The latter is what makes preempting
        toward an asynchronous free worthwhile (Figure 4-(a))."""
        family = self._with_descendants(target_thread)
        for thread, is_write in self.accessors.get(data_addr, ()):
            if thread in family and (is_write or accessor_is_write):
                return True
        return False


class LeastInterleavingFirstSearch:
    """One LIFS instance over one slice of threads."""

    def __init__(
        self,
        machine_factory: Callable[[], KernelMachine],
        initial_threads: Sequence[str],
        target: Optional[FailureMatcher] = None,
        config: Optional[LifsConfig] = None,
        tracer=None,
        experience=None,
    ) -> None:
        self.machine_factory = machine_factory
        self.initial_threads = tuple(initial_threads)
        self.target = target or FailureMatcher.any_failure()
        self.config = config or LifsConfig()
        self.tracer = as_tracer(tracer)
        self.stats = SearchStats()
        self._knowledge = _Knowledge()
        self._signatures: Set = set()
        self._tried_schedules: Set[Tuple] = set()
        self._run_summaries: List[RunSummary] = []
        self._kept_runs: List[RunResult] = []
        # All execution placement (snapshot resume/splice, coverage
        # pinning) lives in the engine; the search only decides *which*
        # schedules to run and in what order.
        self.engine = ScheduleExecutionEngine(
            machine_factory, EnginePolicy.for_lifs(self.config),
            tracer=self.tracer, experience=experience)

    # ------------------------------------------------------------------
    def search(self) -> LifsResult:
        with self.tracer.span("lifs", stage="lifs",
                              threads=len(self.initial_threads)) as span:
            started = time.perf_counter()
            result = self._search()
            self._absorb_engine_stats()
            self.stats.elapsed_seconds = time.perf_counter() - started
            self._trace_outcome(span, result)
        return result

    def _absorb_engine_stats(self) -> None:
        """Copy the engine's execution accounting into the search stats
        (the engine serves exactly this search, so the copy is total)."""
        engine_stats = self.engine.stats
        self.stats.snapshot_hits = engine_stats.snapshot_hits
        self.stats.snapshot_misses = engine_stats.snapshot_misses
        self.stats.snapshot_checkpoints = engine_stats.checkpoints_captured
        self.stats.resumed_steps = engine_stats.resumed_steps
        self.stats.saved_steps = engine_stats.saved_steps
        self.stats.interpreted_steps = engine_stats.interpreted_steps
        self.stats.snapshot_splices = engine_stats.splices
        self.stats.snapshot_spliced_steps = engine_stats.spliced_steps

    def _trace_outcome(self, span, result: LifsResult) -> None:
        """Publish the search accounting: per-depth points, aggregate
        counters, and the span's summary attributes."""
        stats = self.stats
        if not self.tracer.enabled:
            return
        depths = (set(stats.per_round_executed) | set(stats.per_round_pruned)
                  | set(stats.per_round_equivalent))
        for depth in sorted(depths):
            self.tracer.point(
                "lifs.depth", stage="lifs", depth=depth,
                executed=stats.per_round_executed.get(depth, 0),
                pruned=stats.per_round_pruned.get(depth, 0),
                equivalent=stats.per_round_equivalent.get(depth, 0))
        self.tracer.count("lifs.schedules", stats.schedules_executed)
        self.tracer.count("lifs.pruned", stats.candidates_pruned)
        self.tracer.count("lifs.equivalent", stats.equivalent_runs)
        self.tracer.count("lifs.failing_runs", stats.failing_runs)
        self.tracer.count("lifs.searches")
        self.engine.emit_counters(LIFS_COUNTER_NAMES)
        span.set(reproduced=result.reproduced,
                 schedules=stats.schedules_executed,
                 pruned=stats.candidates_pruned,
                 equivalent=stats.equivalent_runs,
                 interleavings=result.interleaving_count,
                 races=len(result.races))

    def _search(self) -> LifsResult:
        # Frontier entries carry the checkpoints valid for extending the
        # run: the base's shared-prefix checkpoints plus the run's own.
        frontier: List[Tuple[RunResult, List[RunCheckpoint]]] = []

        # Interleaving count 0: serial executions in every thread order.
        for order in itertools.permutations(self.initial_threads):
            schedule = Schedule(start_order=order,
                                note=f"lifs serial {'>'.join(order)}")
            run, duplicate, checkpoints = self._execute(schedule,
                                                        round_index=0)
            if run is None:
                return self._give_up()
            if self.target.matches(run.failure):
                return self._success(run)
            if not run.failed and not duplicate:
                frontier.append((run, checkpoints))

        extend = (self._extend_round_ranked
                  if self.engine.search_policy.reorders
                  else self._extend_round_static)
        for round_index in range(1, self.config.max_interleavings + 1):
            result, next_frontier = extend(frontier, round_index)
            if result is not None:
                return result
            if not next_frontier:
                break
            frontier = next_frontier

        return self._give_up()

    def _extend_round_static(
        self, frontier, round_index: int,
    ) -> Tuple[Optional[LifsResult], List]:
        """One frontier round in the canonical lazy order — the static
        policy.  Candidates are generated base by base *while* earlier
        siblings execute, so each sees the conflict knowledge its
        predecessors just grew: the exact pre-policy semantics, bit for
        bit."""
        next_frontier: List[Tuple[RunResult, List[RunCheckpoint]]] = []
        for base, base_ckpts in frontier:
            base_ckpts = list(base_ckpts)
            horizons = [c.horizon_seq for c in base_ckpts]
            for schedule, div_seq in self._extensions(base):
                # Latest checkpoint strictly before the divergence
                # point: base and extension behave identically up to
                # there, and the preempted occurrence must not have
                # executed yet or the preemption would never fire.
                i = bisect.bisect_left(horizons, div_seq)
                resume = base_ckpts[i - 1] if i else None
                run, duplicate, checkpoints = self._execute(
                    schedule, round_index, resume_from=resume)
                if run is None:
                    return self._give_up(), []
                if self.target.matches(run.failure):
                    return self._success(run), []
                self._harvest(schedule, checkpoints, base_ckpts,
                              horizons)
                # Equivalent runs are recorded but not extended — the
                # DPOR-style subtree skip of Figure 5.
                keep = not duplicate or not self.config.equivalence_dedup
                if not run.failed and keep:
                    next_frontier.append((run, self._child_checkpoints(
                        schedule, run, base_ckpts, checkpoints)))
        return None, next_frontier

    def _extend_round_ranked(
        self, frontier, round_index: int,
    ) -> Tuple[Optional[LifsResult], List]:
        """One frontier round through the search policy (reordering
        policies only): materialize the round's candidates, let
        :meth:`~repro.engine.engine.ScheduleExecutionEngine.shape_plan`
        rank the batch, execute in shaped order.

        Materialization repeats to a fixed point: executed runs grow the
        conflict knowledge, and grown knowledge can unlock extensions the
        first materialization pruned (the conflict check is monotone in
        the knowledge, which only grows), so the candidate set here
        always covers everything the lazy static order would have
        generated.  Execution *order* inside the round — and with it
        which failure-matching run surfaces first — is the policy's
        choice; the ablation benchmark asserts the resulting diagnoses
        stay bit-identical across policies on the whole corpus."""
        # Per-base mutable checkpoint pools, shared across fixed-point
        # iterations so harvested captures keep densifying the prefix.
        pools = []
        for base, base_ckpts in frontier:
            pool = list(base_ckpts)
            pools.append((base, pool, [c.horizon_seq for c in pool]))
        next_frontier: List[Tuple[RunResult, List[RunCheckpoint]]] = []
        while True:
            requests: List[RunRequest] = []
            for base_index, (base, _, _) in enumerate(pools):
                access_by_seq = {a.seq: a for a in base.accesses}
                kinds = base.thread_kinds
                for schedule, div_seq in self._extensions(base):
                    preemption = schedule.preemptions[-1]
                    access = access_by_seq.get(div_seq)
                    requests.append(RunRequest(
                        schedule=schedule, capture_checkpoints=True,
                        meta=CandidateMeta(
                            index=len(requests), kind="lifs.extend",
                            base_index=base_index, div_seq=div_seq,
                            sort_key=(base_index, div_seq,
                                      preemption.switch_to),
                            features=lifs_candidate_features(
                                preemption.instr_label,
                                access.func if access is not None else "",
                                kinds.get(preemption.switch_to, ""),
                                round_index))))
            if not requests:
                return None, next_frontier
            shaped, _pruned = self.engine.shape_plan(
                RunPlan(requests, phase="lifs.extend"),
                PolicyContext(phase="lifs.extend", depth=round_index))
            for request in shaped.requests:
                meta = request.meta
                _base, pool, horizons = pools[meta.base_index]
                i = bisect.bisect_left(horizons, meta.div_seq)
                resume = pool[i - 1] if i else None
                run, duplicate, checkpoints = self._execute(
                    request.schedule, round_index, resume_from=resume)
                if run is None:
                    return self._give_up(), []
                if self.target.matches(run.failure):
                    return self._success(run), []
                self._harvest(request.schedule, checkpoints, pool, horizons)
                keep = not duplicate or not self.config.equivalence_dedup
                if not run.failed and keep:
                    next_frontier.append((run, self._child_checkpoints(
                        request.schedule, run, pool, checkpoints)))

    def _harvest(self, schedule: Schedule,
                 checkpoints: Sequence[RunCheckpoint],
                 base_ckpts: List[RunCheckpoint],
                 horizons: List[int]) -> None:
        """Fold an extension run's pre-divergence checkpoints back into the
        base's pool.  Until its new preemption fires, the extension *is* the
        base run, so those captures densify the shared prefix — siblings
        (generated in ascending divergence order) then resume from just
        before their own divergence point instead of an early, coarse
        checkpoint."""
        if not self.engine.snapshots_active or not schedule.preemptions:
            return
        new_preemption = schedule.preemptions[-1]
        for ckpt in checkpoints:
            # fired grows monotonically along the checkpoint list; the
            # first capture past the divergence ends the shared prefix.
            if any(p == new_preemption for p, _ in ckpt.fired):
                break
            i = bisect.bisect_left(horizons, ckpt.horizon_seq)
            if i < len(horizons) and horizons[i] == ckpt.horizon_seq:
                continue
            horizons.insert(i, ckpt.horizon_seq)
            base_ckpts.insert(i, ckpt)

    def _child_checkpoints(
        self, schedule: Schedule, run: RunResult,
        base_ckpts: List[RunCheckpoint],
        own: List[RunCheckpoint],
    ) -> List[RunCheckpoint]:
        """Checkpoints valid for extensions of ``run``: the base's prefix
        checkpoints up to the point where ``run`` diverged (its new
        preemption's fire seq) plus the checkpoints ``run`` captured
        itself, deduplicated by horizon."""
        if not self.engine.snapshots_active:
            return []
        new_preemption = schedule.preemptions[-1]
        fire_seq = None
        for p, seq in zip(run.fired_preemptions, run.fired_seqs):
            if p == new_preemption:
                fire_seq = seq
                break
        if fire_seq is None:
            # The new preemption never fired: the run never diverged from
            # its base, so every base checkpoint stays valid.
            inherited = base_ckpts
        else:
            inherited = [c for c in base_ckpts if c.horizon_seq <= fire_seq]
        merged: Dict[int, RunCheckpoint] = {}
        for ckpt in itertools.chain(inherited, own):
            merged.setdefault(ckpt.horizon_seq, ckpt)
        return [merged[h] for h in sorted(merged)]

    # ------------------------------------------------------------------
    def _execute(
        self, schedule: Schedule, round_index: int,
        resume_from: Optional[RunCheckpoint] = None,
    ) -> Tuple[Optional[RunResult], bool, List[RunCheckpoint]]:
        """Run one schedule through the engine.  Returns
        ``(run, is_equivalent, checkpoints)``; ``run`` is ``None`` when
        the schedule budget is exhausted."""
        if self.stats.schedules_executed >= self.config.max_schedules:
            return None, False, []
        outcome = self.engine.run(RunRequest(
            schedule=schedule, resume_from=resume_from,
            capture_checkpoints=True))
        run = outcome.run
        self.stats.schedules_executed += 1
        self.stats.total_steps += run.steps
        duplicate = self._account_run(schedule, run, round_index)
        return run, duplicate, list(outcome.checkpoints)

    def _account_run(self, schedule: Schedule, run: RunResult,
                     round_index: int) -> bool:
        """Search-level bookkeeping for one executed run; returns
        whether the run's signature repeats an earlier one."""
        if run.failed:
            self.stats.failing_runs += 1
        self.stats.per_round_executed[round_index] = (
            self.stats.per_round_executed.get(round_index, 0) + 1)
        self._knowledge.absorb(run)
        digest = run.signature_hash()
        key = run.signature() if self.config.full_signatures else digest
        duplicate = key in self._signatures
        if duplicate:
            self.stats.equivalent_runs += 1
            self.stats.per_round_equivalent[round_index] = (
                self.stats.per_round_equivalent.get(round_index, 0) + 1)
        else:
            self._signatures.add(key)
        if len(self._run_summaries) < self.config.keep_runs:
            self._run_summaries.append(RunSummary(
                schedule=schedule, failure=run.failure, steps=run.steps,
                interleavings=run.interleavings, signature_hash=digest))
            if self.config.keep_full_runs:
                self._kept_runs.append(run)
        return duplicate

    def _replay(self, schedule: Schedule) -> RunResult:
        """Deterministically rematerialize a retained run (fresh boot, no
        tracer — accounting already happened during the search)."""
        return ScheduleController(self.machine_factory(), schedule).run()

    def _extensions(self, base: RunResult):
        """Candidate ``(schedule, divergence_seq)`` pairs extending ``base``
        with one more preemption, front-to-back after the base's last fired
        preemption.

        ``divergence_seq`` is the new preemption's trace-entry seq: base and
        extension behave identically up to (but excluding) that entry, so
        the caller may resume the extension from any checkpoint whose
        horizon is strictly before it.
        """
        seen = self._tried_schedules
        # Front-to-back: new preemptions only after the point where the
        # base run's last preemption *fired* (parked its thread).
        last_seq = max(base.fired_seqs) if base.fired_seqs else 0

        accesses_by_seq = {a.seq: a for a in base.accesses}
        thread_kinds = base.thread_kinds
        spawn_seq = {e.child: e.seq for e in base.spawn_events}
        threads = base.thread_names
        remaining_after: Dict[str, int] = {}
        for entry in base.trace:
            remaining_after[entry.thread] = entry.seq

        for entry in base.trace:
            if entry.seq <= last_seq:
                continue
            access = accesses_by_seq.get(entry.seq)
            if access is None:
                continue  # not a memory-accessing instruction
            if thread_kinds.get(entry.thread) == "irq":
                continue  # hardware IRQ handlers are not preemptible
            for target in threads:
                if target == entry.thread:
                    continue
                if spawn_seq.get(target, 0) > entry.seq:
                    continue  # not spawned yet at this point
                if remaining_after.get(target, 0) <= entry.seq:
                    continue  # target had no remaining work here
                if self.config.conflict_pruning and \
                        not self._knowledge.conflicts(
                            access.data_addr, access.is_write, target):
                    self.stats.candidates_pruned += 1
                    depth = len(base.schedule.preemptions) + 1
                    self.stats.per_round_pruned[depth] = (
                        self.stats.per_round_pruned.get(depth, 0) + 1)
                    continue
                preemption = Preemption(
                    thread=entry.thread, instr_addr=entry.instr_addr,
                    occurrence=entry.occurrence, switch_to=target,
                    instr_label=entry.instr_label)
                schedule = Schedule(
                    start_order=base.schedule.start_order,
                    preemptions=list(base.schedule.preemptions) + [preemption],
                    note=f"lifs depth {len(base.schedule.preemptions) + 1}")
                key = schedule.key()
                if key in seen:
                    continue
                seen.add(key)
                yield schedule, entry.seq

    # ------------------------------------------------------------------
    def _success(self, run: RunResult) -> LifsResult:
        races = find_data_races(run.accesses)
        return LifsResult(
            reproduced=True, failure_run=run, races=races, stats=self.stats,
            interleaving_count=run.interleavings,
            run_summaries=list(self._run_summaries),
            _replayer=self._replay,
            _materialized=(list(self._kept_runs)
                           if self.config.keep_full_runs else None))

    def _give_up(self) -> LifsResult:
        return LifsResult(
            reproduced=False, failure_run=None, races=RaceSet(),
            stats=self.stats,
            run_summaries=list(self._run_summaries),
            _replayer=self._replay,
            _materialized=(list(self._kept_runs)
                           if self.config.keep_full_runs else None))
