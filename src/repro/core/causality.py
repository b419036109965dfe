"""Causality Analysis (paper section 3.4).

Given the failure-causing instruction sequence produced by LIFS and the
data races detected in it, Causality Analysis determines which races
actually contribute to the failure and how they chain together:

1. **Identification** — every race (popped backward from the failure) is
   *flipped*: a new instruction order is derived from the failure sequence
   with only that race's direction reversed, expressed as an order-
   constraint schedule, and executed.  If the kernel no longer produces the
   reported failure, the race is a root cause; if it still fails, the race
   is benign and is excluded — this is what keeps causality chains concise.
2. **Chain building** — for each root-cause race, the flip run is inspected
   for other root-cause races that *disappeared* (their instructions never
   executed): flipping r1 making r2 disappear means r1 steers the control
   flow that reaches r2, giving the edge ``r1 -> r2``.

Two practical complications from the paper are handled:

* **Liveness** — races whose accesses sit inside lock-protected critical
  sections are grouped into a single :class:`RaceUnit` per section pair and
  flipped as a unit, with enforcement anchored at the section's ``LOCK``
  instruction so no thread is ever parked while holding a lock another
  thread needs.
* **Ambiguity** — a race that *surrounds* a nested race cannot be flipped
  alone (the required order is cyclic).  The nested race is flipped first,
  then the surrounding one together with it; if both flips independently
  avert the failure, the surrounding race is reported as *ambiguous*
  (Figure 7).
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.chain import CausalityChain, build_chain
from repro.core.lifs import FailureMatcher, LifsResult
from repro.core.races import DataRace, EndpointKey
from repro.core.schedule import OrderConstraint, Schedule
from repro.hypervisor.controller import RunResult
from repro.kernel.instructions import Op
from repro.kernel.machine import KernelMachine
from repro.observe.tracer import as_tracer

from repro.engine import (CA_COUNTER_NAMES, EnginePolicy, RunPlan,
                          RunRequest, ScheduleExecutionEngine)
from repro.policy import CandidateMeta, PolicyContext, unit_features


@dataclass(frozen=True)
class _Event:
    """One racing-instruction execution in the failure run."""

    key: EndpointKey  # (thread, instr_addr, occurrence)
    seq: int
    label: str

    @property
    def thread(self) -> str:
        return self.key[0]


@dataclass
class RaceUnit:
    """The unit Causality Analysis flips: one data race, or every race
    between the same pair of critical-section instances."""

    uid: int
    races: Tuple[DataRace, ...]
    first_seq: int
    last_seq: int
    is_critical_section: bool = False

    @property
    def endpoint_keys(self) -> List[EndpointKey]:
        keys: List[EndpointKey] = []
        for race in self.races:
            keys.append(race.first_key)
            keys.append(race.second_key)
        return keys

    def __str__(self) -> str:
        body = " ∧ ".join(str(r) for r in self.races)
        return f"[{body}]" if self.is_critical_section else body


@dataclass
class UnitTest:
    """Log entry for one flip test (drives the Figure 6 benchmark)."""

    step: int
    unit: RaceUnit
    flipped_uids: FrozenSet[int]
    constraints: int
    failed: bool
    disappeared_uids: FrozenSet[int]
    note: str = ""


@dataclass
class CaStats:
    schedules_executed: int = 0
    reboots: int = 0
    total_steps: int = 0
    elapsed_seconds: float = 0.0
    #: Flip runs resumed from the boot checkpoint / booted fresh; their
    #: sum always equals ``schedules_executed``.
    snapshot_hits: int = 0
    snapshot_misses: int = 0
    #: Boot-setup and spliced-suffix steps resumed flips did *not*
    #: re-interpret.
    saved_steps: int = 0
    #: Steps the interpreter really executed (runs, plus setup on fresh
    #: boots); ``total_steps`` keeps whole-run semantics either way.
    interpreted_steps: int = 0
    #: Flips whose suffix was grafted from an earlier flip after state
    #: convergence, and the steps those grafts covered.
    snapshot_splices: int = 0
    snapshot_spliced_steps: int = 0


@dataclass
class CausalityResult:
    """Everything Causality Analysis produced for one failure."""

    chain: CausalityChain
    root_cause_units: List[RaceUnit]
    benign_units: List[RaceUnit]
    ambiguous_uids: Set[int]
    unflippable_units: List[RaceUnit]
    edges: Dict[int, Set[int]]
    tests: List[UnitTest]
    stats: CaStats

    @property
    def total_races_tested(self) -> int:
        return sum(len(u.races)
                   for u in self.root_cause_units + self.benign_units)

    @property
    def benign_race_count(self) -> int:
        return sum(len(u.races) for u in self.benign_units)


@dataclass
class CaConfig:
    """Behaviour switches."""

    #: Re-execute root-cause flips during chain building (the paper runs
    #: the two phases separately; disabling reuses cached identification
    #: runs).
    recheck_edges: bool = True
    #: Upper bound on flip runs, as a safety net for huge race sets.
    max_tests: int = 5_000
    #: Ablation switch: disable grouping critical-section races into one
    #: flip unit (the liveness treatment of section 3.4).
    collapse_critical_sections: bool = True
    #: Refine the race set with the vector-clock happens-before analysis
    #: before testing: pairs ordered transitively (lock hand-offs, spawn
    #: edges) are provably unflippable, so testing them is wasted work.
    use_happens_before: bool = False
    #: Prefix-checkpoint engine: run every flip on one vehicle machine
    #: restored from a boot checkpoint instead of rebooting per flip, and
    #: splice memoized suffixes once a flip's reordered window resolves
    #: and its state converges back onto an earlier flip's trajectory.
    #: Results are bit-identical with the engine on or off (the
    #: ``--no-snapshot`` ablation); only ``ca.snapshot_*`` accounting
    #: differs.
    use_snapshots: bool = True
    #: Cap on memoized flip continuations (suffix splicing).
    max_continuations: int = 65536
    #: Which :mod:`repro.policy` search policy shapes the flip batches
    #: (``--policy``): ``"static"`` (submission order, no pruning, the
    #: default) or ``"adaptive"`` (experience-ranked ordering plus
    #: error-invariant pruning of identification flips).  Diagnoses are
    #: bit-identical under every policy; only cost accounting differs.
    policy: str = "static"


class CausalityAnalysis:
    """One Causality Analysis instance over one reproduced failure."""

    def __init__(
        self,
        machine_factory: Callable[[], KernelMachine],
        lifs_result: LifsResult,
        target: Optional[FailureMatcher] = None,
        config: Optional[CaConfig] = None,
        tracer=None,
        experience=None,
    ) -> None:
        if not lifs_result.reproduced or lifs_result.failure_run is None:
            raise ValueError("Causality Analysis needs a reproduced failure")
        self.tracer = as_tracer(tracer)
        self.machine_factory = machine_factory
        self.lifs_result = lifs_result
        self.failure_run = lifs_result.failure_run
        failure = self.failure_run.failure
        self.target = target or FailureMatcher(
            kind=failure.kind, location=failure.instr_label)
        self.config = config or CaConfig()
        # All execution placement (snapshot resume/splice, coverage
        # pinning) lives in the engine.  CA needs a booted image up front
        # anyway, so the engine primes eagerly: the boot machine doubles
        # as the snapshot vehicle, and a kcov-instrumented boot pins every
        # flip to fresh boots (resuming would skip the setup's coverage
        # callbacks).
        self.engine = ScheduleExecutionEngine(
            machine_factory, EnginePolicy.for_ca(self.config),
            tracer=self.tracer, experience=experience)
        self.image = self.engine.prime().image
        self.stats = CaStats()
        self._start_order = self.failure_run.schedule.start_order

        self.races = lifs_result.races
        if self.config.use_happens_before:
            from repro.core.happens_before import find_data_races_hb
            self.races = find_data_races_hb(
                self.failure_run.accesses, self.failure_run.trace,
                self.image, self.failure_run.spawn_events)

        self._sections = self._compute_sections()
        self.units = self._build_units()
        self._events = self._collect_events()
        self._trace_by_seq = {e.seq: e for e in self.failure_run.trace}

    # ------------------------------------------------------------------
    # Critical sections
    # ------------------------------------------------------------------
    def _compute_sections(self) -> Dict[int, FrozenSet[Tuple[str, int]]]:
        """Map each trace seq to the critical-section instance holding it:
        a frozenset of (lock name, acquisition seq) pairs.

        A hardware IRQ handler is one implicit critical section anchored
        at its first instruction: the handler runs atomically on real
        hardware, so flips may reorder the whole injection but never park
        a thread mid-handler."""
        if not self.config.collapse_critical_sections:
            return {}
        held: Dict[str, Dict[str, int]] = {}
        irq_entry: Dict[str, int] = {}
        kinds = self.failure_run.thread_kinds
        sections: Dict[int, FrozenSet[Tuple[str, int]]] = {}
        for entry in self.failure_run.trace:
            instr = self.image.instruction_at(entry.instr_addr)
            thread_held = held.setdefault(entry.thread, {})
            if kinds.get(entry.thread) == "irq":
                first = irq_entry.setdefault(entry.thread, entry.seq)
                thread_held[f"<irq:{entry.thread}>"] = first
            if instr.op is Op.LOCK:
                thread_held[instr.operands[0]] = entry.seq
            elif instr.op is Op.UNLOCK:
                thread_held.pop(instr.operands[0], None)
            sections[entry.seq] = frozenset(thread_held.items())
        return sections

    def _section_of(self, seq: int) -> FrozenSet[Tuple[str, int]]:
        return self._sections.get(seq, frozenset())

    # ------------------------------------------------------------------
    # Units
    # ------------------------------------------------------------------
    def _build_units(self) -> List[RaceUnit]:
        groups: Dict[Tuple, List[DataRace]] = {}
        for race in self.races:
            first_section = self._section_of(race.first.seq)
            second_section = self._section_of(race.second.seq)
            if first_section or second_section:
                key = ("section", race.threads, first_section, second_section)
            else:
                key = ("single", race.key)
            groups.setdefault(key, []).append(race)

        units: List[RaceUnit] = []
        for key, races in groups.items():
            races.sort(key=lambda r: r.second.seq)
            seqs = [r.first.seq for r in races] + [r.second.seq for r in races]
            units.append(RaceUnit(
                uid=len(units), races=tuple(races),
                first_seq=min(seqs), last_seq=max(seqs),
                is_critical_section=(key[0] == "section" and len(races) > 1)))
        # Canonical total order: ``last_seq`` as before, but ties broken
        # by content (first_seq, then the sorted endpoint-key tuples)
        # instead of the incidental grouping-dict insertion order — so
        # unit uids, and everything keyed on them, are stable however
        # the race set was iterated.
        units.sort(key=lambda u: (
            u.last_seq, u.first_seq,
            tuple(sorted((r.first_key, r.second_key) for r in u.races))))
        for i, unit in enumerate(units):
            unit.uid = i
        return units

    def _collect_events(self) -> Dict[EndpointKey, _Event]:
        events: Dict[EndpointKey, _Event] = {}
        for unit in self.units:
            for race in unit.races:
                for access in (race.first, race.second):
                    key = (access.thread, access.instr_addr, access.occurrence)
                    if key not in events:
                        events[key] = _Event(key=key, seq=access.seq,
                                             label=access.instr_label)
        return events

    # ------------------------------------------------------------------
    # Flip schedules
    # ------------------------------------------------------------------
    def _flip_constraints(
        self, flipped_uids: Set[int],
    ) -> Optional[List[OrderConstraint]]:
        """The diagnosis schedule flipping exactly the given units while
        preserving every other race's order, or ``None`` when that order is
        cyclic (a surrounded race, Figure 7)."""
        events = self._events
        edges: Dict[EndpointKey, Set[EndpointKey]] = {
            key: set() for key in events}

        # Program order between racing events of the same thread.
        by_thread: Dict[str, List[_Event]] = {}
        for event in events.values():
            by_thread.setdefault(event.thread, []).append(event)
        for thread_events in by_thread.values():
            thread_events.sort(key=lambda e: e.seq)
            for prev, cur in zip(thread_events, thread_events[1:]):
                edges[prev.key].add(cur.key)

        # Spawn causality: a background thread's events can only happen
        # after the instruction that invoked it, which is program-ordered
        # in the parent.  Without these edges a flip could schedule a
        # kworker's access before the queue_work that creates it.
        for spawn in self.failure_run.spawn_events:
            child_events = by_thread.get(spawn.child)
            if not child_events:
                continue
            parent_before = [e for e in by_thread.get(spawn.parent, [])
                             if e.seq <= spawn.seq]
            if parent_before:
                edges[parent_before[-1].key].add(child_events[0].key)

        # Race orders: original direction, except flipped units.
        for unit in self.units:
            flip = unit.uid in flipped_uids
            for race in unit.races:
                if flip:
                    edges[race.second_key].add(race.first_key)
                else:
                    edges[race.first_key].add(race.second_key)

        order = self._topo_sort(events, edges)
        if order is None:
            return None
        return self._anchor_constraints(order)

    def _topo_sort(
        self,
        events: Dict[EndpointKey, _Event],
        edges: Dict[EndpointKey, Set[EndpointKey]],
    ) -> Optional[List[_Event]]:
        in_degree = {key: 0 for key in events}
        for sources in edges.values():
            for dst in sources:
                in_degree[dst] += 1
        heap = [(events[k].seq, k) for k, d in in_degree.items() if d == 0]
        heapq.heapify(heap)
        order: List[_Event] = []
        while heap:
            _, key = heapq.heappop(heap)
            order.append(events[key])
            for dst in edges[key]:
                in_degree[dst] -= 1
                if in_degree[dst] == 0:
                    heapq.heappush(heap, (events[dst].seq, dst))
        if len(order) != len(events):
            return None  # cycle
        return order

    def _anchor_constraints(
        self, order: Sequence[_Event],
    ) -> List[OrderConstraint]:
        """Turn an event order into order constraints, anchoring events
        inside critical sections at the section's LOCK instruction so the
        enforcement never parks a lock holder mid-section."""
        constraints: List[OrderConstraint] = []
        seen: Set[Tuple[str, int, int]] = set()
        for event in order:
            section = self._section_of(event.seq)
            key = event.key
            label = event.label
            if section:
                lock_seq = min(acq for _, acq in section)
                entry = self._trace_by_seq.get(lock_seq)
                if entry is not None:
                    key = (entry.thread, entry.instr_addr, entry.occurrence)
                    label = entry.instr_label
            if key in seen:
                continue
            seen.add(key)
            constraints.append(OrderConstraint(
                thread=key[0], instr_addr=key[1], occurrence=key[2],
                instr_label=label))
        return constraints

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute_flips(
        self, requests: List[Tuple[List[OrderConstraint], str, str]],
        phase: str = "ca.flips",
        units: Optional[List[RaceUnit]] = None,
    ) -> List[Optional[RunResult]]:
        """Execute a batch of independent flip tests through the engine;
        results come back in submission order.

        ``requests`` is ``[(constraints, note, stage), ...]``; ``units``
        (parallel to it) names the race unit each flip tests, which is
        what the search policy orders and prunes on.  The batch is
        shaped by the engine's policy first — the static default keeps
        the submission order and prunes nothing — then executed as one
        :class:`RunPlan` (snapshot-resumed on the vehicle, or fresh boots
        when the policy says so).  Flip constraints depend only on the
        failure run's static structure, never on other flips' results,
        so any placement *and any execution order* yields the same runs;
        outcomes are mapped back to submission positions through each
        request's candidate meta.  A pruned candidate comes back as
        ``None`` — the caller classifies it without a run.  CA replays
        each executed outcome's ``ca.flip`` span and its own stats at
        merge time; suffix splicing changes accounting, never bits.
        """
        flip_units: List[Optional[RaceUnit]] = (
            list(units) if units is not None else [None] * len(requests))
        run_requests: List[RunRequest] = []
        for index, ((constraints, note, _), unit) in enumerate(
                zip(requests, flip_units)):
            meta = None
            if unit is not None:
                # Canonical key: the backward-from-the-failure order the
                # identification phase plans in (descending last_seq,
                # unit uid as the content-stable tiebreak).
                meta = CandidateMeta(
                    index=index, kind="ca.flip", uid=unit.uid,
                    sort_key=(-unit.last_seq, unit.uid),
                    features=unit_features(unit))
            run_requests.append(RunRequest(
                schedule=Schedule(start_order=self._start_order,
                                  constraints=constraints, note=note),
                watch_races=False, meta=meta))
        context = PolicyContext(
            phase=phase, failure_run=self.failure_run, image=self.image,
            units={u.uid: u for u in self.units})
        shaped, _pruned = self.engine.shape_plan(
            RunPlan(run_requests, phase=phase), context)
        runs: List[Optional[RunResult]] = [None] * len(requests)
        for position, (request, outcome) in enumerate(
                zip(shaped.requests, self.engine.run_plan(shaped))):
            index = (request.meta.index if request.meta is not None
                     else position)
            constraints, note, stage = requests[index]
            run = outcome.run
            with self.tracer.span("ca.flip", stage=stage, note=note,
                                  constraints=len(constraints)) as span:
                span.set(failed=run.failed, steps=run.steps)
            self.stats.schedules_executed += 1
            self.stats.total_steps += run.steps
            if run.failed:
                # A failing diagnosis run requires a VM reboot (the
                # dominant cost of the diagnosing stage per section 5.1).
                self.stats.reboots += 1
            runs[index] = run
        return runs

    @staticmethod
    def _executed_set(run: RunResult) -> Set[EndpointKey]:
        return {(e.thread, e.instr_addr, e.occurrence) for e in run.trace}

    @staticmethod
    def _unit_occurred(unit: RaceUnit, executed: Set[EndpointKey]) -> bool:
        return all(key in executed for key in unit.endpoint_keys)

    # ------------------------------------------------------------------
    # Main analysis
    # ------------------------------------------------------------------
    def analyze(self) -> CausalityResult:
        with self.tracer.span("ca", stage="ca",
                              units=len(self.units)) as span:
            started = time.perf_counter()
            result = self._analyze()
            self._absorb_engine_stats()
            self.stats.elapsed_seconds = time.perf_counter() - started
            result.stats = self.stats
            self._trace_outcome(span, result)
        return result

    def _absorb_engine_stats(self) -> None:
        """Copy the engine's placement accounting into :class:`CaStats`
        so results keep their historical shape."""
        engine_stats = self.engine.stats
        self.stats.snapshot_hits = engine_stats.snapshot_hits
        self.stats.snapshot_misses = engine_stats.snapshot_misses
        self.stats.saved_steps = engine_stats.saved_steps
        self.stats.interpreted_steps = engine_stats.interpreted_steps
        self.stats.snapshot_splices = engine_stats.splices
        self.stats.snapshot_spliced_steps = engine_stats.spliced_steps

    def _trace_outcome(self, span, result: CausalityResult) -> None:
        """Publish the analysis accounting as counters + span attrs."""
        if not self.tracer.enabled:
            return
        self.tracer.count("ca.schedules", self.stats.schedules_executed)
        self.tracer.count("ca.flips", len(result.tests))
        self.tracer.count("ca.reboots", self.stats.reboots)
        self.tracer.count("ca.root_cause_units",
                          len(result.root_cause_units))
        self.tracer.count("ca.benign_units", len(result.benign_units))
        self.tracer.count("ca.benign_races", result.benign_race_count)
        self.tracer.count("ca.ambiguous_units", len(result.ambiguous_uids))
        self.engine.emit_counters(CA_COUNTER_NAMES)
        span.set(schedules=self.stats.schedules_executed,
                 flips=len(result.tests),
                 reboots=self.stats.reboots,
                 root_cause_units=len(result.root_cause_units),
                 benign_units=len(result.benign_units))

    def _analyze(self) -> CausalityResult:
        root: List[RaceUnit] = []
        benign: List[RaceUnit] = []
        unflippable: List[RaceUnit] = []
        ambiguous: Set[int] = set()
        tests: List[UnitTest] = []
        runs: Dict[int, Tuple[RunResult, FrozenSet[int]]] = {}
        deferred: List[RaceUnit] = []
        root_uids: Set[int] = set()

        # Flip constraints derive from the failure run's static structure,
        # never from other flips' results, so each phase is *planned* in
        # full (fixing step numbers, deferrals and flip sets exactly as the
        # flip-at-a-time loop would), *executed* as one batch of
        # independent tests and *processed* in submission order.

        # Identification, backward from the failure.
        pending = deque(sorted(self.units, key=lambda u: u.last_seq,
                               reverse=True))
        step = 0
        plan: List[Tuple[int, RaceUnit, List[OrderConstraint]]] = []
        while pending and step < self.config.max_tests:
            unit = pending.popleft()
            constraints = self._flip_constraints({unit.uid})
            if constraints is None:
                deferred.append(unit)
                continue
            step += 1
            plan.append((step, unit, constraints))
        flip_runs = self._execute_flips(
            [(c, f"flip {u}", "ca") for _, u, c in plan],
            phase="ca.identify", units=[u for _, u, _ in plan])
        for (test_step, unit, constraints), run in zip(plan, flip_runs):
            if run is None:
                # Invariant-pruned: the unit's racing locations have no
                # data/control path to the failure, so its flip provably
                # still fails — benign without executing.
                tests.append(UnitTest(
                    step=test_step, unit=unit,
                    flipped_uids=frozenset({unit.uid}),
                    constraints=len(constraints), failed=True,
                    disappeared_uids=frozenset(), note="invariant-pruned"))
                benign.append(unit)
                continue
            runs[unit.uid] = (run, frozenset({unit.uid}))
            failed = self.target.matches(run.failure)
            executed = self._executed_set(run)
            disappeared = frozenset(
                v.uid for v in self.units
                if v.uid != unit.uid and not self._unit_occurred(v, executed))
            tests.append(UnitTest(step=test_step, unit=unit,
                                  flipped_uids=frozenset({unit.uid}),
                                  constraints=len(constraints), failed=failed,
                                  disappeared_uids=disappeared))
            if failed:
                benign.append(unit)
            else:
                root.append(unit)
                root_uids.add(unit.uid)

        # Surrounded races: flip nested units first, then the surrounding
        # one together with them.  (``_pick_nested`` is static, so the
        # flip sets are plannable too.)
        nested_plan: List[Tuple[int, RaceUnit, FrozenSet[int],
                                List[OrderConstraint]]] = []
        for unit in deferred:
            flipped = {unit.uid}
            constraints = self._flip_constraints(flipped)
            while constraints is None:
                nested = self._pick_nested(unit, flipped)
                if nested is None:
                    break
                flipped.add(nested.uid)
                constraints = self._flip_constraints(flipped)
            if constraints is None:
                unflippable.append(unit)
                continue
            step += 1
            nested_plan.append((step, unit, frozenset(flipped), constraints))
        nested_runs = self._execute_flips(
            [(c, f"flip {u} (+nested)", "ca")
             for _, u, _, c in nested_plan],
            phase="ca.nested", units=[u for _, u, _, _ in nested_plan])
        for (test_step, unit, flipped, constraints), run in zip(nested_plan,
                                                                nested_runs):
            if run is None:  # pragma: no cover — nested flips never prune
                unflippable.append(unit)
                continue
            runs[unit.uid] = (run, flipped)
            failed = self.target.matches(run.failure)
            executed = self._executed_set(run)
            disappeared = frozenset(
                v.uid for v in self.units
                if v.uid not in flipped
                and not self._unit_occurred(v, executed))
            tests.append(UnitTest(step=test_step, unit=unit,
                                  flipped_uids=flipped,
                                  constraints=len(constraints), failed=failed,
                                  disappeared_uids=disappeared,
                                  note="nested-first"))
            if failed:
                benign.append(unit)
                continue
            root.append(unit)
            root_uids.add(unit.uid)
            # Ambiguity: the nested flip alone also averted the failure, so
            # the surrounding race's own contribution cannot be isolated.
            if any(uid in root_uids for uid in flipped if uid != unit.uid):
                ambiguous.add(unit.uid)

        # Chain building: which root-cause units disappear under which
        # root-cause flips.
        edges: Dict[int, Set[int]] = {}
        with self.tracer.span("chain", stage="chain",
                              root_cause_units=len(root)) as chain_span:
            recheck_plan: List[Tuple[RaceUnit, FrozenSet[int],
                                     List[OrderConstraint]]] = []
            if self.config.recheck_edges:
                for unit in root:
                    if unit.uid in ambiguous:
                        continue
                    _, flipped = runs[unit.uid]
                    constraints = self._flip_constraints(set(flipped))
                    if constraints is not None:
                        recheck_plan.append((unit, flipped, constraints))
            recheck_runs = self._execute_flips(
                [(c, f"chain {u}", "chain") for u, _, c in recheck_plan],
                phase="ca.recheck", units=[u for u, _, _ in recheck_plan])
            for (unit, flipped, _), run in zip(recheck_plan, recheck_runs):
                if run is None:  # pragma: no cover — rechecks never prune
                    continue
                runs[unit.uid] = (run, flipped)
            for unit in root:
                run, flipped = runs[unit.uid]
                executed = self._executed_set(run)
                for other in root:
                    if other.uid == unit.uid or other.uid in flipped:
                        continue
                    if not self._unit_occurred(other, executed):
                        edges.setdefault(unit.uid, set()).add(other.uid)

            chain = build_chain(root, edges, self.failure_run.failure,
                                ambiguous_unit_ids=ambiguous)
            chain_span.set(
                edges=sum(len(dsts) for dsts in edges.values()),
                races_in_chain=chain.race_count,
                ambiguous=chain.has_ambiguity)
        return CausalityResult(
            chain=chain, root_cause_units=root, benign_units=benign,
            ambiguous_uids=ambiguous, unflippable_units=unflippable,
            edges=edges, tests=tests, stats=self.stats)

    def _pick_nested(self, unit: RaceUnit,
                     flipped: Set[int]) -> Optional[RaceUnit]:
        """The innermost not-yet-flipped unit nested inside ``unit``'s
        span."""
        candidates = [
            v for v in self.units
            if v.uid not in flipped
            and unit.first_seq <= v.first_seq
            and v.last_seq <= unit.last_seq
            and (unit.first_seq < v.first_seq
                 or v.last_seq < unit.last_seq)
        ]
        if not candidates:
            return None
        # Canonical total-order key: innermost by first_seq as before,
        # ties broken by smallest last_seq (the tighter span) and then
        # smallest uid — previously ties fell back to list order, i.e.
        # the incidental unit enumeration.
        return max(candidates,
                   key=lambda v: (v.first_seq, -v.last_seq, -v.uid))
