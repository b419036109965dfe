"""Search-policy ablation: adaptive ordering + invariant pruning vs static.

Diagnoses every corpus bug three times — with the static policy, with
the full adaptive stack starting from an empty experience index that
accumulates in corpus order ("cold"), and with the adaptive stack primed
with the corpus-trained index ("warm") — and compares executed schedules
(LIFS + Causality Analysis).  Policies must never change the answer:
every run's diagnosis facts are asserted bit-identical to the static
baseline's.  Results land in ``benchmarks/output/bench_policy.json``
plus a rendered table.

Avoids the pytest-benchmark fixture so CI (pytest + hypothesis only)
can run it directly.  Set ``BENCH_POLICY_BUGS=<n>`` to restrict to the
first *n* corpus bugs (CI uses 3; subset runs write
``bench_policy.subset.json``); the >= 15% corpus-wide schedule
reduction floor is asserted only on the full corpus, bit-identity and
the pruning-fires check always.
"""

import os
import time

from conftest import emit, emit_json

from repro import api
from repro.analysis.tables import Table
from repro.corpus import registry
from repro.observe.tracer import Tracer
from repro.policy import ExperienceIndex


def _facts(diagnosis):
    """What the diagnosis *says* — policies may only change its cost.

    The bit-identity surface is chain, root-cause set and failure
    signature; benign races compare undirected, since their observed
    direction follows whichever minimal witness schedule LIFS
    reproduced first.
    """
    if not diagnosis.reproduced:
        return ("not-reproduced",)
    ca = diagnosis.ca_result
    benign = tuple(sorted(
        tuple(sorted(tuple(sorted((r.first.instr_label,
                                   r.second.instr_label)))
                     for r in u.races))
        for u in ca.benign_units))
    return (diagnosis.chain.render(),
            tuple(sorted(str(u) for u in ca.root_cause_units)),
            benign,
            str(diagnosis.lifs_result.failure_run.failure))


def _diagnose(bug, policy, experience=None):
    tracer = Tracer()  # sink-less: aggregates the policy.* counters
    started = time.perf_counter()
    diagnosis = api.diagnose(bug, policy=policy, experience=experience,
                             tracer=tracer)
    elapsed = time.perf_counter() - started
    return diagnosis, {
        "schedules": (diagnosis.total_lifs_schedules
                      + diagnosis.ca_schedules),
        "pruned": tracer.counters.get("policy.pruned", 0),
        "experience_hits": tracer.counters.get("policy.experience_hits", 0),
        "elapsed_s": elapsed,
    }


def test_policy_ablation():
    registry.load()
    bugs = list(registry.all_bugs())
    subset = int(os.environ.get("BENCH_POLICY_BUGS", "0"))
    if subset:
        bugs = bugs[:subset]

    # Pass 1+2 interleaved: static baseline, then cold adaptive with the
    # experience index accumulating in corpus order (api.diagnose
    # absorbs each reproduced diagnosis into the index it was given).
    cold_index = ExperienceIndex()
    rows = []
    for bug in bugs:
        static_diag, static = _diagnose(bug, "static")
        cold_diag, cold = _diagnose(bug, "adaptive", experience=cold_index)
        assert _facts(cold_diag) == _facts(static_diag), bug.bug_id
        rows.append({"bug": bug.bug_id, "facts": _facts(static_diag),
                     "static": static, "cold": cold})

    # Pass 3: warm — every bug sees the full corpus-trained index (a
    # frozen copy per run, so warm results are order-independent).
    trained = cold_index.snapshot()
    for bug, row in zip(bugs, rows):
        warm_diag, warm = _diagnose(
            bug, "adaptive",
            experience=ExperienceIndex.from_snapshot(trained))
        assert _facts(warm_diag) == row.pop("facts"), bug.bug_id
        row["warm"] = warm

    table = Table(
        "Search-policy ablation — executed schedules (LIFS + CA)",
        ["bug", "static", "adaptive cold", "adaptive warm",
         "warm pruned", "warm hits"])
    for row in rows:
        table.add_row(row["bug"], row["static"]["schedules"],
                      row["cold"]["schedules"], row["warm"]["schedules"],
                      row["warm"]["pruned"], row["warm"]["experience_hits"])
    total_static = sum(r["static"]["schedules"] for r in rows)
    total_cold = sum(r["cold"]["schedules"] for r in rows)
    total_warm = sum(r["warm"]["schedules"] for r in rows)
    warm_ratio = total_warm / max(1, total_static)
    table.add_row("TOTAL", total_static, total_cold, total_warm,
                  sum(r["warm"]["pruned"] for r in rows),
                  sum(r["warm"]["experience_hits"] for r in rows))
    emit("bench_policy", table.render()
         + f"\n\nwarm/static schedule ratio: {warm_ratio:.3f} "
         f"({(1 - warm_ratio) * 100:.1f}% reduction)",
         subset=bool(subset))

    payload = {
        "bugs": len(rows),
        "subset": bool(subset),
        "totals": {
            "schedules_static": total_static,
            "schedules_adaptive_cold": total_cold,
            "schedules_adaptive_warm": total_warm,
            "warm_ratio": round(warm_ratio, 3),
            "reduction_pct": round((1 - warm_ratio) * 100, 1),
            "pruned_warm": sum(r["warm"]["pruned"] for r in rows),
            "experience_features": len(ExperienceIndex.from_snapshot(
                trained)),
        },
        "per_bug": rows,
    }
    emit_json("bench_policy", payload, subset=bool(subset))

    # Invariant pruning must actually fire somewhere, even on the CI
    # subset — otherwise the ablation is vacuous.
    assert sum(r["warm"]["pruned"] for r in rows) > 0
    # Adaptive never costs more than static...
    assert total_cold <= total_static
    assert total_warm <= total_static
    # ...and on the full corpus the acceptance floor is a 15% reduction.
    if not subset:
        assert warm_ratio <= 0.85, (
            f"warm adaptive executed {total_warm} of {total_static} "
            f"static schedules ({warm_ratio:.3f} > 0.85)")
