"""Prefix-checkpoint engine speedup: snapshots on vs off over the corpus.

Runs the full diagnosis (LIFS + Causality Analysis) for every corpus bug
twice — once with the prefix-checkpoint engine (boot-checkpoint resume,
per-base checkpoints, continuation splicing) and once with the
``--no-snapshot`` ablation — and compares what the interpreter actually
executed (``interpreted_steps``).  Results land in
``benchmarks/output/bench_snapshot.json`` plus a rendered table.

Unlike the sibling benchmarks this one deliberately avoids the
pytest-benchmark fixture so CI (which installs only pytest + hypothesis)
can run it directly.  Set ``BENCH_SNAPSHOT_BUGS=<n>`` to restrict to the
first *n* corpus bugs (CI uses 3; subset runs write
``bench_snapshot.subset.json``); the >= 2x speedup floor is asserted
only on the full corpus, the never-slower invariant always.
"""

import os
import time

from conftest import emit, emit_json

from repro.analysis.tables import Table
from repro.core.causality import CaConfig
from repro.core.diagnose import Aitia
from repro.core.lifs import LifsConfig
from repro.corpus import registry


def _diagnose(bug, snapshots):
    started = time.perf_counter()
    diagnosis = Aitia(bug,
                      lifs_config=LifsConfig(use_snapshots=snapshots),
                      ca_config=CaConfig(use_snapshots=snapshots)
                      ).diagnose()
    elapsed = time.perf_counter() - started
    lifs, ca = diagnosis.lifs_result.stats, diagnosis.ca_result.stats
    return diagnosis, {
        "schedules": lifs.schedules_executed + ca.schedules_executed,
        "steps_executed": lifs.interpreted_steps + ca.interpreted_steps,
        "saved_steps": lifs.saved_steps + ca.saved_steps,
        "splices": lifs.snapshot_splices + ca.snapshot_splices,
        "elapsed_s": elapsed,
    }


def test_snapshot_speedup():
    registry.load()
    bugs = list(registry.all_bugs())
    subset = int(os.environ.get("BENCH_SNAPSHOT_BUGS", "0"))
    if subset:
        bugs = bugs[:subset]

    rows = []
    table = Table(
        "Prefix-checkpoint engine: interpreted steps, snapshots on vs off",
        ["bug", "schedules", "steps on", "steps off", "ratio", "splices"])
    for bug in bugs:
        on_diag, on = _diagnose(bug, True)
        off_diag, off = _diagnose(bug, False)
        # The engine is a pure perf optimisation: identical diagnoses.
        assert on_diag.chain.render() == off_diag.chain.render(), bug.bug_id
        assert on["schedules"] == off["schedules"], bug.bug_id
        ratio = off["steps_executed"] / max(1, on["steps_executed"])
        table.add_row(bug.bug_id, on["schedules"], on["steps_executed"],
                      off["steps_executed"], f"{ratio:.2f}x", on["splices"])
        rows.append({"bug": bug.bug_id, "on": on, "off": off,
                     "ratio": round(ratio, 3)})

    total_on = sum(r["on"]["steps_executed"] for r in rows)
    total_off = sum(r["off"]["steps_executed"] for r in rows)
    elapsed_on = sum(r["on"]["elapsed_s"] for r in rows)
    elapsed_off = sum(r["off"]["elapsed_s"] for r in rows)
    schedules = sum(r["on"]["schedules"] for r in rows)
    ratio = total_off / max(1, total_on)
    table.add_row("TOTAL", schedules, total_on, total_off,
                  f"{ratio:.2f}x",
                  sum(r["on"]["splices"] for r in rows))
    emit("bench_snapshot", table.render(), subset=bool(subset))

    payload = {
        "bugs": len(rows),
        "subset": bool(subset),
        "totals": {
            "schedules": schedules,
            "steps_executed_on": total_on,
            "steps_executed_off": total_off,
            "steps_ratio": round(ratio, 3),
            "schedules_per_sec_on": round(schedules / max(1e-9, elapsed_on),
                                          1),
            "schedules_per_sec_off": round(
                schedules / max(1e-9, elapsed_off), 1),
        },
        "per_bug": rows,
    }
    emit_json("bench_snapshot", payload, subset=bool(subset))

    # The engine must never interpret *more* than a fresh-boot run...
    assert total_on <= total_off
    # ...and on the full corpus the acceptance floor is a 2x reduction.
    if not subset:
        assert ratio >= 2.0, f"corpus steps ratio {ratio:.2f}x < 2x"
