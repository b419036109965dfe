"""The corpus workloads: a closed loop of in-process ``api.diagnose``.

One client diagnoses the 22 evaluated corpus bugs by id, one pass after
another; each pass visits the bugs in a new order drawn from the
workload seed.  ``corpus-static`` runs the default settings, the path
most users take.  ``corpus-adaptive-warm`` runs ``policy="adaptive"``
with priors from one untimed warm-up pass: each timed diagnosis gets a
fresh copy of that frozen index, so every pass sees the same priors and
the policy layer (ranking and invariant pruning) does the most work it
can, while the engine and kernel run far fewer schedules.

Every diagnosis is timed by a :class:`~clock.SpeedClock`; the reported
times are reference-speed times, and wall times are reported beside
them.

A traced run alternates untraced and traced passes: end-to-end numbers
come from the untraced ones only, per-layer numbers from the traced
ones, and the difference between the two is the tracing overhead.

Run as a script, this file makes one cold set-up in its own fresh
interpreter and prints its times as JSON::

    python3 perfbench/bench_corpus.py src
"""

import contextlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

import oracle
from clock import SpeedClock
from layers import LayerTrace

#: Cold set-ups per untraced run, each in a fresh interpreter, spread
#: over the run; the median is reported.  In one process the registry
#: and the imports are cached, so a repeated in-process set-up would
#: time a cache hit.
SETUP_REPS = 11
#: Adaptive warm-up passes per untraced run, spread over the run; the
#: median is reported.  A warm-up pass costs about as much as three warm
#: adaptive passes.
WARM_REPS = 5
#: Passes per untraced run at least, whatever ``--seconds`` allows.
MIN_PASSES = 5
SETUP_TIMEOUT_S = 120


def load_corpus():
    """The set-up a user pays before diagnosing: import the entry point,
    load the registry and assemble every evaluated bug's kernel image
    and boot machine.  Returns the bug ids."""
    from repro import api  # noqa: F401
    from repro.corpus import registry

    factories = registry.load()
    ids = [bug.bug_id for bug in registry.all_bugs()]
    for bug_id in ids:
        bug = factories[bug_id]()
        bug.image
        bug.machine_factory()
    return ids


def cold_setup():
    """(wall s, reference-speed s) of one cold set-up, made by this file
    run as a script in a fresh interpreter."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, os.path.abspath(__file__), src],
                          capture_output=True, text=True, check=True,
                          timeout=SETUP_TIMEOUT_S)
    times = json.loads(done.stdout.splitlines()[-1])
    return times["wall_s"], times["scaled_s"]


def gmean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _proxies(diagnosis):
    """(schedules, interpreted steps, invariant-pruned flips)."""
    lifs, ca = diagnosis.lifs_result, diagnosis.ca_result
    steps = lifs.stats.interpreted_steps if lifs else 0
    pruned = 0
    if ca is not None:
        steps += ca.stats.interpreted_steps
        pruned = sum(1 for test in ca.tests if test.note == "invariant-pruned")
    return (diagnosis.total_lifs_schedules + diagnosis.ca_schedules,
            steps, pruned)


def run(seed, seconds, traced, adaptive):
    from repro import api
    from repro.corpus import registry
    from repro.observe.tracer import Tracer
    from repro.policy import ExperienceIndex

    reference = oracle.load_reference()
    clock = SpeedClock()
    problems = []
    attempted = failed = 0
    setups, warms = [], []  # (wall s, reference-speed s)

    def check(bug_id, diagnosis):
        nonlocal attempted, failed
        found = oracle.check_diagnosis(registry.get_bug(bug_id), diagnosis,
                                       reference)
        attempted += 1
        failed += bool(found)
        problems.extend(found)

    def warm(ids):
        """One adaptive pass in corpus order; returns the frozen
        experience index it accumulated."""
        index = ExperienceIndex()
        timed = []
        clock.refresh()
        for bug_id in ids:
            timed.append(clock.call(api.diagnose, bug_id, policy="adaptive",
                                    experience=index))
        for bug_id, (diagnosis, _, _) in zip(ids, timed):
            check(bug_id, diagnosis)
        warms.append((sum(t[1] for t in timed), sum(t[2] for t in timed)))
        return index.snapshot()

    ids = load_corpus()
    frozen = warm(ids) if adaptive else None

    # Untimed: let per-process lazy set-up (imports on first use) finish.
    api.diagnose(ids[0])

    rng = random.Random(seed)
    latencies = {bug_id: [] for bug_id in ids}  # reference-speed s
    passes, traced_passes = [], []  # (wall s, reference-speed s)
    proxies = [0, 0, 0]
    trace = LayerTrace()
    counters = {}
    started = time.perf_counter()
    deadline = started + seconds
    min_passes = 2 if traced else MIN_PASSES
    while (len(passes) < min_passes or time.perf_counter() < deadline
           or (traced and len(traced_passes) < len(passes))):
        order = list(ids)
        rng.shuffle(order)
        tracing = traced and len(passes) > len(traced_passes)
        tracer = Tracer() if tracing else None
        experiences = ([ExperienceIndex.from_snapshot(frozen) for _ in order]
                       if adaptive else [None] * len(order))
        timed = []
        clock.refresh()
        with trace if tracing else contextlib.nullcontext():
            for bug_id, experience in zip(order, experiences):
                kwargs = ({"policy": "adaptive", "experience": experience}
                          if adaptive else {})
                timed.append(clock.call(api.diagnose, bug_id, tracer=tracer,
                                        **kwargs))
        for bug_id, (diagnosis, _, _) in zip(order, timed):
            check(bug_id, diagnosis)
        one_pass = (sum(t[1] for t in timed), sum(t[2] for t in timed))
        if tracing:
            traced_passes.append(one_pass)
            for name, value in tracer.counters.items():
                counters[name] = counters.get(name, 0) + value
            continue
        passes.append(one_pass)
        for bug_id, (_, _, scaled) in zip(order, timed):
            latencies[bug_id].append(scaled)
        for i, value in enumerate(map(sum, zip(*(_proxies(t[0])
                                                 for t in timed)))):
            proxies[i] += value
        if traced:
            continue
        # Set-up repetitions, spread over the run; their time does not
        # count against the measured seconds.
        elapsed = time.perf_counter() - started
        began = time.perf_counter()
        if len(setups) < SETUP_REPS and elapsed >= len(setups) * seconds \
                / SETUP_REPS:
            setups.append(cold_setup())
        if adaptive and len(warms) < WARM_REPS and elapsed >= len(warms) \
                * seconds / WARM_REPS:
            warm(ids)
        paused = time.perf_counter() - began
        started += paused
        deadline += paused
    while not traced and (len(setups) < SETUP_REPS
                          or (adaptive and len(warms) < WARM_REPS)):
        if len(setups) < SETUP_REPS:
            setups.append(cold_setup())
        if adaptive and len(warms) < WARM_REPS:
            warm(ids)

    # Per bug, the mean latency over the run: a full cyclic garbage
    # collection (about 27 ms on the 2-core VM the benchmark was tuned
    # on) lands on whichever diagnosis crosses the threshold, so the
    # slowest bugs' latencies are bimodal and their median flips between
    # the modes from run to run.  The mean charges
    # each bug its share of collections, as the pass time does.
    mean_ms = sorted(1000 * statistics.fmean(v) for v in latencies.values())
    scaled_passes = [scaled for _, scaled in passes]
    e2e = {
        "pass_s": statistics.median(scaled_passes),
        "diag_gmean_ms": gmean(mean_ms),
        "diag_slowest_ms": mean_ms[-1],
        "setup_s": (statistics.median(s for _, s in setups)
                    + (statistics.median(s for _, s in warms)
                       if adaptive else 0.0)) if setups else 0.0,
    }
    count = len(passes)
    report = {
        "passes": count,
        "pass_s": e2e["pass_s"],
        "wall_pass_s": statistics.median(wall for wall, _ in passes),
        "reference_p50_ms": 1000 * statistics.median(clock.references),
        "schedules_per_pass": proxies[0] / count,
        "interpreted_steps_per_pass": proxies[1] / count,
        "pruned_flips_per_pass": proxies[2] / count,
    }
    result = {"attempted": attempted, "failed": failed,
              "problems": problems, "e2e": e2e, "report": report,
              "samples": {"passes": passes, "latencies": latencies,
                          "setups": setups, "warms": warms,
                          "traced_passes": traced_passes}}
    if traced:
        result["layers"] = _layer_metrics(trace, counters, traced_passes,
                                          passes)
    return result


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_metrics(trace, counters, traced_passes, passes):
    """Per-pass means of the traced passes' self times and counts."""
    n = len(traced_passes)
    s, calls = trace.self_s, trace.calls
    c = counters
    traced_wall = sum(wall for wall, _ in traced_passes) / n
    # Time in no layer beneath the entry point: api.diagnose's own code.
    # A blocking step the wrappers miss between the entry point and the
    # search algorithms lands here; one missed below a wrapped layer
    # lands in that layer's self time instead.
    other = traced_wall - (trace.total_self_s() - s["api"]) / n
    untraced = statistics.median(scaled for _, scaled in passes)
    overhead = statistics.median(scaled for _, scaled in traced_passes) \
        - untraced
    return {
        "api.self_s": s["api"] / n,
        "lifs.self_s": s["lifs"] / n,
        "lifs.schedules": c.get("lifs.schedules", 0) / n,
        "lifs.equivalent_ratio": _ratio(c.get("lifs.equivalent", 0),
                                        c.get("lifs.schedules", 0)),
        "ca.self_s": s["ca"] / n,
        "ca.flips": c.get("ca.flips", 0) / n,
        "ca.schedules": c.get("ca.schedules", 0) / n,
        "ca.root_ratio": _ratio(c.get("ca.root_cause_units", 0),
                                c.get("ca.flips", 0)),
        "policy.self_s": s["policy"] / n,
        "policy.ranked": c.get("policy.ranked", 0) / n,
        "policy.pruned": c.get("policy.pruned", 0) / n,
        "policy.prune_ratio": _ratio(c.get("policy.pruned", 0),
                                     c.get("ca.flips", 0)),
        "engine.self_s": s["engine"] / n,
        "engine.requests": c.get("engine.requests", 0) / n,
        "engine.dedup_hits": c.get("engine.dedup_hits", 0) / n,
        "engine.resume_ratio": _ratio(
            c.get("snapshot.hits", 0) + c.get("ca.snapshot_hits", 0),
            c.get("engine.requests", 0)),
        "controller.self_s": s["controller"] / n,
        "controller.runs": calls["controller"] / n,
        "controller.per_run_us": 1e6 * _ratio(s["controller"],
                                              calls["controller"]),
        "controller.signature_s": s["signature"] / n,
        "kernel.step_s": s["kernel"] / n,
        "kernel.steps": calls["kernel"] / n,
        "kernel.ns_per_step": 1e9 * _ratio(s["kernel"], calls["kernel"]),
        "snapshot.s": (s["snapshot.capture"] + s["snapshot.restore"]) / n,
        "snapshot.captures": calls["snapshot.capture"] / n,
        "snapshot.restores": calls["snapshot.restore"] / n,
        "other.self_s": other,
        "other.share": _ratio(other, traced_wall),
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced,
    }


def main(src):
    """One cold set-up in this fresh interpreter."""
    sys.path.insert(0, src)
    clock = SpeedClock()
    _, wall, scaled = clock.call(load_corpus)
    print(json.dumps({"wall_s": wall, "scaled_s": scaled}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
