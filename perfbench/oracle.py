"""Correctness oracle: every diagnosis checked against ground truth.

Each corpus bug carries hand-written expectations (``bug_type``,
``expected_chain_pairs``, ``expect_ambiguity``) taken from the real
fix.  Every :class:`~repro.core.diagnose.Diagnosis` is checked against
all of them, plus the rule that no race Causality Analysis classified
benign appears in the chain.

Every diagnosis is also held to the repository's bit-identity contract:
its chain render must equal ``chains.json``, the render of the default
(static) diagnosis.  Since both workloads compare against the same file,
corpus-static and corpus-adaptive-warm agree with each other whenever
they both pass.

Regenerate ``chains.json`` only when a change is meant to alter
diagnoses, with::

    python3 perfbench/oracle.py

which refuses to write a render whose diagnosis fails ground truth.
"""

import json
import os
import sys

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "chains.json")


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def check_diagnosis(bug, diagnosis, reference):
    """Problems with one in-process diagnosis (empty when correct)."""
    if not diagnosis.reproduced:
        return [f"{bug.bug_id}: failure not reproduced"]
    problems = []
    kind = diagnosis.lifs_result.failure_run.failure.kind
    if kind is not bug.bug_type:
        problems.append(f"{bug.bug_id}: failure kind {kind} "
                        f"!= {bug.bug_type}")
    chain = diagnosis.chain
    for pair in bug.expected_chain_pairs:
        if not chain.contains_race_between(*pair):
            problems.append(f"{bug.bug_id}: chain lacks race {pair}")
    if chain.has_ambiguity != bug.expect_ambiguity:
        problems.append(f"{bug.bug_id}: ambiguity {chain.has_ambiguity} "
                        f"!= {bug.expect_ambiguity}")
    benign = {race.key for unit in diagnosis.ca_result.benign_units
              for race in unit.races}
    if any(race.key in benign for race in chain.races):
        problems.append(f"{bug.bug_id}: benign race in the chain")
    if reference is not None and chain.render() != reference[bug.bug_id]:
        problems.append(f"{bug.bug_id}: chain {chain.render()!r} != "
                        f"reference {reference[bug.bug_id]!r}")
    return problems


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from repro import api
    from repro.corpus import registry

    registry.load()
    chains, problems = {}, []
    for bug in registry.all_bugs():
        diagnosis = api.diagnose(bug.bug_id)
        problems += check_diagnosis(bug, diagnosis, None)
        if diagnosis.reproduced:
            chains[bug.bug_id] = diagnosis.chain.render()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(REFERENCE, "w") as fh:
        json.dump(chains, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(chains)} chains to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
