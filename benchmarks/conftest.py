"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
rendered rows are emitted both to the real stdout (so they survive
pytest's capture and land in ``bench_output.txt``) and to
``benchmarks/output/<name>.txt`` for later inspection.  Runs restricted
to a subset of the corpus (the ``BENCH_*_BUGS`` knobs CI uses) write to
``<name>.subset.*`` instead, so they never overwrite the full-corpus
artifacts.

The expensive inputs — one full AITIA diagnosis per corpus bug — are
computed once per session and shared across benchmark modules.
"""

import json
import os
import sys

import pytest

from repro.core.diagnose import Aitia
from repro.corpus import registry

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def output_path(name: str, ext: str, subset: bool = False) -> str:
    """Where an artifact lands: ``output/<name>.<ext>`` for full-corpus
    runs, ``output/<name>.subset.<ext>`` for subset runs."""
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    stem = f"{name}.subset" if subset else name
    return os.path.join(OUTPUT_DIR, f"{stem}.{ext}")


def emit(name: str, text: str, subset: bool = False) -> None:
    """Print a rendered table past pytest's capture and save it."""
    banner = f"\n{'=' * 72}\n{text}\n{'=' * 72}\n"
    sys.__stdout__.write(banner)
    sys.__stdout__.flush()
    with open(output_path(name, "txt", subset), "w") as fh:
        fh.write(text + "\n")


def emit_json(name: str, payload: dict, subset: bool = False) -> None:
    """Save a benchmark's structured results next to its table."""
    with open(output_path(name, "json", subset), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


@pytest.fixture(scope="session")
def corpus_diagnoses():
    """bug_id -> (Bug, Diagnosis) for the 22 evaluated bugs."""
    registry.load()
    result = {}
    for bug in registry.all_bugs():
        result[bug.bug_id] = (bug, Aitia(bug).diagnose())
    return result


@pytest.fixture(scope="session")
def cve_diagnoses(corpus_diagnoses):
    return [(bug, d) for bug, d in corpus_diagnoses.values()
            if bug.source == "cve"]


@pytest.fixture(scope="session")
def syzkaller_diagnoses(corpus_diagnoses):
    return [(bug, d) for bug, d in corpus_diagnoses.values()
            if bug.source == "syzkaller"]
