"""Worker entries the daemon's drain loop dispatches jobs to.

The default is the triage service's real worker
(:func:`repro.service.triage.diagnose_job` — rebuild the crash, run
the full AITIA pipeline through :mod:`repro.engine`).  ``repro serve
--diagnoser module:function`` swaps in any other module-level callable
with the same ``payload dict → record dict`` contract; tests and load
benchmarks point it at :func:`stub_diagnose_job`, which answers
instantly (optionally sleeping ``REPRO_STUB_DELAY_S`` seconds to model
diagnosis cost) without touching the corpus registry.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional, Union

Diagnoser = Callable[[dict], dict]

#: Environment knob for :func:`stub_diagnose_job`: seconds to sleep per
#: job, modelling diagnosis cost in load and recovery tests.
STUB_DELAY_ENV = "REPRO_STUB_DELAY_S"


def default_diagnoser() -> Diagnoser:
    from repro.service.triage import diagnose_job
    return diagnose_job


def resolve_diagnoser(spec: Union[None, str, Diagnoser]) -> Diagnoser:
    """A worker callable from a config value.

    ``None`` → the real pipeline worker; a callable → itself; a
    ``"module:function"`` string → that attribute, imported.
    """
    if spec is None:
        return default_diagnoser()
    if callable(spec):
        return spec
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(
            f"diagnoser spec {spec!r} is not 'module:function'")
    import importlib
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError as exc:
        raise ValueError(f"{module_name!r} has no attribute {attr!r}") from exc
    if not callable(fn):
        raise ValueError(f"{spec!r} is not callable")
    return fn


def stub_diagnose_job(payload: dict,
                      delay_s: Optional[float] = None) -> dict:
    """Instant canned diagnosis — the load-test / smoke worker.

    Returns a record with the same shape as the real worker's so the
    store, the summary rendering, and the job-status endpoint all work
    unchanged.
    """
    if delay_s is None:
        delay_s = float(os.environ.get(STUB_DELAY_ENV, "0") or 0)
    if delay_s > 0:
        time.sleep(delay_s)
    bug_id = payload.get("bug_id", "?")
    return {"bug_id": bug_id, "mode": payload.get("mode", "artifact"),
            "row": {"bug_id": bug_id, "reproduced": True,
                    "chain": f"stub({payload.get('digest', '')})",
                    "lifs_schedules": 0, "ca_schedules": 0}}
