"""repro.engine — the unified schedule-execution engine.

One run service between "algorithm wants runs" and "hypervisor
interprets instructions".  LIFS and Causality Analysis emit
:class:`RunRequest`/:class:`RunPlan` values and consume
:class:`RunOutcome`\\ s; the :class:`ScheduleExecutionEngine` decides
*how* each schedule executes — snapshot resume/splice on a vehicle
machine, or a fresh boot per request when the caller's
``use_snapshots`` is off or a coverage-instrumented machine pins
snapshots off.  A diagnosis always runs in one process; parallelism
lives across diagnoses, in the job pool of the triage service.  See
docs/ARCHITECTURE.md.

* :mod:`repro.engine.protocol` — the request/plan/outcome vocabulary
  and :class:`EngineStats`;
* :mod:`repro.engine.engine`   — the engine itself.
"""

from repro.engine.engine import ScheduleExecutionEngine
from repro.engine.protocol import (
    CA_COUNTER_NAMES,
    LIFS_COUNTER_NAMES,
    EngineStats,
    RunOutcome,
    RunPlan,
    RunRequest,
)

__all__ = [
    "CA_COUNTER_NAMES",
    "LIFS_COUNTER_NAMES",
    "EngineStats",
    "RunOutcome",
    "RunPlan",
    "RunRequest",
    "ScheduleExecutionEngine",
]
