"""Crash-report text format: the coredump side of the archival story.

Together with :mod:`repro.trace.ftrace` this makes a bug finder's output
fully serializable: the history as an ftrace log, the crash as the
kernel-log text below.  ``parse_crash_report`` recovers the structured
:class:`~repro.kernel.failures.CrashReport` AITIA consumes, so an
archived report can be re-diagnosed later.

Format (the first line is exactly ``str(failure)`` behind a ``BUG:``
prefix, like a real kernel oops header; the faulting address and object,
when the failure names them, follow as KASAN-style detail lines)::

    BUG: KASAN: use-after-free in A at A3: use-after-free write ...
    Buggy address: 0x100008
    Buggy object: irqfd
    Call trace:
      A: irqfd_assign+A2
      ...

Failures raised outside any thread (a memory leak found at the end of
the run) render an empty thread, ``in  at B1``; the location still
parses.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.kernel.failures import CrashReport, Failure, FailureKind


class CrashParseError(ValueError):
    """Malformed crash-report text."""


#: ``" in THREAD at LABEL"`` location suffix of a failure line (the
#: thread is empty for failures found outside any thread).
_LOCATION = re.compile(r"^ in (?P<thread>\S*) at (?P<label>[^:\s]+)")
_ADDR_PREFIX = "Buggy address: "
_OBJECT_PREFIX = "Buggy object: "


def render_crash_report(report: CrashReport) -> str:
    """Serialize a crash report as kernel-log text."""
    failure = report.failure
    lines = [f"BUG: {failure}"]
    if failure.data_addr is not None:
        lines.append(f"{_ADDR_PREFIX}{failure.data_addr:#x}")
    if failure.object_tag is not None:
        lines.append(f"{_OBJECT_PREFIX}{failure.object_tag}")
    for line in (report.kernel_log or "").splitlines():
        if line.startswith("BUG:"):
            continue  # avoid duplicating the header
        lines.append(line)
    return "\n".join(lines)


def _split_kind(header: str) -> tuple:
    """Match the longest failure-kind value prefixing the header (kind
    values themselves contain colons, e.g. "KASAN: use-after-free")."""
    best: Optional[FailureKind] = None
    for kind in FailureKind:
        if header.startswith(kind.value):
            if best is None or len(kind.value) > len(best.value):
                best = kind
    if best is None:
        raise CrashParseError(f"unknown failure kind in {header!r}")
    return best, header[len(best.value):]


def parse_crash_report(text: str) -> CrashReport:
    """Parse kernel-log text back into a structured crash report."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("BUG: "):
        raise CrashParseError("missing 'BUG:' header")
    header = lines[0][len("BUG: "):]
    kind, rest = _split_kind(header)

    thread = label = ""
    match = _LOCATION.match(rest)
    if match is not None:
        thread = match.group("thread")
        label = match.group("label")
        rest = rest[match.end():]
    message = rest[2:] if rest.startswith(": ") else ""

    body = lines[1:]
    data_addr = object_tag = None
    if body and body[0].startswith(_ADDR_PREFIX):
        try:
            data_addr = int(body.pop(0)[len(_ADDR_PREFIX):], 16)
        except ValueError as exc:
            raise CrashParseError(f"bad buggy address: {exc}") from None
    if body and body[0].startswith(_OBJECT_PREFIX):
        object_tag = body.pop(0)[len(_OBJECT_PREFIX):]

    failure = Failure(kind=kind, thread=thread, instr_label=label,
                      message=message, data_addr=data_addr,
                      object_tag=object_tag)
    return CrashReport(failure=failure, kernel_log="\n".join(body))
