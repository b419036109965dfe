"""Tests for the crash-report text format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import registry
from repro.corpus.registry import get_bug
from repro.kernel.failures import CrashReport, Failure, FailureKind
from repro.trace.crash import (
    CrashParseError,
    parse_crash_report,
    render_crash_report,
)
from repro.trace.syzkaller import run_bug_finder


#: One failure per kind, shaped the way the kernel raises it: faults
#: name the faulting address and object, a deadlock names neither, and
#: a leak is found after every thread finished, so it names no thread.
_KIND_FAILURES = {
    FailureKind.KASAN_UAF: Failure(
        FailureKind.KASAN_UAF, "A", "A3",
        "use-after-free write in irqfd (freed at K1)", 0x100008, "irqfd"),
    FailureKind.KASAN_OOB: Failure(
        FailureKind.KASAN_OOB, "B", "B3",
        "slab-out-of-bounds access in buf (offset 24, size 16)",
        0x100018, "buf"),
    FailureKind.GPF: Failure(
        FailureKind.GPF, "A", "A4", "NULL pointer dereference", 0),
    FailureKind.ASSERTION: Failure(
        FailureKind.ASSERTION, "kworker/flush#3", "K2",
        "schedule_bh: bottom half without ready mark"),
    FailureKind.MEMORY_LEAK: Failure(
        FailureKind.MEMORY_LEAK, "", "B1",
        "object filter allocated at B1 was never freed",
        object_tag="filter"),
    FailureKind.DEADLOCK: Failure(
        FailureKind.DEADLOCK, "A", "A2",
        "threads hung: A, B (A->l1, B->l2)"),
    FailureKind.DOUBLE_FREE: Failure(
        FailureKind.DOUBLE_FREE, "A", "A3", "double free of n_hdlc_buf",
        0x100000, "n_hdlc_buf"),
}


class TestRoundTrip:
    def _report(self, kind=FailureKind.KASAN_UAF):
        failure = Failure(kind=kind, thread="A", instr_label="A3",
                          message="use-after-free write in irqfd")
        return CrashReport(failure=failure,
                           kernel_log="Call trace:\n  A: irqfd_assign+A2")

    def test_simple_round_trip(self):
        original = self._report()
        parsed = parse_crash_report(render_crash_report(original))
        assert parsed.symptom is original.symptom
        assert parsed.location == original.location
        assert parsed.failure.thread == "A"
        assert parsed.failure.message == original.failure.message
        assert "Call trace:" in parsed.kernel_log

    @pytest.mark.parametrize("kind", list(FailureKind))
    def test_every_failure_kind_round_trips(self, kind):
        parsed = parse_crash_report(render_crash_report(self._report(kind)))
        assert parsed.symptom is kind

    @pytest.mark.parametrize("kind", list(FailureKind))
    def test_every_failure_kind_parses_to_an_equal_failure(self, kind):
        failure = _KIND_FAILURES[kind]
        text = render_crash_report(CrashReport(failure=failure))
        assert text.splitlines()[0] == f"BUG: {failure}"
        assert parse_crash_report(text).failure == failure

    def test_every_corpus_failure_parses_to_an_equal_failure(self):
        registry.load()
        bugs = (registry.all_bugs() + registry.figure_examples()
                + registry.extension_bugs())
        for bug in bugs:
            crash = run_bug_finder(bug).crash
            parsed = parse_crash_report(render_crash_report(crash))
            assert parsed.failure == crash.failure, bug.bug_id

    def test_failure_without_location(self):
        failure = Failure(kind=FailureKind.MEMORY_LEAK,
                          message="object filter was never freed")
        parsed = parse_crash_report(
            render_crash_report(CrashReport(failure=failure)))
        assert parsed.symptom is FailureKind.MEMORY_LEAK
        assert parsed.location == ""
        assert "never freed" in parsed.failure.message

    def test_syzkaller_report_round_trips(self):
        bug = get_bug("SYZ-04")
        report = run_bug_finder(bug).crash
        parsed = parse_crash_report(render_crash_report(report))
        assert parsed.symptom is report.symptom
        assert parsed.location == report.location

    def test_parsed_report_drives_diagnosis(self):
        """An archived crash report must still target the diagnosis."""
        from repro.core.diagnose import Aitia

        bug = get_bug("SYZ-04")
        syz = run_bug_finder(bug)
        syz.crash = parse_crash_report(render_crash_report(syz.crash))
        diagnosis = Aitia(bug, report=syz).diagnose()
        assert diagnosis.reproduced
        assert diagnosis.chain.contains_race_between("K1", "A2")

    def test_header_not_duplicated(self):
        bug = get_bug("SYZ-04")
        report = run_bug_finder(bug).crash  # kernel_log starts with BUG:
        text = render_crash_report(report)
        assert text.count("BUG:") == 1


class TestParseErrors:
    def test_missing_header(self):
        with pytest.raises(CrashParseError, match="BUG"):
            parse_crash_report("KASAN: use-after-free in A at A3")

    def test_unknown_kind(self):
        with pytest.raises(CrashParseError, match="unknown failure kind"):
            parse_crash_report("BUG: exploded spectacularly in A at A3")

    def test_empty_text(self):
        with pytest.raises(CrashParseError):
            parse_crash_report("")

    @pytest.mark.parametrize("header", [
        "BUG:KASAN: use-after-free in A at A3",  # missing space
        " BUG: KASAN: use-after-free in A at A3",  # leading whitespace
        "bug: KASAN: use-after-free in A at A3",  # wrong case
        "OOPS: KASAN: use-after-free in A at A3",  # wrong tag
    ])
    def test_malformed_headers(self, header):
        with pytest.raises(CrashParseError, match="BUG"):
            parse_crash_report(header)

    def test_empty_header_body(self):
        with pytest.raises(CrashParseError, match="unknown failure kind"):
            parse_crash_report("BUG: ")

    def test_bad_buggy_address(self):
        with pytest.raises(CrashParseError, match="buggy address"):
            parse_crash_report("BUG: KASAN: use-after-free in A at A3\n"
                               "Buggy address: 0xzz")

    def test_header_only_whitespace_after_tag(self):
        with pytest.raises(CrashParseError):
            parse_crash_report("BUG:    \nCall trace:\n  A: f+A1")


class TestMissingCallTrace:
    """A report whose log lacks the ``Call trace:`` section still parses;
    downstream consumers (the triage signature) fall back to
    kind + location."""

    def test_parses_without_call_trace(self):
        parsed = parse_crash_report(
            "BUG: KASAN: use-after-free in A at A3: boom\nsome other log")
        assert parsed.symptom is FailureKind.KASAN_UAF
        assert parsed.location == "A3"
        assert "Call trace:" not in parsed.kernel_log

    def test_signature_survives_missing_call_trace(self):
        from repro.service.signature import signature_of

        with_trace = parse_crash_report(
            "BUG: KASAN: use-after-free in A at A3: boom\n"
            "Call trace:\n  A: f+A3")
        without = parse_crash_report(
            "BUG: KASAN: use-after-free in A at A3: boom")
        assert signature_of(without).kind == signature_of(with_trace).kind
        assert signature_of(without).location == "A3"
        # frames differ, so the digests must too — a trace-less report
        # is not silently merged with a traced one
        assert signature_of(without).digest != signature_of(with_trace).digest


# -- property: render -> parse -> render is a fixed point ---------------
_NAME = st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu"),
                                       max_codepoint=0x7F),
                min_size=1, max_size=8)
_LABEL = _NAME.map(lambda s: s + "1")
_MESSAGE = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs"),
                           max_codepoint=0x7F),
    max_size=40).map(str.strip)


@st.composite
def _failures(draw):
    kind = draw(st.sampled_from(list(FailureKind)))
    located = draw(st.booleans())
    thread = draw(_NAME | st.just("")) if located else ""
    label = draw(_LABEL) if located else ""
    return Failure(kind=kind, thread=thread, instr_label=label,
                   message=draw(_MESSAGE),
                   data_addr=draw(st.none() | st.integers(0, 2 ** 48)),
                   object_tag=draw(st.none() | _NAME))


@st.composite
def _kernel_logs(draw):
    frames = draw(st.lists(
        st.tuples(_NAME, _NAME, _LABEL), max_size=4))
    if not frames:
        return ""
    lines = ["Call trace:"]
    lines.extend(f"  {proc}: {func}+{label}"
                 for proc, func, label in frames)
    return "\n".join(lines)


class TestRenderParseProperty:
    @settings(max_examples=200, deadline=None)
    @given(failure=_failures(), log=_kernel_logs())
    def test_render_parse_render_fixed_point(self, failure, log):
        report = CrashReport(failure=failure, kernel_log=log)
        text = render_crash_report(report)
        parsed = parse_crash_report(text)
        assert render_crash_report(parsed) == text
        assert parsed.failure == failure
        assert parsed.symptom is failure.kind
        assert parsed.location == failure.instr_label
        assert parsed.kernel_log == log
