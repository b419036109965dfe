"""The repro.api facade: parity with the legacy entrypoints, the
deprecation shims, and the unified CLI flag vocabulary."""

import pytest

import repro
from repro import api
from repro.cli import build_parser, main
from repro.core.diagnose import Aitia
from repro.corpus import registry


class TestVersion:
    def test_version_bumped(self):
        assert repro.__version__ == "2.0.0"

    def test_facade_reexported_at_top_level(self):
        assert repro.diagnose is api.diagnose
        assert repro.evaluate is api.evaluate
        assert repro.triage is api.triage
        assert repro.TriageReport is api.TriageReport


class TestDiagnoseParity:
    """api.diagnose must be a pure facade: same chain, same accounting
    as driving the Aitia orchestrator directly."""

    @pytest.mark.parametrize("bug_id", ["CVE-2017-15649", "SYZ-05"])
    def test_direct_diagnosis_identical(self, bug_id):
        bug = registry.get_bug(bug_id)
        legacy = Aitia(bug).diagnose()
        facade = api.diagnose(bug_id)  # resolves the id itself
        assert facade.reproduced == legacy.reproduced
        assert facade.chain.render() == legacy.chain.render()
        assert facade.total_lifs_schedules == legacy.total_lifs_schedules
        assert facade.ca_schedules == legacy.ca_schedules
        assert (facade.lifs_result.interleaving_count
                == legacy.lifs_result.interleaving_count)

    def test_accepts_bug_object(self):
        bug = registry.get_bug("SYZ-05")
        assert api.diagnose(bug).reproduced

    def test_explicit_report_skips_bug_finder(self):
        from repro.trace.syzkaller import run_bug_finder
        bug = registry.get_bug("SYZ-04")
        report = run_bug_finder(bug)
        facade = api.diagnose(bug, report=report)
        legacy = Aitia(bug, report=report).diagnose()
        assert facade.chain.render() == legacy.chain.render()


class TestEvaluateFacade:
    def test_evaluate_resolves_ids(self):
        evaluation = api.evaluate(["SYZ-05"])
        assert [r.bug_id for r in evaluation.rows] == ["SYZ-05"]
        assert evaluation.rows[0].reproduced


class TestTriageFacade:
    def test_corpus_subset_by_id(self, tmp_path):
        registry.load()
        report = api.triage(["SYZ-05", "SYZ-05"],
                            store=str(tmp_path / "store.jsonl"))
        # same bug twice → one unique signature, duplicates folded
        assert len(report.results) == 1
        assert report.results[0].duplicates == 1
        assert report.all_ok

    def test_store_path_becomes_cache(self, tmp_path):
        registry.load()
        store = str(tmp_path / "store.jsonl")
        first = api.triage(["SYZ-05"], store=store)
        assert first.results[0].outcome == "succeeded"
        second = api.triage(["SYZ-05"], store=store)
        assert second.results[0].outcome == "cache_hit"

    def test_intake_directory_source(self, tmp_path):
        from repro.service.artifacts import emit_artifact
        registry.load()
        intake = tmp_path / "intake"
        intake.mkdir()
        emit_artifact(registry.get_bug("SYZ-05"), str(intake))
        report = api.triage(str(intake))
        assert len(report.results) == 1
        assert report.all_ok


class TestDeprecationShimsRemoved:
    """The 1.x shims were dropped in 2.0: importing them must fail."""

    def test_triage_corpus_gone(self):
        with pytest.raises(ImportError):
            from repro.service.triage import triage_corpus  # noqa: F401

    def test_evaluate_bug_gone(self):
        with pytest.raises(ImportError):
            from repro.analysis.evaluation import evaluate_bug  # noqa: F401
        import repro.analysis
        assert "evaluate_bug" not in repro.analysis.__all__
        assert not hasattr(repro.analysis, "evaluate_bug")


class TestUnifiedCliFlags:
    def test_canonical_flags_parse_everywhere(self):
        parser = build_parser()
        ev = parser.parse_args(["evaluate", "--jobs", "3", "--trace",
                                "t.jsonl"])
        assert (ev.jobs, ev.trace) == (3, "t.jsonl")
        tr = parser.parse_args(["triage", "--corpus", "--jobs", "3",
                                "--timeout", "42", "--store", "s.jsonl",
                                "--trace", "t.jsonl"])
        assert (tr.jobs, tr.timeout, tr.store, tr.trace) == (
            3, 42.0, "s.jsonl", "t.jsonl")
        sv = parser.parse_args(["serve", "--jobs", "3", "--timeout", "42"])
        assert (sv.jobs, sv.timeout) == (3, 42.0)
        # evaluate jobs run unbounded: it takes no --timeout.
        with pytest.raises(SystemExit):
            parser.parse_args(["evaluate", "--timeout", "42"])
        dg = parser.parse_args(["diagnose", "SYZ-05", "--trace",
                                "t.jsonl"])
        assert dg.trace == "t.jsonl"

    def test_defaults_are_identical(self):
        parser = build_parser()
        ev = parser.parse_args(["evaluate"])
        tr = parser.parse_args(["triage", "--corpus"])
        sv = parser.parse_args(["serve"])
        assert ev.jobs == tr.jobs == sv.jobs == 1
        assert tr.timeout == sv.timeout == 300.0
        assert not hasattr(ev, "timeout")
        assert ev.trace is None and tr.trace is None

    def test_legacy_aliases_removed(self, capsys):
        parser = build_parser()
        for argv in (["evaluate", "--workers", "4"],
                     ["triage", "--corpus", "--result-store", "s.jsonl"],
                     ["triage", "--corpus", "--job-timeout", "9"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_aliases_hidden_from_help(self):
        import io
        from contextlib import redirect_stdout

        parser = build_parser()
        helps = []
        for argv in (["evaluate", "--help"], ["triage", "--help"]):
            buf = io.StringIO()
            with redirect_stdout(buf), pytest.raises(SystemExit):
                parser.parse_args(argv)
            helps.append(buf.getvalue())
        evaluate_help, triage_help = helps
        assert "--timeout" not in evaluate_help
        assert "--timeout" in triage_help
        for text in helps:
            assert "--jobs" in text
            assert "--workers" not in text
            assert "--job-timeout" not in text
            assert "--result-store" not in text

    def test_cli_trace_flag_end_to_end(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["diagnose", "SYZ-05", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        assert main(["trace-report", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "per-stage summary" in report
        assert "lifs.schedules" in report

    def test_trace_report_missing_file(self, capsys):
        assert main(["trace-report", "/nonexistent/t.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err


class TestEngineKnobs:
    """``snapshots`` / ``policy`` reach the engine through the stage
    configs: api keywords build the configs that are not given, and the
    CLI passes its flags straight through."""

    def test_explicit_config_wins_over_snapshots_kwarg(self):
        from repro.core.lifs import LifsConfig

        on = api.diagnose("SYZ-05", snapshots=True)
        assert on.lifs_result.stats.snapshot_hits > 0
        off = api.diagnose("SYZ-05", snapshots=True,
                           lifs=LifsConfig(use_snapshots=False))
        assert off.lifs_result.stats.snapshot_hits == 0
        assert off.chain.render() == on.chain.render()

    def test_defaults_are_snapshots_on_and_static(self):
        import inspect

        for func in (api.diagnose, api.evaluate):
            params = inspect.signature(func).parameters
            assert params["snapshots"].default is True
            assert params["policy"].default == "static"
        assert inspect.signature(api.triage).parameters[
            "policy"].default == "static"
        parser = build_parser()
        for argv in (["diagnose", "SYZ-05"], ["evaluate"]):
            args = parser.parse_args(argv)
            assert args.no_snapshot is False
            assert args.policy == "static"
        for argv in (["triage", "--corpus"], ["serve"]):
            assert parser.parse_args(argv).policy == "static"

    @pytest.mark.parametrize("flags,expected", [
        ([], "static"), (["--policy", "adaptive"], "adaptive")])
    def test_serve_passes_policy(self, monkeypatch, flags, expected):
        import repro.daemon.lifecycle as lifecycle

        seen = []
        monkeypatch.setattr(lifecycle, "run_daemon",
                            lambda config: seen.append(config) or 0)
        assert main(["serve", "--port", "0"] + flags) == 0
        assert seen[0].policy == expected

    @pytest.mark.parametrize("flags,expected", [
        ([], "static"), (["--policy", "adaptive"], "adaptive")])
    def test_triage_passes_policy(self, monkeypatch, capsys, flags,
                                  expected):
        import repro.service.triage as triage_module

        seen = []

        class RecordingService:
            def __init__(self, **kwargs):
                seen.append(kwargs)

        class EmptySummary:
            empty = True

        monkeypatch.setattr(triage_module, "TriageService",
                            RecordingService)
        monkeypatch.setattr(api, "triage",
                            lambda *args, **kwargs: EmptySummary())
        assert main(["triage", "--corpus", "--bugs", "SYZ-05"]
                    + flags) == 0
        assert seen[0]["policy"] == expected
