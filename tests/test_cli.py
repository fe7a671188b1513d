"""Tests of the command-line interface."""

import pytest

from repro.cli import main


class TestCyclesCommand:
    def test_list(self, capsys):
        assert main(["cycles"]) == 0
        out = capsys.readouterr().out
        assert "UDDS" in out
        assert "HWFET" in out

    def test_export(self, tmp_path, capsys):
        out_path = tmp_path / "udds.csv"
        assert main(["cycles", "--export", "UDDS",
                     "--output", str(out_path)]) == 0
        assert out_path.exists()
        header = out_path.read_text().splitlines()[0]
        assert "time_s" in header

    def test_unknown_cycle_is_structured_error(self, tmp_path, capsys):
        assert main(["cycles", "--export", "NOPE",
                     "--output", str(tmp_path / "x.csv")]) == 2
        assert "unknown cycle" in capsys.readouterr().err


class TestTrainCommand:
    def test_train_and_save(self, tmp_path, capsys):
        stem = tmp_path / "policy"
        assert main(["train", "--cycle", "SC03", "--episodes", "2",
                     "--repeats", "1", "--save", str(stem)]) == 0
        assert stem.with_suffix(".rpa").exists()
        out = capsys.readouterr().out
        assert "greedy evaluation" in out


class TestEvaluateCommand:
    def test_rule_based(self, capsys):
        assert main(["evaluate", "--cycle", "SC03", "--repeats", "1",
                     "--controller", "rule-based"]) == 0
        out = capsys.readouterr().out
        assert "regen share" in out
        assert "mode share" in out

    def test_rl_with_saved_policy(self, tmp_path, capsys):
        stem = tmp_path / "p"
        main(["train", "--cycle", "SC03", "--episodes", "2",
              "--repeats", "1", "--save", str(stem)])
        assert main(["evaluate", "--cycle", "SC03", "--repeats", "1",
                     "--controller", "rl", "--policy", str(stem)]) == 0

    def test_thermostat(self, capsys):
        assert main(["evaluate", "--cycle", "SC03", "--repeats", "1",
                     "--controller", "thermostat"]) == 0


class TestCompareCommand:
    def test_compare_prints_ladder(self, capsys):
        assert main(["compare", "--cycle", "SC03", "--episodes", "2",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "rl (proposed)" in out
        assert "ecms" in out
        assert "thermostat" in out


class TestSweepCommand:
    def test_serial_sweep_reports_coverage(self, capsys):
        assert main(["sweep", "--cycle", "SC03", "--repeats", "1",
                     "--controllers", "rule-based",
                     "--scenarios", "aux_spike"]) == 0
        out = capsys.readouterr().out
        assert "Robustness sweep" in out
        assert "coverage: 2/2 runs, nothing quarantined" in out

    def test_parallel_sweep_with_manifest_and_resume(self, tmp_path,
                                                     capsys):
        manifest = tmp_path / "sweep.jsonl"
        argv = ["sweep", "--cycle", "SC03", "--repeats", "1",
                "--controllers", "rule-based", "--scenarios", "aux_spike",
                "--jobs", "2", "--retries", "1"]
        assert main(argv + ["--manifest", str(manifest)]) == 0
        first = capsys.readouterr().out
        assert manifest.exists()
        assert main(argv + ["--resume", str(manifest)]) == 0
        second = capsys.readouterr().out
        # The resumed sweep replays the manifest: identical table.
        assert second.splitlines()[-10:] == first.splitlines()[-10:]

    def test_zero_jobs_is_structured_error(self, capsys):
        assert main(["sweep", "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_resume_missing_manifest_is_structured_error(self, tmp_path,
                                                         capsys):
        assert main(["sweep",
                     "--resume", str(tmp_path / "missing.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_manifest_and_resume_conflict(self, tmp_path, capsys):
        assert main(["sweep", "--manifest", str(tmp_path / "a.jsonl"),
                     "--resume", str(tmp_path / "a.jsonl")]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_controller_is_structured_error(self, capsys):
        assert main(["sweep", "--controllers", "warp-drive"]) == 2
        assert "unknown controller" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_variant(self):
        with pytest.raises(SystemExit):
            main(["train", "--variant", "nope"])


class TestGuardCommands:
    def test_evaluate_with_guard_prints_summary(self, capsys):
        assert main(["evaluate", "--cycle", "SC03", "--repeats", "1",
                     "--controller", "rule-based", "--guard"]) == 0
        out = capsys.readouterr().out
        assert "guard:" in out
        assert "final mode NOMINAL" in out

    def test_guard_report_healthy(self, capsys):
        assert main(["guard-report", "--cycle", "SC03", "--repeats", "1",
                     "--controller", "rule-based"]) == 0
        out = capsys.readouterr().out
        assert "safety report:" in out
        assert "time in mode:" in out
        assert "NOMINAL" in out

    def test_guard_report_with_faults(self, capsys):
        assert main(["guard-report", "--cycle", "SC03", "--repeats", "1",
                     "--controller", "rule-based",
                     "--faults", "limp_home"]) == 0
        out = capsys.readouterr().out
        assert "safety report:" in out

    def test_guarded_sweep_adds_mode_columns(self, capsys):
        assert main(["sweep", "--cycle", "SC03", "--repeats", "1",
                     "--controllers", "rule-based",
                     "--scenarios", "aux_spike", "--guard"]) == 0
        out = capsys.readouterr().out
        assert "mode_f" in out
        assert "NOMINAL" in out
