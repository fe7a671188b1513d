"""Tests of the command-line interface."""

import numpy as np
import pytest

from repro import cli
from repro.cli import main
from repro.control.rl_controller import build_rl_controller
from repro.cycles import standard_cycle
from repro.powertrain import PowertrainSolver
from repro.rl.persistence import save_policy
from repro.sim import Simulator, train
from repro.vehicle import default_vehicle


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


    def test_saves_the_policy_train_saves(self, tmp_path, capsys):
        """``repro train`` is ``train()`` with its default exploring starts
        and the ``--seed`` of both the controller and the start draws."""
        stem = tmp_path / "cli"
        assert main(["train", "--cycle", "SC03", "--episodes", "2",
                     "--repeats", "1", "--seed", "3",
                     "--save", str(stem)]) == 0
        solver = PowertrainSolver(default_vehicle())
        controller = build_rl_controller(solver, seed=3)
        train(Simulator(solver), controller, standard_cycle("SC03"),
              episodes=2, seed=3)
        save_policy(controller.agent, tmp_path / "lib")
        assert (stem.with_suffix(".rpa").read_bytes()
                == (tmp_path / "lib.rpa").read_bytes())


class _TrainCalled(Exception):
    """Stops a command at its training call (see the seed test below)."""


@pytest.mark.parametrize("command", ["train", "compare", "serve", "learn"])
def test_seed_reaches_the_exploring_starts(command, tmp_path, monkeypatch):
    seen = {}

    def fake_train(*args, **kwargs):
        seen.update(kwargs)
        raise _TrainCalled

    monkeypatch.setattr(cli, "train", fake_train)
    argv = [command, "--seed", "7"]
    if command in ("serve", "learn"):
        argv += ["--registry", str(tmp_path / "registry")]
    if command == "learn":
        argv += ["--workdir", str(tmp_path / "loop")]
    with pytest.raises(_TrainCalled):
        main(argv)
    assert seen["seed"] == 7


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


UNTRAINED = "warning: the RL controller is untrained"


class TestUntrainedPolicyWarning:
    """An RL controller without --policy drives a fresh Q-table: say so."""

    @pytest.fixture(scope="class")
    def policy(self, tmp_path_factory):
        stem = tmp_path_factory.mktemp("policy") / "p"
        controller = build_rl_controller(PowertrainSolver(default_vehicle()),
                                         seed=0)
        save_policy(controller.agent, stem)
        return str(stem)

    @pytest.mark.parametrize("command", [
        ["evaluate", "--controller", "rl"],
        ["evaluate", "--controller", "rl", "--guard"],
    ])
    def test_warns_without_policy(self, capsys, command):
        assert main(command + ["--cycle", "SC03", "--repeats", "1"]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1 and warnings[0].startswith(UNTRAINED)

    @pytest.mark.parametrize("command", [
        ["evaluate", "--controller", "rl"],
        ["evaluate", "--controller", "rl", "--guard"],
    ])
    def test_silent_with_policy(self, capsys, command, policy):
        assert main(command + ["--cycle", "SC03", "--repeats", "1",
                               "--policy", policy]) == 0
        assert UNTRAINED not in capsys.readouterr().err


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
        assert "safety report:" in out
        assert "final mode NOMINAL" in out

    def test_guard_report_healthy(self, capsys):
        assert main(["evaluate", "--cycle", "SC03", "--repeats", "1",
                     "--controller", "rule-based", "--guard"]) == 0
        out = capsys.readouterr().out
        assert "time in mode:" in out
        assert "transitions: none (stayed NOMINAL)" in out
        assert "guard events: none" in out

    def test_evaluate_guard_with_faults(self, capsys):
        assert main(["evaluate", "--cycle", "SC03", "--repeats", "1",
                     "--controller", "rule-based", "--guard",
                     "--faults", "limp_home"]) == 0
        out = capsys.readouterr().out
        assert "safety report:" in out
        assert "degraded mode:" in out

    def test_evaluate_guard_halt_prints_journal_and_exits_2(
            self, capsys, tmp_path):
        controller = build_rl_controller(PowertrainSolver(default_vehicle()),
                                         seed=0)
        controller.agent.learner.qtable.values[0, 0] = np.nan
        stem = tmp_path / "poisoned"
        save_policy(controller.agent, stem)
        assert main(["evaluate", "--cycle", "SC03", "--repeats", "1",
                     "--controller", "rl", "--policy", str(stem),
                     "--guard"]) == 2
        captured = capsys.readouterr()
        assert "[HALTED]" in captured.out
        assert "time in mode:" in captured.out
        assert "error: safety supervisor halted" in captured.err

    def test_guarded_sweep_adds_mode_columns(self, capsys):
        assert main(["sweep", "--cycle", "SC03", "--repeats", "1",
                     "--controllers", "rule-based",
                     "--scenarios", "aux_spike", "--guard"]) == 0
        out = capsys.readouterr().out
        assert "mode_f" in out
        assert "NOMINAL" in out


class TestServeFlags:
    @pytest.mark.parametrize("extra", [
        ["--shards", "2", "--swap", "9"],
        ["--shards", "2", "--canary", "7"],
        ["--shards", "2", "--canary-fraction", "0.2"],
        ["--shards", "2", "--telemetry", "t.jsonl"],
        ["--jobs", "2"],
        ["--canary-fraction", "0.2"],
    ], ids=lambda extra: " ".join(extra))
    def test_a_flag_the_run_would_ignore_is_refused(self, extra, tmp_path,
                                                    capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("refused flags must stop serve first")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "train", no_training)
        argv = ["serve", "--registry", str(tmp_path / "registry"),
                "--vehicles", "64", "--steps", "5",
                "--train-episodes", "1"] + extra
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        flag = next(arg for arg in extra if arg != "--shards"
                    and arg.startswith("--"))
        assert len(err) == 1
        assert err[0].startswith(f"error: {flag} has no effect")
        assert not (tmp_path / "t.jsonl").exists()


class TestRegistrySeeding:
    @pytest.mark.parametrize("command", ["serve", "learn"])
    def test_empty_registry_without_seeding_is_structured_error(
            self, command, tmp_path, capsys):
        argv = [command, "--registry", str(tmp_path / "registry"),
                "--train-episodes", "0"]
        if command == "learn":
            argv += ["--workdir", str(tmp_path / "loop")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "is empty and --train-episodes is 0" in err[0]
