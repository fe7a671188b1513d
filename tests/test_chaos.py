"""Tests of the chaos harness (:mod:`repro.chaos`) and fsio shim layer.

Covers the three contracts the harness itself must honour: the fsio
wrappers are bit-identical pass-throughs when no shim is installed
(golden inertness), fault plans and campaign signatures are pure
functions of their seeds (determinism), and broken invariants are
*reported*, never swallowed (honest accounting).
"""

import json
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro import artifact, fsio, journal
from repro.chaos import (
    EXPERIMENTS,
    experiments,
    FAULT_KINDS,
    RESUMABLE,
    ChaosPlan,
    EnospcShim,
    SlowWriteShim,
    run_campaign,
)
from repro.cli import main
from repro.errors import (
    ChaosError,
    InvariantViolation,
    ManifestError,
    PersistenceError,
    TelemetryError,
)
from repro.exec import Supervisor, SweepManifest, Task
from repro.telemetry.events import EventSink

FAST_KINDS = ["abort_mid_sweep", "duplicated_manifest_lines",
              "reordered_manifest_lines", "slow_manifest_io",
              "journal_torn_tail", "journal_interior_corrupt",
              "journal_enospc_append"]
"""Journal kinds only — no forked workers, no training."""

FOLDED_KINDS = {
    "torn_final_manifest_line": ("journal_torn_tail", {"manifest"}),
    "eventsink_torn_line": ("journal_torn_tail", {"event-sink",
                                                  "read-events"}),
}
"""Replaced kinds, still checked by name: the kind that absorbed each,
run on the consumer rows the replaced kind used to attack."""


# --------------------------------------------------------------- fsio layer --

class TestFsioInertness:
    """With no shim installed every wrapper is the raw os call."""

    def test_no_shim_is_the_default(self):
        assert fsio._SHIM is None

    def test_file_write_matches_direct_write(self, tmp_path):
        via_fsio, direct = tmp_path / "a.txt", tmp_path / "b.txt"
        with via_fsio.open("w") as fh:
            fsio.file_write(fh, "line one\nline two\n", path=via_fsio)
        with direct.open("w") as fh:
            fh.write("line one\nline two\n")
        assert via_fsio.read_bytes() == direct.read_bytes()

    def test_os_write_matches_direct_write(self, tmp_path):
        via_fsio, direct = tmp_path / "a.bin", tmp_path / "b.bin"
        fd = os.open(str(via_fsio), os.O_WRONLY | os.O_CREAT)
        try:
            assert fsio.os_write(fd, b"payload", path=via_fsio) == 7
        finally:
            os.close(fd)
        direct.write_bytes(b"payload")
        assert via_fsio.read_bytes() == direct.read_bytes()

    def test_replace_moves_into_place(self, tmp_path):
        src, dst = tmp_path / "tmp", tmp_path / "final"
        src.write_bytes(b"x")
        dst.write_bytes(b"old")
        fsio.replace(src, dst)
        assert dst.read_bytes() == b"x" and not src.exists()

    def test_passthrough_shim_is_bit_identical(self, tmp_path):
        """A base FilesystemShim (all defaults) must not perturb any
        write — the golden guarantee the experiments rely on."""
        def sweep_into(directory):
            path = directory / "m.jsonl"
            Supervisor(manifest=SweepManifest(path)).run(
                [Task(key=f"t{i}", fn=(lambda i=i: {"i": i}),
                      spec={"i": i}) for i in range(3)])
            return path

        plain_dir = tmp_path / "plain"
        shim_dir = tmp_path / "shimmed"
        plain_dir.mkdir(), shim_dir.mkdir()
        plain = sweep_into(plain_dir)
        with fsio.shimmed(fsio.FilesystemShim()):
            shimmed = sweep_into(shim_dir)

        def stripped(path):  # timestamps differ; structure must not
            return [{k: v for k, v in json.loads(line).items()
                     if k not in ("created_unix", "completed_unix",
                                  "elapsed")}
                    for line in path.read_text().splitlines()]
        assert stripped(plain) == stripped(shimmed)


class TestShimInstallation:
    def test_double_install_raises(self):
        with fsio.shimmed(fsio.FilesystemShim()):
            with pytest.raises(ChaosError, match="already installed"):
                fsio.install_shim(fsio.FilesystemShim())
        assert fsio._SHIM is None

    def test_non_shim_rejected(self):
        with pytest.raises(ChaosError, match="subclass"):
            fsio.install_shim(object())

    def test_shimmed_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with fsio.shimmed(fsio.FilesystemShim()):
                raise RuntimeError("boom")
        assert fsio._SHIM is None


class TestEnospcShim:
    def test_tears_the_failing_write_then_keeps_failing(self, tmp_path):
        target = tmp_path / "victim.txt"
        shim = EnospcShim(fail_after_writes=2, partial_fraction=0.5,
                          match="victim")
        with fsio.shimmed(shim):
            with target.open("w") as fh:
                fsio.file_write(fh, "complete\n", path=target)
                with pytest.raises(OSError, match="No space left"):
                    fsio.file_write(fh, "12345678", path=target)
                with pytest.raises(OSError, match="No space left"):
                    fsio.file_write(fh, "more", path=target)
        assert shim.tripped
        assert target.read_text() == "complete\n1234"  # torn, not clean

    def test_untargeted_paths_are_untouched(self, tmp_path):
        bystander = tmp_path / "other.txt"
        with fsio.shimmed(EnospcShim(fail_after_writes=1, match="victim")):
            with bystander.open("w") as fh:
                fsio.file_write(fh, "fine", path=bystander)
        assert bystander.read_text() == "fine"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ChaosError):
            EnospcShim(fail_after_writes=0)
        with pytest.raises(ChaosError):
            EnospcShim(fail_after_writes=1, partial_fraction=1.0)


class TestSlowWriteShim:
    def test_stalls_but_preserves_data(self, tmp_path):
        target = tmp_path / "slow.txt"
        shim = SlowWriteShim(0.02, match="slow")
        start = time.monotonic()
        with fsio.shimmed(shim):
            with target.open("w") as fh:
                fsio.file_write(fh, "a\n", path=target)
                fsio.file_write(fh, "b\n", path=target)
        assert time.monotonic() - start >= 0.04
        assert target.read_text() == "a\nb\n"
        assert shim.intercepted == 2


# -------------------------------------------------------------------- plans --

class TestChaosPlan:
    def test_same_seed_same_plan(self):
        assert ChaosPlan.generate(7) == ChaosPlan.generate(7)

    def test_different_seeds_differ(self):
        assert ChaosPlan.generate(0) != ChaosPlan.generate(1)

    def test_params_are_json_scalars(self):
        for fault in ChaosPlan.generate(3).faults:
            json.dumps(fault.to_json())  # raises on anything exotic

    def test_kind_params_independent_of_selection(self):
        """Requesting fewer kinds must not perturb the others' params."""
        full = {f.kind: f.params for f in ChaosPlan.generate(5).faults}
        alone = ChaosPlan.generate(5, ["artifact_corrupt"]).faults[0]
        assert alone.params == full["artifact_corrupt"]

    def test_every_kind_scheduled_once(self):
        plan = ChaosPlan.generate(2)
        assert sorted(f.kind for f in plan.faults) == sorted(FAULT_KINDS)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ChaosError, match="unknown fault kind"):
            ChaosPlan.generate(0, ["no_such_fault"])

    def test_rejects_bad_seed_and_empty_kinds(self):
        with pytest.raises(ChaosError):
            ChaosPlan.generate(-1)
        with pytest.raises(ChaosError):
            ChaosPlan.generate(0, [])

    def test_registry_covers_every_kind(self):
        assert set(EXPERIMENTS) == set(FAULT_KINDS)
        assert set(RESUMABLE) == set(FAULT_KINDS)


# -------------------------------------------------------------- experiments --

class TestIndividualExperiments:
    """Each experiment verifies its invariant on hand-picked params."""

    @pytest.mark.parametrize("kind", FAST_KINDS + list(FOLDED_KINDS))
    def test_fast_kind_holds_its_invariant(self, kind, tmp_path,
                                           monkeypatch):
        if kind in FOLDED_KINDS:
            kind, names = FOLDED_KINDS[kind]
            rows = tuple(r for r in experiments.JOURNAL_ROWS
                         if r.name in names)
            assert {r.name for r in rows} == names
            monkeypatch.setattr(experiments, "JOURNAL_ROWS", rows)
        fault = next(f for f in ChaosPlan.generate(0).faults
                     if f.kind == kind)
        outcome = EXPERIMENTS[kind](fault, tmp_path)
        assert outcome.kind == kind
        assert outcome.detected
        assert outcome.resumable == RESUMABLE[kind]
        if outcome.resumable:
            assert outcome.recovered
            assert outcome.recovery_seconds >= 0
        else:
            assert outcome.recovered is None


# ----------------------------------------------------------------- campaign --

class TestCampaign:
    def test_fast_campaign_is_clean(self, tmp_path):
        report = run_campaign(seeds=2, kinds=FAST_KINDS, workdir=tmp_path)
        assert report.clean
        assert report.detection_rate == 1.0
        assert report.recovery_rate == 1.0
        assert report.faults == 2 * len(FAST_KINDS)
        assert report.latency.count > 0

    def test_signature_is_deterministic(self):
        kinds = ["duplicated_manifest_lines", "journal_torn_tail"]
        first = run_campaign(seeds=2, kinds=kinds)
        second = run_campaign(seeds=2, kinds=kinds)
        assert first.signature() == second.signature()

    def test_report_json_round_trips(self):
        report = run_campaign(seeds=1, kinds=["reordered_manifest_lines"])
        decoded = json.loads(json.dumps(report.to_json()))
        assert decoded["totals"]["faults"] == 1
        assert decoded["detection_rate"] == 1.0
        assert decoded["per_kind"]["reordered_manifest_lines"]["runs"] == 1

    def test_render_summarises(self):
        report = run_campaign(seeds=1, kinds=["duplicated_manifest_lines"])
        text = report.render()
        assert "detected : 1/1" in text
        assert "duplicated_manifest_lines" in text

    def test_violation_is_recorded_not_raised(self, monkeypatch):
        """A broken invariant becomes a finding; the campaign finishes."""
        def broken(fault, workdir):
            raise InvariantViolation("planted violation")
        monkeypatch.setitem(EXPERIMENTS, "duplicated_manifest_lines",
                            broken)
        report = run_campaign(
            seeds=1, kinds=["duplicated_manifest_lines",
                            "reordered_manifest_lines"])
        assert not report.clean
        assert report.detection_rate == 0.5
        assert [v["kind"] for v in report.violations] == \
            ["duplicated_manifest_lines"]
        assert "planted violation" in report.render()

    def test_escaping_structured_error_is_a_violation(self, monkeypatch):
        """A consumer regression that raises its own ReproError is a
        finding too; the campaign still runs the next kind."""
        def regressed(fault, workdir):
            raise ManifestError("sweep.jsonl:6: corrupt manifest record")
        monkeypatch.setitem(EXPERIMENTS, "duplicated_manifest_lines",
                            regressed)
        report = run_campaign(
            seeds=1, kinds=["duplicated_manifest_lines",
                            "reordered_manifest_lines"])
        assert report.faults == 2 and report.detected == 1
        assert [v["kind"] for v in report.violations] == \
            ["duplicated_manifest_lines"]

    def test_harness_misconfiguration_still_raises(self, monkeypatch):
        def misconfigured(fault, workdir):
            raise ChaosError("bad fault parameters")
        monkeypatch.setitem(EXPERIMENTS, "duplicated_manifest_lines",
                            misconfigured)
        with pytest.raises(ChaosError, match="bad fault parameters"):
            run_campaign(seeds=1, kinds=["duplicated_manifest_lines"])

    def test_rejects_bad_seed_count(self):
        with pytest.raises(ChaosError):
            run_campaign(seeds=0)


def _skip_table_digest(real):
    def verify(path, what, actual, recorded):
        if what != "table":
            real(path, what, actual, recorded)
    return verify


def _refuse_instead_of_quarantine(real):
    def read(*args, **kwargs):
        return real(*args, **dict(kwargs, quarantine=False))
    return read


def _write_in_place(path, payload):
    try:
        with open(path, "wb") as fh:
            fsio.file_write(fh, payload, path=path)
    except OSError as exc:
        raise PersistenceError(f"{path}: cannot persist ({exc})") from exc


class TestPlantedDefects:
    """No rebuilt kind is vacuous: each flags one planted defect of the
    primitive it attacks, and the campaign still runs the next kind."""

    @pytest.mark.parametrize("kind, target, name, planted", [
        ("journal_torn_tail", journal, "_truncate",
         lambda real: lambda *args: None),
        ("journal_interior_corrupt", journal, "read",
         _refuse_instead_of_quarantine),
        ("artifact_corrupt", artifact, "_verify", _skip_table_digest),
        ("artifact_enospc", fsio, "atomic_write_bytes",
         lambda real: _write_in_place),
    ])
    def test_planted_defect_is_a_violation(self, monkeypatch, kind, target,
                                           name, planted):
        monkeypatch.setattr(target, name, planted(getattr(target, name)))
        report = run_campaign(seeds=1,
                              kinds=[kind, "duplicated_manifest_lines"])
        assert [v["kind"] for v in report.violations] == [kind]
        assert sorted(o.kind for _, o in report.outcomes) == \
            sorted([kind, "duplicated_manifest_lines"])
        assert report.detected == 1


def test_docs_catalog_lists_every_kind():
    text = (Path(__file__).resolve().parent.parent / "docs"
            / "ROBUSTNESS.md").read_text(encoding="utf-8")
    table = text.split("**Fault catalog")[1].split("\n\n")[1]
    kinds = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    assert tuple(kinds) == FAULT_KINDS


# ---------------------------------------------------------------------- cli --

class TestChaosCli:
    def test_clean_campaign_exits_zero_and_writes_report(self, tmp_path,
                                                         capsys):
        report_path = tmp_path / "report.json"
        code = main(["chaos", "--seeds", "1",
                     "--kinds", "duplicated_manifest_lines,artifact_enospc",
                     "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "detected : 2/2" in out
        decoded = json.loads(report_path.read_text())
        assert decoded["report"] == "chaos_campaign"
        assert decoded["totals"]["violations"] == 0

    def test_violation_exits_one(self, monkeypatch, capsys):
        def broken(fault, workdir):
            raise InvariantViolation("planted violation")
        monkeypatch.setitem(EXPERIMENTS, "reordered_manifest_lines",
                            broken)
        code = main(["chaos", "--seeds", "1",
                     "--kinds", "reordered_manifest_lines"])
        assert code == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_escaping_structured_error_exits_one(self, monkeypatch,
                                                 capsys):
        def regressed(fault, workdir):
            raise ManifestError("sweep.jsonl:6: corrupt manifest record")
        monkeypatch.setitem(EXPERIMENTS, "journal_torn_tail", regressed)
        code = main(["chaos", "--seeds", "1", "--kinds",
                     "journal_torn_tail,duplicated_manifest_lines"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION seed=0 journal_torn_tail" in out
        assert "duplicated_manifest_lines  1/1 detected" in out

    def test_unknown_kind_is_a_clean_error(self, capsys):
        code = main(["chaos", "--seeds", "1", "--kinds", "nope"])
        assert code == 2
        assert "unknown fault kind" in capsys.readouterr().err


# ---------------------------------------------------- faulted layers (spot) --

class TestEventSinkUnderEnospc:
    def test_failed_append_is_structured_and_lossless(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventSink(path, run_id="t") as sink:
            sink.emit("log", level="WARNING", logger="t", message="one")
            with fsio.shimmed(EnospcShim(fail_after_writes=1,
                                         partial_fraction=0.0,
                                         match="events")):
                with pytest.raises(TelemetryError, match="cannot append"):
                    sink.emit("log", level="WARNING", logger="t",
                              message="two")
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + first event, nothing torn
        assert all(json.loads(line) for line in lines)


class TestManifestUnderEnospc:
    def test_failed_append_names_the_journal(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = SweepManifest(path)
        with fsio.shimmed(EnospcShim(fail_after_writes=1,
                                     partial_fraction=0.0,
                                     match="m.jsonl")):
            with pytest.raises(ManifestError, match="cannot append"):
                Supervisor(manifest=manifest).run(
                    [Task(key="a", fn=lambda: 1, spec={"n": 1})])
