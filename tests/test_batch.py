"""Tests of the batch experiment runner in :mod:`repro.sim.batch`."""

import pytest

from repro.control import RuleBasedController
from repro.control.rl_controller import build_rl_controller
from repro.cycles import CycleSpec, synthesize
from repro.powertrain import PowertrainSolver
from repro.sim import BatchResult, Summary, run_batch
from repro.sim.results import EpisodeResult
from repro.vehicle import default_vehicle


@pytest.fixture(scope="module")
def cycle():
    return synthesize(CycleSpec("b", duration=100, mean_speed_kmh=24.0,
                                max_speed_kmh=48.0, stop_count=2, seed=61))


class TestSummary:
    def test_of_single_value(self):
        s = Summary.of([5.0])
        assert s.mean == 5.0
        assert s.std == 0.0
        assert s.count == 1

    def test_of_multiple(self):
        s = Summary.of([1.0, 3.0])
        assert s.mean == 2.0
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.std == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Summary.of([])

    def test_str_contains_mean(self):
        assert "2.00" in str(Summary.of([2.0]))


class TestRunBatch:
    def test_rule_based_batch_deterministic(self, cycle):
        batch = run_batch(
            lambda solver, seed: RuleBasedController(solver),
            lambda: PowertrainSolver(default_vehicle()),
            cycle, seeds=[0, 1], episodes=1)
        stats = batch.summarize()
        # Deterministic controller: zero spread across seeds.
        assert stats["total_fuel_g"].std == pytest.approx(0.0)
        assert stats["total_fuel_g"].count == 2

    def test_rl_batch_has_seed_spread(self, cycle):
        batch = run_batch(
            lambda solver, seed: build_rl_controller(solver, seed=seed),
            lambda: PowertrainSolver(default_vehicle()),
            cycle, seeds=[1, 2], episodes=3)
        stats = batch.summarize()
        assert stats["total_fuel_g"].count == 2
        # Different exploration seeds should not produce bit-identical fuel.
        assert stats["total_fuel_g"].std >= 0.0

    def test_rejects_empty_seeds(self, cycle):
        with pytest.raises(ValueError):
            run_batch(lambda s, seed: RuleBasedController(s),
                      lambda: PowertrainSolver(default_vehicle()),
                      cycle, seeds=[], episodes=1)

    def test_rejects_zero_episodes(self, cycle):
        with pytest.raises(ValueError):
            run_batch(lambda s, seed: RuleBasedController(s),
                      lambda: PowertrainSolver(default_vehicle()),
                      cycle, seeds=[0], episodes=0)

    def test_summarize_empty_batch_raises(self):
        with pytest.raises(ValueError):
            BatchResult().summarize()

    def test_forwards_repetition_seed_to_train(self, cycle, monkeypatch):
        """Regression: every repetition must train with its own seed.

        Before the fix, ``run_batch`` never passed ``seed`` to ``train``,
        so all repetitions drew the same exploring-start SoC sequence
        from seed 0 — silently narrowing the error bars the batch runner
        exists to report.
        """
        seen = []
        real_train = __import__("repro.sim.batch",
                                fromlist=["train"]).train

        def spy_train(simulator, controller, cycle, **kwargs):
            seen.append(kwargs.get("seed"))
            return real_train(simulator, controller, cycle, **kwargs)

        monkeypatch.setattr("repro.sim.batch.train", spy_train)
        run_batch(lambda solver, seed: RuleBasedController(solver),
                  lambda: PowertrainSolver(default_vehicle()),
                  cycle, seeds=[7, 11], episodes=1)
        assert seen == [7, 11]

    def test_rl_exploring_starts_differ_across_seeds(self, cycle):
        """The seed actually changes the training trajectory: with
        nonzero SoC jitter, repetitions started from different seeds must
        not train on bit-identical exploring starts."""
        batch = run_batch(
            lambda solver, seed: build_rl_controller(solver, seed=0),
            lambda: PowertrainSolver(default_vehicle()),
            cycle, seeds=[3, 4], episodes=2)
        a, b = batch.evaluations
        # Identical controller seed, different repetition seeds: any
        # difference can only come from the forwarded training seed.
        assert (a.total_fuel, a.final_soc) != (b.total_fuel, b.final_soc)

    def test_batch_reports_full_coverage(self, cycle):
        batch = run_batch(lambda s, seed: RuleBasedController(s),
                          lambda: PowertrainSolver(default_vehicle()),
                          cycle, seeds=[0, 1], episodes=1)
        assert batch.planned == 2
        assert batch.coverage == 1.0
        assert batch.failures == []
        assert all(isinstance(e, EpisodeResult) for e in batch.evaluations)


class TestDeterminism:
    def test_identical_batches_identical_summaries(self, cycle):
        make = lambda: run_batch(
            lambda solver, seed: RuleBasedController(solver),
            lambda: PowertrainSolver(default_vehicle()),
            cycle, seeds=[0], episodes=1)
        assert make().summarize() == make().summarize()
