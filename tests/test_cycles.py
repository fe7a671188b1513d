"""Tests of the drive-cycle container, synthesis, statistics, and I/O."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cycles import (
    CycleSpec,
    DriveCycle,
    STANDARD_SPECS,
    compute_stats,
    save_csv,
    standard_cycle,
    synthesize,
)
from repro.cycles.stats import count_stops
from repro.errors import CycleError
from repro.units import kmh_to_ms


class TestDriveCycle:
    def test_rejects_short_trace(self):
        with pytest.raises(ValueError):
            DriveCycle("x", np.array([1.0]))

    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            DriveCycle("x", np.array([1.0, -0.1, 0.0]))

    @pytest.mark.parametrize("speeds, grades", [
        ([0.0, np.nan, 1.0], None),
        ([0.0, np.inf, 1.0], None),
        ([0.0, 1.0, 1.0], [0.0, np.nan, 0.0]),
        ([0.0, 1.0, 1.0], [0.0, -np.inf, 0.0]),
    ])
    def test_rejects_non_finite_trace(self, speeds, grades):
        with pytest.raises(CycleError, match="finite"):
            DriveCycle("x", np.array(speeds),
                       grades=None if grades is None else np.array(grades))

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            DriveCycle("x", np.array([0.0, 1.0]), dt=0.0)

    def test_rejects_mismatched_grades(self):
        with pytest.raises(ValueError):
            DriveCycle("x", np.zeros(5), grades=np.zeros(4))

    def test_duration_and_times(self):
        c = DriveCycle("x", np.zeros(11), dt=2.0)
        assert c.duration == pytest.approx(20.0)
        assert c.times[-1] == pytest.approx(20.0)

    def test_distance_trapezoidal(self):
        c = DriveCycle("x", np.array([0.0, 10.0, 10.0, 0.0]))
        assert c.distance == pytest.approx(5.0 + 10.0 + 5.0)

    def test_accelerations_forward_difference(self):
        c = DriveCycle("x", np.array([0.0, 2.0, 2.0, 0.0]))
        assert list(c.accelerations) == [2.0, 0.0, -2.0, 0.0]

    def test_steps_count(self):
        c = DriveCycle("x", np.zeros(10))
        assert len(list(c.steps())) == 9

    def test_steps_yield_speed_accel_grade(self):
        c = DriveCycle("x", np.array([0.0, 3.0, 3.0]),
                       grades=np.array([0.0, 0.01, 0.01]))
        v, a, g = next(iter(c.steps()))
        assert (v, a, g) == (0.0, 3.0, 0.0)

    def test_repeat_seamless(self):
        c = DriveCycle("x", np.array([0.0, 5.0, 2.0, 0.0]))
        r = c.repeat(3)
        assert len(r) == 4 + 3 + 3
        assert r.distance == pytest.approx(3 * c.distance)

    def test_repeat_rejects_zero(self):
        c = DriveCycle("x", np.zeros(4))
        with pytest.raises(ValueError):
            c.repeat(0)

    def test_slice(self):
        c = DriveCycle("x", np.arange(10.0))
        s = c.slice(2, 6)
        assert list(s.speeds) == [2.0, 3.0, 4.0, 5.0]


class TestSynthesis:
    @pytest.mark.parametrize("name", sorted(STANDARD_SPECS))
    def test_standard_cycles_match_spec(self, name):
        spec = STANDARD_SPECS[name]
        cycle = standard_cycle(name)
        stats = compute_stats(cycle)
        assert stats.duration == pytest.approx(spec.duration, abs=1.5)
        assert stats.max_speed_kmh == pytest.approx(spec.max_speed_kmh,
                                                    rel=0.02)
        assert stats.mean_speed_kmh == pytest.approx(spec.mean_speed_kmh,
                                                     rel=0.10)
        assert stats.max_acceleration <= spec.accel_max * 1.25
        assert stats.max_deceleration <= spec.decel_max * 1.25

    def test_deterministic(self):
        a = standard_cycle("UDDS")
        b = standard_cycle("UDDS")
        assert np.array_equal(a.speeds, b.speeds)

    def test_starts_and_ends_at_rest(self):
        for name in STANDARD_SPECS:
            c = standard_cycle(name)
            assert c.speeds[0] == 0.0
            assert c.speeds[-1] == 0.0

    @pytest.mark.parametrize("name", sorted(STANDARD_SPECS))
    def test_builtin_equals_fresh_synthesis(self, name):
        cycle = standard_cycle(name)
        fresh = synthesize(STANDARD_SPECS[name])
        assert cycle.name == fresh.name
        assert cycle.dt == fresh.dt
        for got, want in ((cycle.speeds, fresh.speeds),
                          (cycle.grades, fresh.grades)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(STANDARD_SPECS))
    def test_builtin_traces_are_read_only(self, name):
        cycle = standard_cycle(name)
        for trace in (cycle.speeds, cycle.grades):
            with pytest.raises(ValueError):
                trace[0] = 1.0
            with pytest.raises(ValueError):
                trace += 1.0
        assert standard_cycle(name).speeds[0] == 0.0

    def test_synthesised_once_per_name(self, monkeypatch):
        from repro.cycles import standard

        calls = []

        def counting(spec):
            calls.append(spec.name)
            return synthesize(spec)

        monkeypatch.setattr(standard, "_SYNTHESISED", {})
        monkeypatch.setattr(standard, "synthesize", counting)
        cycles = [standard_cycle(name) for name in ("udds", "UDDS", "Udds")]
        cycles.append(standard_cycle("NYCC"))
        cycles.append(standard_cycle("nycc"))
        assert calls == ["UDDS", "NYCC"]
        assert len({id(c) for c in cycles}) == len(cycles)
        cycles[0].name = "renamed"
        assert standard_cycle("UDDS").name == "UDDS"

    def test_unknown_cycle_raises(self):
        with pytest.raises(KeyError):
            standard_cycle("NOPE")

    def test_case_insensitive(self):
        assert standard_cycle("udds").name == "UDDS"

    def test_urban_more_transient_than_highway(self):
        urban = compute_stats(standard_cycle("UDDS"))
        highway = compute_stats(standard_cycle("HWFET"))
        assert urban.kinetic_intensity > 2.0 * highway.kinetic_intensity
        assert urban.stop_count > highway.stop_count

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CycleSpec("x", duration=30, mean_speed_kmh=30, max_speed_kmh=60,
                      stop_count=2)
        with pytest.raises(ValueError):
            CycleSpec("x", duration=600, mean_speed_kmh=70, max_speed_kmh=60,
                      stop_count=2)
        with pytest.raises(ValueError):
            CycleSpec("x", duration=600, mean_speed_kmh=30, max_speed_kmh=60,
                      stop_count=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=15),
           st.integers(min_value=0, max_value=10_000))
    def test_synthesis_always_valid(self, stops, seed):
        spec = CycleSpec("rand", duration=400, mean_speed_kmh=25.0,
                         max_speed_kmh=70.0, stop_count=stops, seed=seed)
        cycle = synthesize(spec)
        assert np.all(cycle.speeds >= 0.0)
        assert cycle.max_speed <= kmh_to_ms(70.0) + 1e-9
        assert len(cycle) == 401


class TestStats:
    def test_count_stops(self):
        speeds = np.array([0, 5, 5, 0, 0, 7, 0, 3, 3], dtype=float)
        assert count_stops(speeds) == 2

    def test_no_stops_while_moving(self):
        assert count_stops(np.array([5.0, 6.0, 7.0])) == 0

    def test_idle_fraction(self):
        c = DriveCycle("x", np.array([0.0, 0.0, 5.0, 5.0]))
        assert compute_stats(c).idle_fraction == pytest.approx(0.5)


class TestCsvIO:
    def test_roundtrip(self, tmp_path):
        cycle = standard_cycle("SC03")
        path = tmp_path / "sc03.csv"
        save_csv(cycle, path)
        with open(path, newline="") as f:
            header, *rows = list(csv.reader(f))
        assert header == ["time_s", "speed_ms", "grade_rad"]
        times, speeds, grades = np.asarray(rows, dtype=float).T
        assert np.allclose(speeds, cycle.speeds, atol=1e-5)
        assert np.allclose(grades, cycle.grades, atol=1e-5)
        assert np.allclose(np.diff(times), cycle.dt)
