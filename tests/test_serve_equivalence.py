"""Golden equivalence of the fleet serving set-up against its seed.

The fleet builds sensor-noise streams only for faulty vehicles, bins its
drive once per cycle position and run, and the policy server memoises
greedy actions in a dense per-state array.  All three must reproduce the
seed paths frozen in ``tests/reference_serve.py`` exactly: the same
noise matrix and tick states byte for byte, the same decisions, and —
while |S| fits the seed's 4096-entry LRU, so the seed never evicted —
the same cache hit and miss counts.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cycles import standard_cycle
from repro.cycles.standard import STANDARD_SPECS
from repro.errors import ServeError
from repro.learn import ExperienceStream, read_journal
from repro.rl.discretize import StateDiscretizer, uniform_edges
from repro.learn import RegressionWatchdog
from repro.serve import (CanaryConfig, CanaryRollout, FleetConfig,
                         FleetSimulator, PolicyRegistry, PolicyServer)
from repro.serve import fleet as fleet_module
from repro.vehicle import default_vehicle
from repro.vehicle.dynamics import VehicleDynamics
from tests.reference_serve import (ReferenceDriveTable, ReferenceLRUServer,
                                   reference_canary_evaluate,
                                   reference_sensor_noise,
                                   reference_tick_states,
                                   reference_watchdog_check)


@st.composite
def fleet_slices(draw):
    """A fleet slice config plus its faulty mask and step count."""
    total = draw(st.integers(min_value=1, max_value=600))
    offset = draw(st.integers(min_value=0, max_value=total - 1))
    vehicles = draw(st.integers(min_value=1, max_value=total - offset))
    cfg = FleetConfig(
        vehicles=vehicles, vehicle_offset=offset, total_vehicles=total,
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        fault_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        sensor_noise=draw(st.floats(min_value=0.0, max_value=0.1)))
    steps = draw(st.integers(min_value=1, max_value=40))
    population = np.random.default_rng(cfg.seed).random(total)
    faulty = (population < cfg.fault_fraction)[offset:offset + vehicles]
    return cfg, faulty, steps


class TestSensorNoise:
    @settings(max_examples=60, deadline=None)
    @given(fleet_slices())
    def test_noise_matrix_matches_seed_bytes(self, case):
        cfg, faulty, steps = case
        noise = fleet_module._sensor_noise(cfg, faulty, steps)
        golden = reference_sensor_noise(cfg, faulty, steps)
        assert noise.dtype == golden.dtype
        assert noise.shape == golden.shape
        assert noise.tobytes() == golden.tobytes()

    @pytest.mark.parametrize("fault_fraction", [0.1, 1.0])
    def test_fleet_run_matches_seed_noise(self, fault_fraction, tmp_path,
                                          monkeypatch):
        """A whole fleet run is unchanged with the seed noise swapped in."""
        registry = PolicyRegistry(tmp_path)
        rng = np.random.default_rng(3)
        registry.publish_table(rng.normal(size=(720, 15)), {
            "num_states": 720,
            "current_levels": np.linspace(-40.0, 30.0, 15).tolist()})
        config = FleetConfig(vehicles=40, vehicle_offset=24,
                             total_vehicles=96, steps=12, seed=9,
                             fault_fraction=fault_fraction)

        def run():
            server = PolicyServer(registry)
            server.activate_latest()
            return FleetSimulator(server, config, record_trace=True).run()

        fast = run()
        monkeypatch.setattr(fleet_module, "_sensor_noise",
                            reference_sensor_noise)
        seed = run()
        assert fast.actions.tobytes() == seed.actions.tobytes()
        assert fast.final_soc.tobytes() == seed.final_soc.tobytes()
        assert fast.vehicle_rewards.tobytes() == \
            seed.vehicle_rewards.tobytes()


_BUILT_IN_CYCLES = tuple(STANDARD_SPECS)
_BATTERY = default_vehicle().battery


@st.composite
def drive_cases(draw):
    """Drive-table inputs: cycles (all built-ins, repeats allowed, and
    short synthetic traces that need not start or end at standstill, as
    the built-ins all do), phases weighted to a cycle's first and last
    position, ``dt`` other than 1, ticks past a cycle's length, and noisy
    SoC readings on and past the SoC edges (one ULP either side), signed
    zeros, infinities and NaN."""
    synthetic = st.lists(st.floats(min_value=0.0, max_value=40.0),
                         min_size=1, max_size=30).map(np.array)
    speeds = draw(st.lists(st.one_of(
        st.sampled_from(_BUILT_IN_CYCLES).map(
            lambda name: standard_cycle(name).speeds),
        synthetic), min_size=1, max_size=4))
    lengths = [len(s) for s in speeds]
    n = draw(st.integers(min_value=1, max_value=24))
    cycle_idx = np.array(draw(st.lists(
        st.integers(min_value=0, max_value=len(speeds) - 1),
        min_size=n, max_size=n)), dtype=np.int64)
    phase = np.array([draw(st.one_of(
        st.just(lengths[c] - 1), st.just(0),
        st.integers(min_value=0, max_value=lengths[c] - 1)))
        for c in cycle_idx], dtype=np.int64)
    dt = draw(st.one_of(st.sampled_from([1.0, 0.5, 2.0, 0.1, 1.0 / 3.0]),
                        st.floats(min_value=1e-3, max_value=10.0)))
    soc_bins = draw(st.sampled_from([8, 1, 3]))
    edges = uniform_edges(_BATTERY.soc_min, _BATTERY.soc_max,
                          soc_bins).tolist() + [_BATTERY.soc_min,
                                                _BATTERY.soc_max]
    near = [x for e in edges
            for x in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
    reading = st.one_of(
        st.sampled_from(near),
        st.sampled_from([0.0, -0.0, 1.0, -0.3, 1.4, np.inf, -np.inf,
                         np.nan]),
        st.floats(min_value=-0.5, max_value=1.5))
    socs = [np.array(draw(st.lists(reading, min_size=n, max_size=n)))
            for _ in range(draw(st.integers(min_value=1, max_value=5)))]
    # The first vehicle's wrap tick, then ticks up to three laps of the
    # longest cycle.
    wrap = lengths[cycle_idx[0]] - 1 - int(phase[0])
    ticks = [wrap] + draw(st.lists(
        st.integers(min_value=0, max_value=3 * max(lengths)),
        min_size=len(socs) - 1, max_size=len(socs) - 1))
    return speeds, cycle_idx, phase, dt, soc_bins, list(zip(ticks, socs))


@pytest.fixture(scope="module")
def tick_registry(tmp_path_factory):
    """One registry holding an incumbent, a regressed candidate and a
    candidate with the incumbent's greedy actions."""
    registry = PolicyRegistry(tmp_path_factory.mktemp("tick"))
    rng = np.random.default_rng(3)
    fingerprint = {"num_states": 720,
                   "current_levels": np.linspace(-40.0, 30.0, 15).tolist()}
    incumbent = rng.normal(size=(720, 15))
    registry.publish_table(incumbent, fingerprint)
    registry.publish_table(rng.normal(size=(720, 15)) - 3.0, fingerprint)
    registry.publish_table(incumbent + 0.25, fingerprint)
    return registry


class TestFleetTick:
    @settings(max_examples=150, deadline=None)
    @given(drive_cases())
    def test_drive_table_matches_the_per_tick_seed(self, case):
        """The per-run table gives every tick the seed's state bytes."""
        speeds, cycle_idx, phase, dt, soc_bins, ticks = case
        dynamics = VehicleDynamics(default_vehicle().body)
        discretizer = StateDiscretizer(soc_min=_BATTERY.soc_min,
                                       soc_max=_BATTERY.soc_max,
                                       soc_bins=soc_bins)
        args = (speeds, cycle_idx, phase, dynamics, discretizer, dt)
        table = fleet_module._DriveTable(*args)
        for t, socs in ticks:
            got = table.states(t, socs)
            want = reference_tick_states(*args, t, socs)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), t

    @settings(max_examples=25, deadline=None)
    @given(total=st.integers(min_value=1, max_value=48),
           data=st.data(),
           cycles=st.lists(st.sampled_from(_BUILT_IN_CYCLES), min_size=1,
                           max_size=3),
           dt=st.sampled_from([1.0, 0.5, 1.7]),
           steps=st.one_of(st.integers(min_value=1, max_value=12),
                           st.integers(min_value=600, max_value=1400)),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           noise=st.sampled_from([0.02, 0.6]))
    def test_fleet_runs_see_the_seed_tick_states(self, tick_registry, total,
                                                 data, cycles, dt, steps,
                                                 seed, noise):
        """Every tick of a run -- fleet slices, long runs, noise past the
        SoC window -- sees the states the seed's per-tick path gives."""
        offset = data.draw(st.integers(min_value=0, max_value=total - 1))
        vehicles = data.draw(st.integers(min_value=1,
                                         max_value=min(total - offset, 12)))
        config = FleetConfig(vehicles=vehicles, vehicle_offset=offset,
                             total_vehicles=total, steps=steps, dt=dt,
                             cycles=tuple(cycles), seed=seed,
                             fault_fraction=0.5, sensor_noise=noise)
        checked = []

        class CheckedTable(fleet_module._DriveTable):
            def __init__(self, *args):
                super().__init__(*args)
                self.reference = ReferenceDriveTable(*args)

            def states(self, t, socs):
                got = super().states(t, socs)
                want = self.reference.states(t, socs)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), t
                checked.append(t)
                return got

        server = PolicyServer(tick_registry)
        server.activate(tick_registry.load(1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fleet_module, "_DriveTable", CheckedTable)
            FleetSimulator(server, config).run()
        assert checked == list(range(steps))

    @pytest.mark.parametrize("candidate, verdict", [
        (None, None), (2, "rollback"), (3, "promote")])
    def test_fleet_run_matches_the_per_tick_seed(self, tick_registry,
                                                 tmp_path, monkeypatch,
                                                 candidate, verdict):
        """A whole run is unchanged with the seed's per-tick drive swapped
        in, including a canary that resolves mid-run."""
        config = FleetConfig(vehicles=64, vehicle_offset=16,
                             total_vehicles=120, steps=40, dt=0.5, seed=4,
                             cycles=_BUILT_IN_CYCLES, request_batch=24)

        def run(journals):
            server = PolicyServer(tick_registry)
            server.activate(tick_registry.load(1))
            if candidate is not None:
                server.begin_canary(version=candidate,
                                    canary_config=CanaryConfig(
                                        fraction=0.3, min_samples=32,
                                        sigmas=2.0, decision_budget=300))
            stream = ExperienceStream(tmp_path / journals)
            result = FleetSimulator(server, config, record_trace=True,
                                    experience=stream).run()
            stream.close()
            return result, server, stream.path

        fast, fast_server, fast_journal = run("fast")
        monkeypatch.setattr(fleet_module, "_DriveTable", ReferenceDriveTable)
        seed, seed_server, seed_journal = run("seed")
        assert fast.canary_verdict == seed.canary_verdict == verdict
        # Nothing is shed, so every vehicle -- the canary cohort too,
        # before and after the verdict -- is served every tick.
        assert fast.decisions == seed.decisions == 64 * 40
        assert fast.actions.tobytes() == seed.actions.tobytes()
        assert fast.final_soc.tobytes() == seed.final_soc.tobytes()
        assert fast.vehicle_rewards.tobytes() == \
            seed.vehicle_rewards.tobytes()
        assert (fast_server.cache_hits, fast_server.cache_misses) == \
            (seed_server.cache_hits, seed_server.cache_misses)
        assert fast_journal.read_bytes() == seed_journal.read_bytes()
        if verdict is not None:
            # Mid-run: the first journaled tick mixes both versions, the
            # last carries only the version the verdict left serving.
            columns = read_journal(fast_journal).columns
            steps, versions = columns["step"], columns["policy_version"]
            first = set(versions[steps == steps.min()].tolist())
            last = set(versions[steps == steps.max()].tolist())
            assert first == {1, candidate}
            assert last == ({1} if verdict == "rollback" else {candidate})


_VERSIONS = 3

_ops = st.one_of(
    st.tuples(st.just("decide"),
              st.lists(st.integers(min_value=0, max_value=2**20),
                       max_size=300)),
    st.tuples(st.just("activate"),
              st.integers(min_value=1, max_value=_VERSIONS)),
    st.tuples(st.just("swap"), st.integers(min_value=1, max_value=_VERSIONS)),
    st.tuples(st.just("rollback")),
    st.tuples(st.just("fallback")),
    st.tuples(st.just("promote"),
              st.integers(min_value=1, max_value=_VERSIONS)),
)


def _apply(server, op, registry, width):
    """Run one operation; returns decided actions or the error type."""
    kind = op[0]
    try:
        if kind == "decide":
            return server.decide(np.asarray(op[1], dtype=np.intp) % width)
        if kind == "activate":
            server.activate(registry.load(op[1]))
        elif kind == "swap":
            server.swap(version=op[1])
        elif kind == "rollback":
            server.rollback()
        elif kind == "fallback":
            server._engage_fallback()
        elif kind == "promote":
            server.begin_canary(version=op[1], canary_config=CanaryConfig(
                fraction=0.5, min_samples=2, decision_budget=2))
            server.observe(False, np.zeros(2))
            assert server.observe(True, np.zeros(2)) == "promote"
    except ServeError as exc:
        return type(exc)
    return None


class TestDecisionMemo:
    @settings(max_examples=60, deadline=None)
    @given(num_states=st.one_of(st.integers(min_value=1, max_value=64),
                                st.integers(min_value=4000,
                                            max_value=4400)),
           num_actions=st.integers(min_value=1, max_value=8),
           table_seed=st.integers(min_value=0, max_value=2**32 - 1),
           ops=st.lists(_ops, min_size=1, max_size=25))
    def test_decisions_match_the_seed_lru(self, tmp_path_factory,
                                          num_states, num_actions,
                                          table_seed, ops):
        root = Path(tmp_path_factory.mktemp("memo"))
        registry = PolicyRegistry(root)
        rng = np.random.default_rng(table_seed)
        fingerprint = {"num_states": num_states,
                       "current_levels": np.linspace(
                           -10.0, 10.0, num_actions).tolist()}
        for _ in range(_VERSIONS):
            # Few distinct values, so argmax ties are common too.
            table = rng.integers(-3, 3, size=(num_states, num_actions))
            registry.publish_table(table.astype(float), fingerprint)
        memo, seed = PolicyServer(registry), ReferenceLRUServer(registry)
        for server in (memo, seed):
            server.activate_latest()
        last = None
        for op in ops:
            # Re-deciding the last batch after every state change catches
            # a memo that outlived the policy it was filled from.
            steps = [op] if op[0] == "decide" or last is None \
                else [op, last]
            for step in steps:
                got = _apply(memo, step, registry, num_states)
                want = _apply(seed, step, registry, num_states)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), op[0]
                else:
                    assert got == want, op[0]
                assert memo.active_version == seed.active_version
                assert memo.decisions == seed.decisions
                if num_states <= ReferenceLRUServer.cache_size:
                    assert (memo.cache_hits, memo.cache_misses) == \
                        (seed.cache_hits, seed.cache_misses)
            if op[0] == "decide":
                last = op


# Rewards from a small grid make exact ties at the sigma threshold,
# zero-variance groups and equal intervention rates common.
_REWARDS = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def canary_batches(draw):
    """``(canary?, rewards, interventions)`` batches of one rollout."""
    return draw(st.lists(st.tuples(
        st.booleans(), st.lists(_REWARDS, min_size=1, max_size=5),
        st.integers(min_value=0, max_value=5)), min_size=1, max_size=30))


class _Run(NamedTuple):
    mean_reward: float
    interventions: int
    decisions: int


class TestRegressionRule:
    """The canary and the watchdog share one regression rule; each must
    reach the verdict its own frozen copy reached on every batch."""

    @settings(max_examples=300, deadline=None)
    @given(batches=canary_batches(),
           min_samples=st.integers(min_value=2, max_value=6),
           slack=st.integers(min_value=0, max_value=20),
           sigmas=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
           margin=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    # Incumbent [0, 1, 2] has mean 1 and std 1, so a canary at -2 sits
    # exactly 3 sigma below it: a tie, which is not a regression.
    @example(batches=[(False, [0.0, 1.0, 2.0], 0),
                      (True, [-2.0, -2.0, -2.0], 0)],
             min_samples=3, slack=5, sigmas=3.0, margin=0.05)
    # A zero-variance incumbent: the 1e-12 std floor decides.
    @example(batches=[(False, [1.0, 1.0], 0), (True, [1.0, 0.5], 0)],
             min_samples=2, slack=5, sigmas=3.0, margin=0.05)
    # Intervention rates tied at exactly the margin.
    @example(batches=[(False, [1.0, 1.0], 0), (True, [1.0, 1.0], 1)],
             min_samples=2, slack=5, sigmas=3.0, margin=0.5)
    def test_canary_matches_its_frozen_rule(self, batches, min_samples,
                                            slack, sigmas, margin):
        rollout = CanaryRollout(1, CanaryConfig(
            fraction=0.5, min_samples=min_samples, sigmas=sigmas,
            decision_budget=min_samples + slack,
            intervention_margin=margin))
        for canary, rewards, interventions in batches:
            verdict = rollout.record(canary, np.asarray(rewards),
                                     interventions)
            expected, reason = reference_canary_evaluate(rollout)
            # The merged rule's reason adds only its evidence suffix.
            assert verdict == expected
            assert rollout.reason.startswith(reason)

    @settings(max_examples=300, deadline=None)
    @given(runs=st.lists(st.tuples(
        _REWARDS, st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6)), min_size=1, max_size=12))
    @example(runs=[(0.0, 0, 4), (1.0, 0, 4), (2.0, 0, 4), (-2.0, 0, 4)])
    @example(runs=[(1.0, 0, 4), (1.0, 0, 4), (0.5, 0, 4), (1.0, 0, 0)])
    def test_watchdog_matches_its_frozen_rule(self, runs):
        dog = RegressionWatchdog()
        for reward, interventions, decisions in runs:
            result = _Run(reward, min(interventions, decisions), decisions)
            alert = dog.check(result)
            expected = reference_watchdog_check(
                dog._reward, dog._interventions, dog._decisions, result)
            assert (alert is None) == (expected is None)
            if alert is None:
                dog.observe(result)
            else:
                assert alert.startswith(expected)
