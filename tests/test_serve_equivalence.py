"""Golden equivalence of the fleet serving set-up against its seed.

The fleet builds sensor-noise streams only for faulty vehicles, and the
policy server memoises greedy actions in a dense per-state array.  Both
must reproduce the seed paths frozen in ``tests/reference_serve.py``
exactly: the same noise matrix byte for byte, the same decisions, and —
while |S| fits the seed's 4096-entry LRU, so the seed never evicted —
the same cache hit and miss counts.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ServeError
from repro.serve import (CanaryConfig, FleetConfig, FleetSimulator,
                         PolicyRegistry, PolicyServer)
from repro.serve import fleet as fleet_module
from tests.reference_serve import (ReferenceLRUServer,
                                   reference_sensor_noise)


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
