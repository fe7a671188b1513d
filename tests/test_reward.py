"""Tests of the joint reward function (paper Section 4.3.3)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.powertrain import PowertrainSolver
from repro.rl.reward import (
    RewardConfig,
    RewardFunction,
    build_reward_function,
    default_soc_price,
)
from repro.vehicle import default_vehicle
from repro.vehicle.auxiliary import UtilityFunction
from repro.vehicle.params import AuxiliaryParams
from tests.reference_step import ReferenceReward


@pytest.fixture
def reward():
    utility = UtilityFunction(AuxiliaryParams())
    return RewardFunction(utility, RewardConfig(), soc_min=0.4, soc_max=0.8,
                          soc_price=450.0)


class TestRewardConfig:
    def test_defaults_valid(self):
        RewardConfig()

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            RewardConfig(aux_weight=-1.0)

    def test_rejects_negative_penalties(self):
        with pytest.raises(ValueError):
            RewardConfig(window_penalty=-1.0)

    def test_rejects_negative_price(self):
        with pytest.raises(ValueError):
            RewardConfig(soc_price=-10.0)


class TestDefaultSocPrice:
    def test_prius_pack_scale(self):
        # 6.5 Ah x 271.5 V at 33% conversion: a few hundred grams per SoC.
        price = default_soc_price(6.5 * 3600, 271.5, 42_500.0)
        assert 300.0 < price < 600.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            default_soc_price(0.0, 100.0, 42_500.0)
        with pytest.raises(ValueError):
            default_soc_price(100.0, 100.0, 42_500.0, conversion_efficiency=0.0)


class TestPaperReward:
    def test_formula(self, reward):
        # r = (-mdot + w * f_aux(p_aux)) * dT with f_aux(600) = 0.
        r = float(reward.paper_reward(0.8, 600.0, 1.0))
        assert r == pytest.approx(-0.8)

    def test_aux_deviation_reduces_reward(self, reward):
        at_pref = float(reward.paper_reward(0.5, 600.0, 1.0))
        off_pref = float(reward.paper_reward(0.5, 1500.0, 1.0))
        assert off_pref < at_pref

    def test_scales_with_dt(self, reward):
        assert float(reward.paper_reward(0.5, 600.0, 2.0)) == pytest.approx(
            2.0 * float(reward.paper_reward(0.5, 600.0, 1.0)))

    def test_always_nonpositive_with_zero_peak_utility(self, reward):
        # Default utility peak is 0, fuel is nonnegative: Table-2-style sign.
        fuels = np.linspace(0.0, 3.0, 7)
        auxes = np.linspace(100.0, 2000.0, 7)
        r = np.asarray(reward.paper_reward(fuels, auxes, 1.0))
        assert np.all(r <= 1e-12)


class TestLearningReward:
    def test_matches_paper_reward_without_soc_terms(self, reward):
        r = float(reward(0.8, 600.0, 1.0))
        assert r == pytest.approx(float(reward.paper_reward(0.8, 600.0, 1.0)))

    def test_window_penalty_applies(self, reward):
        inside = float(reward(0.5, 600.0, 1.0, soc_next=0.6))
        outside = float(reward(0.5, 600.0, 1.0, soc_next=0.35))
        assert outside < inside

    def test_shaping_charges_discharge(self, reward):
        hold = float(reward(0.5, 600.0, 1.0, soc_next=0.6, soc_prev=0.6))
        drain = float(reward(0.5, 600.0, 1.0, soc_next=0.59, soc_prev=0.6))
        assert drain == pytest.approx(hold - 450.0 * 0.01)

    def test_shaping_credits_charge(self, reward):
        hold = float(reward(0.5, 600.0, 1.0, soc_next=0.6, soc_prev=0.6))
        bank = float(reward(0.5, 600.0, 1.0, soc_next=0.61, soc_prev=0.6))
        assert bank == pytest.approx(hold + 450.0 * 0.01)

    def test_shortfall_penalty(self, reward):
        ok = float(reward(0.5, 600.0, 1.0, shortfall=0.0))
        miss = float(reward(0.5, 600.0, 1.0, shortfall=100.0))
        assert miss < ok

    def test_config_price_overrides_derived(self):
        utility = UtilityFunction(AuxiliaryParams())
        rf = RewardFunction(utility, RewardConfig(soc_price=100.0),
                            0.4, 0.8, soc_price=450.0)
        assert rf.soc_price == 100.0

    @given(st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=200.0, max_value=2000.0),
           st.floats(min_value=0.42, max_value=0.78))
    def test_round_trip_shaping_nets_zero(self, fuel, aux, soc):
        # soc range keeps both endpoints inside the window so the penalty
        # term stays silent and only the shaping term moves.
        utility = UtilityFunction(AuxiliaryParams())
        rf = RewardFunction(utility, RewardConfig(), 0.4, 0.8, soc_price=450.0)
        down = float(rf(fuel, aux, 1.0, soc_next=soc - 0.01, soc_prev=soc))
        up = float(rf(fuel, aux, 1.0, soc_next=soc, soc_prev=soc - 0.01))
        base = 2 * float(rf(fuel, aux, 1.0, soc_next=soc, soc_prev=soc))
        assert down + up == pytest.approx(base, abs=1e-9)


class TestWindowViolation:
    def test_zero_inside(self, reward):
        assert float(reward.window_violation(0.6)) == 0.0

    def test_linear_outside(self, reward):
        assert float(reward.window_violation(0.35)) == pytest.approx(0.05)
        assert float(reward.window_violation(0.9)) == pytest.approx(0.10)


class TestBuildRewardFunction:
    def test_derives_price_from_solver(self):
        solver = PowertrainSolver(default_vehicle())
        rf = build_reward_function(solver)
        assert 300.0 < rf.soc_price < 600.0

    def test_respects_config_price(self):
        solver = PowertrainSolver(default_vehicle())
        rf = build_reward_function(solver, RewardConfig(soc_price=42.0))
        assert rf.soc_price == 42.0


_VALUES = st.one_of(st.floats(-1e4, 1e4), st.sampled_from([0.0, -0.0]))


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(*(
    st.lists(_VALUES, min_size=n, max_size=n) for _ in range(4)))),
    st.floats(0.0, 1.0), st.sampled_from([1.0, 0.5, 2.0, 0.1]),
    st.booleans())
def test_reward_matches_the_seed_reward(columns, soc_prev, dt, scalar):
    """With or without a precomputed ``aux_term``, the learning and paper
    rewards equal the seed's bit for bit, on arrays and on scalars."""
    fuel, aux, soc_next, shortfall = (np.abs(np.array(c)) for c in columns)
    soc_next = soc_next / 1e4
    if scalar:
        fuel, aux, soc_next, shortfall = (float(c[0]) for c in (
            fuel, aux, soc_next, shortfall))
    fast = RewardFunction(UtilityFunction(AuxiliaryParams()), RewardConfig(),
                          soc_min=0.4, soc_max=0.8, soc_price=450.0)
    seed = ReferenceReward(UtilityFunction(AuxiliaryParams()), RewardConfig(),
                           soc_min=0.4, soc_max=0.8, soc_price=450.0)
    expected = np.asarray(seed(fuel, aux, dt, soc_next=soc_next,
                               soc_prev=soc_prev, shortfall=shortfall))
    for aux_term in (None, fast.aux_term(aux)):
        got = np.asarray(fast(fuel, aux, dt, soc_next=soc_next,
                              soc_prev=soc_prev, shortfall=shortfall,
                              aux_term=aux_term))
        assert got.tobytes() == expected.tobytes()
        assert (np.asarray(fast.paper_reward(fuel, aux, dt,
                                             aux_term=aux_term)).tobytes()
                == np.asarray(seed.paper_reward(fuel, aux, dt)).tobytes())
