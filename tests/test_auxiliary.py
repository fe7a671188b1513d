"""Tests of the auxiliary-system model and utility function (Sec. 2.1.5)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.vehicle.auxiliary import (
    AuxiliaryLoad,
    AuxiliarySystem,
    UtilityFunction,
    default_loads,
)
from repro.vehicle.params import AuxiliaryParams


@pytest.fixture
def params():
    return AuxiliaryParams()


@pytest.fixture
def utility(params):
    return UtilityFunction(params)


@pytest.fixture
def system(params):
    return AuxiliarySystem(params)


class TestUtilityFunction:
    def test_peak_at_preferred_power(self, utility, params):
        assert float(utility(params.preferred_power)) == pytest.approx(
            params.utility_peak)

    def test_unimodal(self, utility, params):
        # Strictly decreasing away from the peak on both sides.
        p_star = params.preferred_power
        assert float(utility(p_star - 200)) < float(utility(p_star - 100))
        assert float(utility(p_star + 200)) < float(utility(p_star + 100))

    def test_symmetric(self, utility, params):
        p_star = params.preferred_power
        assert float(utility(p_star - 300)) == pytest.approx(
            float(utility(p_star + 300)))

    def test_default_peak_is_zero(self, utility, params):
        # Reward sign convention: utility <= 0 keeps Table-2-style rewards
        # negative.
        assert params.utility_peak == 0.0
        assert float(utility(params.preferred_power)) == 0.0

    @given(st.floats(min_value=0.0, max_value=3000.0))
    def test_never_exceeds_peak(self, power):
        params = AuxiliaryParams()
        utility = UtilityFunction(params)
        assert float(utility(power)) <= params.utility_peak + 1e-12

    def test_argmax_unconstrained(self, utility, params):
        assert utility.argmax(params.max_power) == pytest.approx(
            params.preferred_power)

    def test_argmax_capped(self, utility, params):
        assert utility.argmax(400.0) == pytest.approx(400.0)

    def test_argmax_rejects_cap_below_floor(self, utility):
        with pytest.raises(ValueError):
            utility.argmax(10.0)


class TestAuxiliaryLoad:
    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            AuxiliaryLoad("bad", -5.0)

    def test_default_loads_reasonable(self):
        loads = default_loads()
        total = sum(l.nominal_power for l in loads)
        assert 1000.0 < total < 2000.0
        assert any(not l.sheddable for l in loads)


class TestAuxiliarySystem:
    def test_min_power_covers_non_sheddable(self, system):
        non_shed = sum(l.nominal_power for l in system.loads
                       if not l.sheddable)
        assert system.min_power >= non_shed

    def test_clamp(self, system):
        assert float(system.clamp(0.0)) == system.min_power
        assert float(system.clamp(1e6)) == system.max_power

    def test_power_levels_span_range(self, system):
        levels = system.power_levels(5)
        assert levels[0] == pytest.approx(system.min_power)
        assert levels[-1] == pytest.approx(system.max_power)
        assert len(levels) == 5

    def test_power_levels_single(self, system):
        levels = system.power_levels(1)
        assert len(levels) == 1

    def test_power_levels_rejects_zero(self, system):
        with pytest.raises(ValueError):
            system.power_levels(0)

    def test_rejects_non_sheddable_overload(self):
        params = AuxiliaryParams(max_power=500.0, preferred_power=400.0)
        loads = (AuxiliaryLoad("monster", 900.0, sheddable=False),)
        with pytest.raises(ValueError):
            AuxiliarySystem(params, loads)

    def test_custom_loads_respected(self, params):
        loads = (AuxiliaryLoad("hvac", 500.0),
                 AuxiliaryLoad("ecu", 150.0, sheddable=False))
        system = AuxiliarySystem(params, loads)
        assert system.min_power == pytest.approx(150.0)
