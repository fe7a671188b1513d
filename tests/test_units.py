"""Unit-conversion and constant tests for :mod:`repro.units`."""

import math

import pytest
from hypothesis import given, strategies as st

from repro import units


class TestSpeedConversions:
    def test_kmh_roundtrip(self):
        assert units.ms_to_kmh(units.kmh_to_ms(50.0)) == pytest.approx(50.0)

    def test_100kmh_is_2778ms(self):
        assert units.kmh_to_ms(100.0) == pytest.approx(27.7778, rel=1e-4)

    @given(st.floats(min_value=0.0, max_value=200.0))
    def test_kmh_conversion_monotone(self, v):
        assert units.kmh_to_ms(v) <= units.kmh_to_ms(v + 1.0)


class TestRotationalConversions:
    def test_1000rpm(self):
        assert units.rads_to_rpm(104.72) == pytest.approx(1000.0, rel=1e-3)


class TestFuelConversions:
    def test_gallon_of_gasoline_mass(self):
        # One gallon = 3.785 L at 0.745 kg/L = ~2820 g.
        grams = units.GASOLINE_DENSITY * 1000.0 * units.GALLON_IN_LITERS
        assert units.grams_to_gallons(grams) == pytest.approx(1.0)

    def test_mpg_known_value(self):
        # 10 miles on one gallon.
        one_gallon_g = units.GASOLINE_DENSITY * 1000.0 * units.GALLON_IN_LITERS
        assert units.mpg(10 * units.MILE_IN_METERS,
                         one_gallon_g) == pytest.approx(10.0)

    def test_mpg_zero_fuel_is_infinite(self):
        assert math.isinf(units.mpg(1000.0, 0.0))

    @given(st.floats(min_value=1.0, max_value=1e6),
           st.floats(min_value=1.0, max_value=1e5))
    def test_mpg_positive(self, dist, fuel):
        assert units.mpg(dist, fuel) > 0.0

    @given(st.floats(min_value=100.0, max_value=1e6),
           st.floats(min_value=1.0, max_value=1e5))
    def test_mpg_falls_with_fuel(self, dist, fuel):
        # More fuel burned over the same trip must mean lower MPG.
        assert units.mpg(dist, fuel * 2.0) < units.mpg(dist, fuel)
