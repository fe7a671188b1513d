"""Physical constants, fuel properties, and unit conversions.

Every quantity in this library is SI unless a suffix says otherwise
(``_kmh``, ``_mpg``, ``_g`` ...).  This module centralises the handful of
constants the vehicle models share and the conversions the analysis layer
needs to express results the way the paper does (MPG, normalised fuel mass).
"""

from __future__ import annotations

import math

# --- physical constants -----------------------------------------------------

GRAVITY = 9.81
"""Standard gravitational acceleration in m/s^2."""

AIR_DENSITY = 1.2041
"""Density of air at 20 C sea level in kg/m^3 (used in the air-drag force)."""

# --- fuel properties (gasoline) ----------------------------------------------

GASOLINE_ENERGY_DENSITY = 42_500.0
"""Lower heating value of gasoline, J/g (the paper's ``D_f``)."""

GASOLINE_DENSITY = 0.745
"""Density of gasoline in g/mL (0.745 kg/L)."""

GALLON_IN_LITERS = 3.785411784
"""One U.S. liquid gallon expressed in liters."""

MILE_IN_METERS = 1609.344
"""One statute mile expressed in meters."""

# --- conversions --------------------------------------------------------------


def kmh_to_ms(speed_kmh: float) -> float:
    """Convert a speed from km/h to m/s."""
    return speed_kmh / 3.6


def ms_to_kmh(speed_ms: float) -> float:
    """Convert a speed from m/s to km/h."""
    return speed_ms * 3.6


def rads_to_rpm(speed_rads: float) -> float:
    """Convert a rotational speed from rad/s to rev/min."""
    return speed_rads * 60.0 / (2.0 * math.pi)


def grams_to_gallons(fuel_g: float) -> float:
    """Convert a gasoline mass in grams to U.S. gallons."""
    liters = fuel_g / (GASOLINE_DENSITY * 1000.0)
    return liters / GALLON_IN_LITERS


def meters_to_miles(distance_m: float) -> float:
    """Convert a distance in meters to statute miles."""
    return distance_m / MILE_IN_METERS


def mpg(distance_m: float, fuel_g: float) -> float:
    """Miles-per-gallon for a trip of ``distance_m`` meters burning ``fuel_g`` grams.

    Returns ``math.inf`` when no fuel was burned (an all-electric trip).
    """
    if fuel_g <= 0.0:
        return math.inf
    return meters_to_miles(distance_m) / grams_to_gallons(fuel_g)
