"""State-space discretisation (paper Section 4.3.1, Eq. 13-14).

A state is ``s = [p_dem, v, q, pre]``: propulsion power demand, vehicle
speed, battery charge, and the quantised prediction of upcoming demand.
Each continuous component is binned by a strictly increasing edge list; the
four bin indices are ravelled into a single integer state id so the
Q-table can be a dense array.

The vectorised path comes in two halves.  The model is backward-looking
(Eq. 5-7), so ``p_dem`` and ``v`` follow from the drive cycle alone:
:meth:`StateDiscretizer.drive_index` ravels their two bins into a *drive
index*, which a fleet computes once per cycle position and run.
:meth:`StateDiscretizer.state_of_drive` joins a drive index with the
charge bin (and the prediction level) -- the only part of a state a
decision changes.  :meth:`StateDiscretizer.state_of_batch` composes the
two, and :meth:`StateDiscretizer.state_of` is the scalar golden of all
three.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence, Tuple

import numpy as np


def uniform_edges(low: float, high: float, num_bins: int) -> np.ndarray:
    """Interior edges splitting ``[low, high]`` into ``num_bins`` equal bins.

    This is how the paper's Eq. 14 charge levels ``q_1 < ... < q_N`` are
    constructed over ``[q_min, q_max]``.
    """
    if num_bins < 1:
        raise ValueError("need at least one bin")
    if high <= low:
        raise ValueError("empty range")
    return np.linspace(low, high, num_bins + 1)[1:-1]


class StateDiscretizer:
    """Maps continuous HEV observations onto the finite RL state set."""

    #: Default interior edges for the power-demand dimension, W.  Negative
    #: bins separate braking from propulsion; positive ones cover the urban
    #: and highway propulsion ranges of a compact HEV.  The defaults are
    #: deliberately coarse — the paper stresses that the number of
    #: state-action pairs bounds TD(lambda)'s convergence speed, and a
    #: training budget of tens of episodes covers ~10^4 pairs, not ~10^5.
    DEFAULT_POWER_EDGES = (-5_000.0, 500.0, 4_000.0, 9_000.0, 16_000.0)

    #: Default interior edges for vehicle speed, m/s.
    DEFAULT_SPEED_EDGES = (1.0, 8.0, 16.0, 24.0)

    def __init__(self,
                 power_edges: Sequence[float] = DEFAULT_POWER_EDGES,
                 speed_edges: Sequence[float] = DEFAULT_SPEED_EDGES,
                 soc_min: float = 0.40, soc_max: float = 0.80,
                 soc_bins: int = 8, prediction_levels: int = 3):
        for edges in (power_edges, speed_edges):
            e = [float(x) for x in edges]
            # NaN compares False both ways, so it would slip past the
            # order test and then mis-bin every observation.
            if any(math.isnan(x) for x in e) or any(
                    b <= a for a, b in zip(e, e[1:])):
                raise ValueError(
                    "bin edges must be strictly increasing numbers")
        if soc_bins < 1:
            raise ValueError("need at least one SoC bin")
        if prediction_levels < 1:
            raise ValueError("need at least one prediction level")
        if not 0.0 <= soc_min < soc_max <= 1.0:
            raise ValueError("SoC window out of order")
        self._power_edges = np.asarray(power_edges, dtype=float)
        self._speed_edges = np.asarray(speed_edges, dtype=float)
        self._soc_edges = uniform_edges(soc_min, soc_max, soc_bins)
        self._shape = (
            len(self._power_edges) + 1,
            len(self._speed_edges) + 1,
            soc_bins,
            prediction_levels,
        )
        # The scalar path bisects the same edges as Python floats: one
        # observation per step is too small for numpy's per-call overhead.
        self._power_list = self._power_edges.tolist()
        self._speed_list = self._speed_edges.tolist()
        self._soc_list = self._soc_edges.tolist()

    @property
    def shape(self) -> Tuple[int, int, int, int]:
        """Bin counts per dimension: (power, speed, charge, prediction)."""
        return self._shape

    @property
    def num_states(self) -> int:
        """Total number of discrete states |S|."""
        return int(np.prod(self._shape))

    def indices(self, power_demand: float, speed: float, soc: float,
                prediction_level: int) -> Tuple[int, int, int, int]:
        """Per-dimension bin indices of one observation.

        ``bisect_right`` over the edges counts the edges ``<= x`` exactly
        as ``np.searchsorted(..., side="right")`` does, NaN included (it
        sorts above every edge); inputs go through ``float`` first so a
        numpy scalar compares in double precision, as numpy casts it.
        """
        _, _, soc_bins, levels = self._shape
        ip = bisect_right(self._power_list, float(power_demand))
        iv = bisect_right(self._speed_list, float(speed))
        iq = min(bisect_right(self._soc_list, float(soc)), soc_bins - 1)
        il = int(min(max(prediction_level, 0), levels - 1))
        return ip, iv, iq, il

    def state_of(self, power_demand: float, speed: float, soc: float,
                 prediction_level: int = 0) -> int:
        """Ravel one observation into its integer state id (C order, as
        ``np.ravel_multi_index``)."""
        ip, iv, iq, il = self.indices(power_demand, speed, soc,
                                      prediction_level)
        _, speed_bins, soc_bins, levels = self._shape
        return ((ip * speed_bins + iv) * soc_bins + iq) * levels + il

    def drive_index(self, power_demands: np.ndarray,
                    speeds: np.ndarray) -> np.ndarray:
        """Ravelled ``(power, speed)`` bin pair of many observations.

        This is the part of a state id the drive cycle alone fixes:
        ``state_of_drive(drive_index(p, v), q, l)`` equals
        ``state_of_batch(p, v, q, l)`` element for element.
        """
        ip = np.searchsorted(self._power_edges,
                             np.asarray(power_demands, dtype=float),
                             side="right")
        iv = np.searchsorted(self._speed_edges,
                             np.asarray(speeds, dtype=float), side="right")
        return ip * self._shape[1] + iv

    def state_of_drive(self, drives: np.ndarray, socs: np.ndarray,
                       prediction_levels: np.ndarray = 0) -> np.ndarray:
        """Join drive indices (:meth:`drive_index`) with the charge bin
        and prediction level into state ids (C order, as
        ``np.ravel_multi_index``).

        The fleet's per-tick path: only the charge depends on what the
        controller decided.  ``drives``, ``socs`` and
        ``prediction_levels`` broadcast.
        """
        _, _, soc_bins, levels = self._shape
        # soc_bins - 1 interior edges: the bin needs no upper clip.
        iq = np.searchsorted(self._soc_edges, np.asarray(socs, dtype=float),
                             side="right")
        # min(max(.)) is np.clip for integers; np.clip's dispatch costs
        # more than the whole join on a 0-d level.
        il = np.minimum(np.maximum(np.asarray(prediction_levels,
                                              dtype=np.intp), 0),
                        levels - 1)
        return (np.asarray(drives, dtype=np.intp) * soc_bins + iq) \
            * levels + il

    def state_of_batch(self, power_demands: np.ndarray, speeds: np.ndarray,
                       socs: np.ndarray,
                       prediction_levels: np.ndarray = 0) -> np.ndarray:
        """Ravel many observations into state ids in one vectorized pass.

        Element-for-element identical to :meth:`state_of` (golden-tested);
        ``prediction_levels`` broadcasts, so a scalar 0 serves the common
        no-predictor case.  It is :meth:`drive_index` joined by
        :meth:`state_of_drive`.
        """
        return self.state_of_drive(
            self.drive_index(power_demands, speeds), socs, prediction_levels)
