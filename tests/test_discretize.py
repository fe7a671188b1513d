"""Tests of the RL state discretisation (paper Eq. 13-14)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.rl.discretize import StateDiscretizer, uniform_edges
from tests.reference_serve import reference_state_of_batch
from tests.reference_step import ReferenceDiscretizer


class TestUniformEdges:
    def test_eq14_charge_levels(self):
        # Eq. 14: q_min = q_1 < ... < q_N = q_max; interior edges split the
        # window evenly.
        edges = uniform_edges(0.4, 0.8, 4)
        assert np.allclose(edges, [0.5, 0.6, 0.7])

    def test_single_bin_no_edges(self):
        assert len(uniform_edges(0.0, 1.0, 1)) == 0

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            uniform_edges(1.0, 1.0, 3)

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            uniform_edges(0.0, 1.0, 0)


class TestStateDiscretizer:
    def test_shape_and_count(self):
        d = StateDiscretizer(power_edges=(0.0,), speed_edges=(5.0,),
                             soc_bins=4, prediction_levels=2)
        assert d.shape == (2, 2, 4, 2)
        assert d.num_states == 32

    def test_default_state_count_tractable(self):
        # The paper's convergence argument needs |S||A| coverable in tens of
        # episodes; keep the default well under ~10^3 states.
        d = StateDiscretizer()
        assert d.num_states <= 1500

    def test_state_ids_unique_across_bins(self):
        d = StateDiscretizer(power_edges=(0.0,), speed_edges=(5.0,),
                             soc_bins=2, prediction_levels=2)
        seen = set()
        for p in (-1.0, 1.0):
            for v in (1.0, 10.0):
                for q in (0.45, 0.75):
                    for l in (0, 1):
                        seen.add(d.state_of(p, v, q, l))
        assert len(seen) == 16

    def test_unravel_roundtrip(self):
        d = StateDiscretizer()
        s = d.state_of(5000.0, 12.0, 0.55, 1)
        idx = np.unravel_index(s, d.shape)
        assert d.state_of(5000.0, 12.0, 0.55, 1) == int(
            np.ravel_multi_index(idx, d.shape))

    def test_braking_and_driving_in_different_bins(self):
        d = StateDiscretizer()
        assert (d.state_of(-10_000.0, 10.0, 0.6, 0)
                != d.state_of(10_000.0, 10.0, 0.6, 0))

    def test_soc_clipped_to_window(self):
        d = StateDiscretizer(soc_min=0.4, soc_max=0.8, soc_bins=4)
        low = d.indices(0.0, 0.0, 0.1, 0)[2]
        high = d.indices(0.0, 0.0, 0.95, 0)[2]
        assert low == 0
        assert high == 3

    def test_prediction_level_clipped(self):
        d = StateDiscretizer(prediction_levels=3)
        assert d.indices(0.0, 0.0, 0.6, 99)[3] == 2
        assert d.indices(0.0, 0.0, 0.6, -5)[3] == 0

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            StateDiscretizer(power_edges=(5.0, 1.0))

    @pytest.mark.parametrize("edges", [(float("nan"),), (0.0, float("nan")),
                                       (float("nan"), 1.0, 2.0)])
    def test_rejects_nan_edges(self, edges):
        with pytest.raises(ValueError):
            StateDiscretizer(speed_edges=edges)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            StateDiscretizer(soc_min=0.8, soc_max=0.4)

    def test_rejects_zero_prediction_levels(self):
        with pytest.raises(ValueError):
            StateDiscretizer(prediction_levels=0)

    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=0.0, max_value=60.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=10))
    def test_every_observation_maps_to_valid_state(self, p, v, q, l):
        d = StateDiscretizer()
        s = d.state_of(p, v, q, l)
        assert 0 <= s < d.num_states


def _observation(draw, edges):
    """A value on an edge, a special value, or any double, as a Python
    float or a numpy scalar."""
    x = draw(st.one_of(
        st.sampled_from(edges),
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
        st.floats()))
    return draw(st.sampled_from([float, np.float64]))(x)


@st.composite
def discretized_observations(draw):
    power = sorted(set(draw(st.lists(st.floats(-5e4, 5e4), min_size=1,
                                     max_size=5))))
    speed = sorted(set(draw(st.lists(st.floats(0.0, 40.0), min_size=1,
                                     max_size=4))))
    bins = draw(st.integers(1, 9))
    levels = draw(st.integers(1, 4))
    reference = ReferenceDiscretizer(power_edges=power, speed_edges=speed,
                                     soc_min=0.4, soc_max=0.8,
                                     soc_bins=bins, prediction_levels=levels)
    soc_edges = reference._soc_edges.tolist() + [0.4, 0.8]
    level = draw(st.one_of(st.integers(-3, levels + 3),
                           st.integers(-3, levels + 3).map(np.int64)))
    return (power, speed, bins, levels, _observation(draw, power),
            _observation(draw, speed), _observation(draw, soc_edges), level)


@given(discretized_observations())
def test_state_of_matches_batch_and_seed_path(obs):
    """The scalar bisect path == the vectorised path == the seed
    ``np.searchsorted`` path, on edges, signed zeros, infinities, NaN and
    numpy scalars."""
    power, speed, bins, levels, p, v, q, level = obs
    kwargs = dict(power_edges=power, speed_edges=speed, soc_min=0.4,
                  soc_max=0.8, soc_bins=bins, prediction_levels=levels)
    d = StateDiscretizer(**kwargs)
    seed = ReferenceDiscretizer(**kwargs).state_of(p, v, q, level)
    assert d.state_of(p, v, q, level) == seed
    assert int(d.state_of_batch(np.array([p]), np.array([v]),
                                np.array([q]), np.array([level]))[0]) == seed


def _near(edges):
    """Each edge and the doubles one ULP either side of it."""
    return [x for e in edges
            for x in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]


@st.composite
def observation_batches(draw):
    power = sorted(set(draw(st.lists(st.floats(-5e4, 5e4), min_size=1,
                                     max_size=5))))
    speed = sorted(set(draw(st.lists(st.floats(0.0, 40.0), min_size=1,
                                     max_size=4))))
    bins = draw(st.integers(1, 9))
    levels = draw(st.integers(1, 4))
    d = StateDiscretizer(power_edges=power, speed_edges=speed, soc_min=0.4,
                         soc_max=0.8, soc_bins=bins, prediction_levels=levels)
    n = draw(st.integers(0, 30))
    special = [0.0, -0.0, np.inf, -np.inf, np.nan]

    def column(edges):
        return np.array(draw(st.lists(st.one_of(
            st.sampled_from(_near(edges)), st.sampled_from(special),
            st.floats()), min_size=n, max_size=n)), dtype=float)

    soc_edges = d._soc_edges.tolist() + [0.4, 0.8]
    level = draw(st.one_of(
        st.integers(-3, levels + 3),
        st.lists(st.integers(-3, levels + 3), min_size=n,
                 max_size=n).map(np.array)))
    return d, column(power), column(speed), column(soc_edges), level


@given(observation_batches())
def test_split_batch_matches_state_of(batch):
    """drive_index joined by state_of_drive == state_of_batch == state_of
    element for element, and == the seed ``np.ravel_multi_index`` batch
    in bytes, on edges +-1 ULP, signed zeros, infinities and NaN, with a
    scalar or per-element prediction level."""
    d, p, v, q, level = batch
    drives = d.drive_index(p, v)
    split = d.state_of_drive(drives, q, level)
    levels = np.broadcast_to(level, p.shape)
    assert drives.dtype == np.intp and split.dtype == np.intp
    assert split.tolist() == [d.state_of(p[i], v[i], q[i], int(levels[i]))
                              for i in range(len(p))]
    assert d.state_of_batch(p, v, q, level).tobytes() == split.tobytes()
    assert reference_state_of_batch(d, p, v, q, level).tobytes() == \
        split.tobytes()
    assert drives.tolist() == [d.state_of(p[i], v[i], 0.0) //
                               (d.shape[2] * d.shape[3])
                               for i in range(len(p))]
