"""Tests of the terminal plotting helpers."""

import numpy as np
import pytest

from repro.analysis.ascii_plot import soc_strip, sparkline


class TestSparkline:
    def test_constant_series_mid_level(self):
        s = sparkline([5.0, 5.0, 5.0])
        assert s == "▄▄▄"

    def test_monotone_rises(self):
        s = sparkline([0.0, 1.0, 2.0, 3.0])
        assert s[0] == "▁"
        assert s[-1] == "█"

    def test_resamples_to_width(self):
        s = sparkline(np.linspace(0, 1, 500), width=40)
        assert len(s) == 40

    def test_short_series_unpadded(self):
        assert len(sparkline([1.0, 2.0], width=60)) == 2

    def test_empty_series(self):
        assert sparkline([]) == ""

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)

    def test_spike_survives_resampling(self):
        vals = np.zeros(300)
        vals[150:156] = 10.0
        s = sparkline(vals, width=50)
        assert any(c in "▅▆▇█" for c in s)


class TestSocStrip:
    def test_annotates_endpoints(self):
        strip = soc_strip([0.6, 0.55, 0.5])
        assert "start=0.60" in strip
        assert "end=0.50" in strip
        assert "40%" in strip and "80%" in strip
