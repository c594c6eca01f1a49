"""Tests for repro.util.stats."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import Summary, geometric_mean, summarize_ratios


class TestGeometricMean:
    def test_single_value(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_known_pair(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_order_invariant(self):
        assert geometric_mean([2.0, 8.0, 1.0]) == pytest.approx(
            geometric_mean([8.0, 1.0, 2.0])
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                geometric_mean([2.0, bad])

    def test_accepts_generator(self):
        assert geometric_mean(x for x in [2.0, 2.0]) == pytest.approx(2.0)

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                    max_size=20))
    def test_between_min_and_max(self, values):
        result = geometric_mean(values)
        assert min(values) - 1e-9 <= result <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                    max_size=20),
           st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_property(self, values, scale):
        scaled = geometric_mean([value * scale for value in values])
        assert scaled == pytest.approx(geometric_mean(values) * scale, rel=1e-6)


class TestSummary:
    def test_summarize(self):
        summary = summarize_ratios([0.5, 1.0, 2.0])
        assert summary.minimum == 0.5
        assert summary.maximum == 2.0
        assert summary.gmean == pytest.approx(1.0)

    def test_as_percent(self):
        summary = Summary(0.5, 2.0, 1.0).as_percent()
        assert summary.minimum == 50.0
        assert summary.maximum == 200.0
        assert summary.gmean == 100.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_ratios([])

    def test_str_format(self):
        text = str(Summary(1.0, 2.0, 1.5))
        assert "min=1.0" in text and "gmean=1.5" in text
