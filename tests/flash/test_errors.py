"""Tests for the error models (repro.flash.errors)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.errors import AdjustDisturbModel, RberModel, ReadRetryModel


class TestAdjustDisturb:
    def test_zero_rate_corrupts_nothing(self, rng):
        model = AdjustDisturbModel(error_rate=0.0)
        assert model.corrupted_pages(rng, list(range(100))) == []

    def test_full_rate_corrupts_everything(self, rng):
        model = AdjustDisturbModel(error_rate=1.0)
        pages = list(range(50))
        assert model.corrupted_pages(rng, pages) == pages

    def test_empty_input(self, rng):
        assert AdjustDisturbModel(0.5).corrupted_pages(rng, []) == []

    def test_rate_is_respected_statistically(self):
        rng = np.random.default_rng(7)
        model = AdjustDisturbModel(error_rate=0.2)
        pages = list(range(20_000))
        corrupted = model.corrupted_pages(rng, pages)
        assert 0.18 < len(corrupted) / len(pages) < 0.22

    def test_subset_of_input(self, rng):
        model = AdjustDisturbModel(error_rate=0.5)
        pages = list(range(200))
        assert set(model.corrupted_pages(rng, pages)) <= set(pages)

    @pytest.mark.parametrize("rate", [-0.1, 1.1])
    def test_rejects_bad_rates(self, rate):
        with pytest.raises(ValueError):
            AdjustDisturbModel(error_rate=rate)


class TestRberModel:
    def test_fresh_block_is_base(self):
        model = RberModel()
        assert model.rber(0, 0.0) == pytest.approx(model.base_rber)

    def test_monotone_in_wear(self):
        model = RberModel()
        values = [model.rber(pe) for pe in (0, 500, 1500, 3000)]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_monotone_in_retention(self):
        model = RberModel()
        assert model.rber(100, 30.0) > model.rber(100, 1.0)

    def test_wear_saturates_at_rated_cycles(self):
        model = RberModel(rated_pe_cycles=1000)
        assert model.rber(1000) == pytest.approx(model.rber(5000))

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            RberModel().rber(-1)
        with pytest.raises(ValueError):
            RberModel().rber(0, -1.0)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            RberModel(base_rber=0.0)
        with pytest.raises(ValueError):
            RberModel(rated_pe_cycles=0)
        with pytest.raises(ValueError, match="wear_exponent"):
            RberModel(wear_exponent=-0.1)
        with pytest.raises(ValueError, match="retention_slope"):
            RberModel(retention_slope=-0.01)

    def test_zero_growth_boundaries_are_valid(self):
        # A flat curve (no wear growth, no retention growth) is a legal
        # calibration, not a config error.
        model = RberModel(wear_exponent=0.0, retention_slope=0.0)
        assert model.rber(3000, 365.0) == pytest.approx(model.base_rber)


class TestReadRetryModel:
    def test_zero_prob_never_retries(self, rng):
        model = ReadRetryModel(fail_prob=0.0)
        assert all(model.sample_retries(rng) == 0 for _ in range(100))
        assert model.expected_retries() == 0.0

    def test_retries_bounded_by_max(self):
        rng = np.random.default_rng(3)
        model = ReadRetryModel(fail_prob=0.9, max_retries=4)
        samples = [model.sample_retries(rng) for _ in range(500)]
        assert max(samples) <= 4

    def test_expected_matches_sampled_mean(self):
        rng = np.random.default_rng(5)
        model = ReadRetryModel(fail_prob=0.45)
        samples = [model.sample_retries(rng) for _ in range(40_000)]
        assert np.mean(samples) == pytest.approx(model.expected_retries(), rel=0.05)

    def test_for_rber_below_threshold_is_rare(self):
        model = ReadRetryModel.for_rber(1e-4)
        assert model.fail_prob < 0.1

    def test_for_rber_above_threshold_is_common(self):
        model = ReadRetryModel.for_rber(5e-3)
        assert model.fail_prob > 0.8

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ReadRetryModel(fail_prob=1.0)
        with pytest.raises(ValueError):
            ReadRetryModel(fail_prob=-0.1)
        with pytest.raises(ValueError):
            ReadRetryModel(fail_prob=0.5, max_retries=-1)

    def test_for_rber_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="rber"):
            ReadRetryModel.for_rber(-1e-4)

    def test_for_rber_is_half_at_threshold(self):
        assert ReadRetryModel.for_rber(2e-3).fail_prob == pytest.approx(0.5)

    def test_for_rber_monotone_in_rber(self):
        probs = [
            ReadRetryModel.for_rber(r).fail_prob
            for r in (1e-4, 1e-3, 2e-3, 3e-3, 5e-3)
        ]
        assert probs == sorted(probs)
        assert len(set(probs)) == len(probs)

    def test_for_rber_boundaries_are_valid(self):
        # rber == 0 is a fresh device; fail_prob lands near zero but the
        # model must construct.
        assert ReadRetryModel.for_rber(0.0).fail_prob < 0.1
        assert 0.0 <= ReadRetryModel.for_rber(1.0).fail_prob <= 0.95

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.9))
    def test_expected_retries_monotone_in_fail_prob(self, p):
        lower = ReadRetryModel(fail_prob=p).expected_retries()
        higher = ReadRetryModel(fail_prob=min(0.95, p + 0.05)).expected_retries()
        assert higher >= lower
