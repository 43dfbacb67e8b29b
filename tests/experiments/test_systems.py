"""Tests for system specs (repro.experiments.systems)."""

from __future__ import annotations

from repro.experiments.systems import baseline, error_rate_sweep, ida
from repro.ftl.refresh import RefreshMode


class TestBuilders:
    def test_baseline(self):
        spec = baseline()
        assert spec.name == "baseline"
        assert spec.refresh_mode is RefreshMode.BASELINE
        assert spec.device == "tlc"

    def test_ida_names_follow_error_rate(self):
        assert ida(0.2).name == "ida-e20"
        assert ida(0.0).name == "ida-e0"
        assert ida(0.8).name == "ida-e80"

    def test_error_rate_sweep_matches_fig8(self):
        names = [s.name for s in error_rate_sweep()]
        assert names == ["ida-e0", "ida-e10", "ida-e20", "ida-e40", "ida-e50", "ida-e80"]

    def test_with_modifiers(self):
        spec = ida(0.2).with_dtr(70.0).with_retry(0.4)
        assert spec.dtr_us == 70.0
        assert spec.retry_fail_prob == 0.4
        assert spec.error_rate == 0.2

    def test_with_dtr_at_the_device_step_is_the_default_system(self):
        # Fig. 9's 50 us column then shares Fig. 8's units.
        assert baseline().with_dtr(50.0) == baseline()
        assert ida(0.2, "mlc").with_dtr(50.0) == ida(0.2, "mlc")
        assert ida(0.2).with_dtr(70.0).with_dtr(50.0) == ida(0.2)
        assert baseline().with_dtr(30.0).dtr_us == 30.0

    def test_retry_model(self):
        assert baseline().retry_model().fail_prob == 0.0
        assert ida(0.2).with_retry(0.45).retry_model().fail_prob == 0.45
