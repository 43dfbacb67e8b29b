"""Tests for the timing spec (repro.flash.timing)."""

from __future__ import annotations

import pytest

from repro.core import IdaTransform, conventional_tlc
from repro.flash.timing import TimingSpec


class TestTableTwo:
    def test_defaults(self):
        spec = TimingSpec.tlc_table2()
        assert spec.read_us(1) == 50.0
        assert spec.read_us(2) == 100.0
        assert spec.read_us(4) == 150.0
        assert spec.program_us == 2300.0
        assert spec.erase_us == 3000.0
        assert spec.transfer_us == 48.0
        assert spec.ecc_decode_us == 20.0

    def test_adjust_is_conservative_one_program(self):
        # Sec. III-B: "we conservatively set the voltage adjustment
        # latency to the MSB write latency".
        assert TimingSpec.tlc_table2().adjust_us() == 2300.0

    def test_adjust_fraction_knob(self):
        spec = TimingSpec(adjust_program_fraction=0.5)
        assert spec.adjust_us() == 1150.0


class TestDeviceVariants:
    def test_mlc_spec(self):
        spec = TimingSpec.mlc_spec()
        assert spec.read_us(1) == 65.0
        assert spec.read_us(2) == 115.0

    def test_qlc_spec_has_four_levels(self):
        spec = TimingSpec.qlc_spec()
        assert spec.read_us(8) > spec.read_us(4) > spec.read_us(2) > spec.read_us(1)

    def test_with_dtr(self):
        spec = TimingSpec.tlc_table2().with_dtr(70.0)
        assert spec.read_us(1) == 50.0
        assert spec.read_us(4) == 190.0
        assert spec.program_us == 2300.0


class TestCodingIntegration:
    def test_page_read_us(self):
        spec = TimingSpec.tlc_table2()
        tlc = conventional_tlc()
        assert spec.read_model.page_latency_us(tlc, 2) == 150.0

    def test_ida_read_us(self):
        spec = TimingSpec.tlc_table2()
        transform = IdaTransform(conventional_tlc(), (1, 2))
        assert spec.read_model.ida_latency_us(transform, 2) == 100.0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"program_us": 0},
            {"erase_us": -1},
            {"transfer_us": 0},
            {"ecc_decode_us": 0},
            {"adjust_program_fraction": 0},
            {"adjust_program_fraction": 2.5},
            {"host_overhead_us": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TimingSpec(**kwargs)
