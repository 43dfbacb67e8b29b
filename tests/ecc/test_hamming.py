"""Tests for the SEC-DED codec (the ``_hamming`` oracle)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.ecc._hamming import DecodeStatus, HammingCodec


@pytest.fixture
def codec():
    return HammingCodec(data_bits=32)


def _random_word(rng, bits):
    return rng.integers(0, 2, bits, dtype=np.int8)


class TestCleanPath:
    def test_roundtrip(self, codec, rng):
        data = _random_word(rng, 32)
        result = codec.decode(codec.encode(data))
        assert result.status is DecodeStatus.CLEAN
        np.testing.assert_array_equal(result.data, data)

    def test_codeword_length(self, codec):
        # 32 data bits need 6 parity bits + 1 overall parity.
        assert codec.parity_bits == 6
        assert codec.codeword_bits == 39

    @pytest.mark.parametrize("bits", [1, 4, 11, 57, 64, 120])
    def test_various_widths_roundtrip(self, bits, rng):
        codec = HammingCodec(bits)
        data = _random_word(rng, bits)
        result = codec.decode(codec.encode(data))
        assert result.status is DecodeStatus.CLEAN
        np.testing.assert_array_equal(result.data, data)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            HammingCodec(0)

    def test_rejects_wrong_shape(self, codec):
        with pytest.raises(ValueError):
            codec.encode(np.zeros(31, dtype=np.int8))
        with pytest.raises(ValueError):
            codec.decode(np.zeros(38, dtype=np.int8))

    def test_rejects_non_binary(self, codec):
        with pytest.raises(ValueError):
            codec.encode(np.full(32, 2, dtype=np.int8))


class TestSingleErrorCorrection:
    def test_every_position_correctable(self, codec, rng):
        data = _random_word(rng, 32)
        codeword = codec.encode(data)
        for position in range(codec.codeword_bits):
            corrupted = codec.inject_errors(codeword, [position])
            result = codec.decode(corrupted)
            assert result.status is DecodeStatus.CORRECTED, f"position {position}"
            np.testing.assert_array_equal(result.data, data)

    def test_corrected_position_reported(self, codec, rng):
        data = _random_word(rng, 32)
        codeword = codec.encode(data)
        result = codec.decode(codec.inject_errors(codeword, [5]))
        assert result.corrected_position is not None
        assert result.ok


class TestDoubleErrorDetection:
    def test_double_errors_detected_not_miscorrected(self, codec, rng):
        data = _random_word(rng, 32)
        codeword = codec.encode(data)
        for _ in range(50):
            a, b = rng.choice(codec.codeword_bits, size=2, replace=False)
            result = codec.decode(codec.inject_errors(codeword, [int(a), int(b)]))
            assert result.status is DecodeStatus.UNCORRECTABLE
            assert not result.ok


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_random_single_error_roundtrip(self, data):
        bits = data.draw(st.integers(min_value=2, max_value=80))
        codec = HammingCodec(bits)
        word = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=bits, max_size=bits)),
            dtype=np.int8,
        )
        position = data.draw(st.integers(0, codec.codeword_bits - 1))
        result = codec.decode(codec.inject_errors(codec.encode(word), [position]))
        assert result.ok
        np.testing.assert_array_equal(result.data, word)
