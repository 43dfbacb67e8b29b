"""Bit-exact data-integrity integration: IDA never changes stored data.

The paper's "Critical Points" (Sec. III-C) claim the IDA coding changes
*how* data is stored and read, never *what* is stored, and that the
ECC-protected refresh pipeline cannot lose data even when the voltage
adjustment disturbs pages.  These tests execute that full pipeline on a
block of cell-exact wordlines with a real SEC-DED codec and genuinely
flipped bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import classify_validity, conventional_qlc, conventional_tlc
from tests.ecc._hamming import DecodeStatus, HammingCodec
from tests.flash._cells import WordlineCells


def _random_pages(rng, bits, size):
    return [rng.integers(0, 2, size, dtype=np.int8) for _ in range(bits)]


class TestIdaRefreshPipelineBitExact:
    """Model Fig. 7b end to end on one block of real cells."""

    @pytest.fixture
    def setup(self, rng):
        block = [WordlineCells(conventional_tlc(), 64) for _ in range(8)]
        written = {}
        for wl, cells in enumerate(block):
            pages = _random_pages(rng, 3, 64)
            cells.program(pages)
            for bit in range(3):
                written[(wl, bit)] = pages[bit]
        return block, written

    def test_full_pipeline_preserves_every_surviving_bit(self, setup, rng):
        block, written = setup
        # Invalidate a random subset of lower pages (updates elsewhere).
        validity = {}
        for wl in range(8):
            lsb_valid = bool(rng.integers(0, 2))
            csb_valid = bool(rng.integers(0, 2))
            validity[wl] = (lsb_valid, csb_valid, True)

        # Step 3-4 of Fig. 7b: classify and adjust.
        for wl in range(8):
            decision = classify_validity(validity[wl])
            if decision.applies_ida:
                block[wl].apply_ida(decision.adjust_bits)

        # Step 5: re-read every kept page and compare bit-for-bit.
        for wl in range(8):
            decision = classify_validity(validity[wl])
            for bit in decision.adjust_bits:
                np.testing.assert_array_equal(
                    block[wl].read_page(bit), written[(wl, bit)],
                    err_msg=f"wordline {wl} bit {bit}",
                )

    def test_disturbed_page_recovers_through_ecc(self, setup, rng):
        # A page corrupted by the adjustment is recovered from the
        # ECC-decoded copy held in DRAM and written to the new block.
        block, written = setup
        codec = HammingCodec(64)

        # Before adjustment the refresh reads + decodes everything: hold
        # the error-free codewords (this is the DRAM copy of Fig. 7b).
        dram = {
            key: codec.encode(page) for key, page in written.items()
        }

        block[0].apply_ida((1, 2))
        # Simulate a disturb: flip one bit of the raw CSB page readback.
        disturbed = block[0].read_page(1).copy()
        disturbed[7] ^= 1

        # The disturbed readback differs from the stored data...
        assert not np.array_equal(disturbed, written[(0, 1)])
        # ...but the DRAM copy decodes clean, and even a corrupted
        # codeword with a single flip corrects.
        result = codec.decode(dram[(0, 1)])
        assert result.status is DecodeStatus.CLEAN
        np.testing.assert_array_equal(result.data, written[(0, 1)])
        corrupted_codeword = codec.inject_errors(dram[(0, 1)], [7])
        recovered = codec.decode(corrupted_codeword)
        assert recovered.ok
        np.testing.assert_array_equal(recovered.data, written[(0, 1)])


class TestQlcPipeline:
    def test_fig6_pipeline_bit_exact(self, rng):
        cells = WordlineCells(conventional_qlc(), 32)
        pages = _random_pages(rng, 4, 32)
        cells.program(pages)
        decision = classify_validity((False, False, True, True))
        cells.apply_ida(decision.adjust_bits)
        np.testing.assert_array_equal(cells.read_page(2), pages[2])
        np.testing.assert_array_equal(cells.read_page(3), pages[3])
        assert cells.senses(3) == 2
        assert cells.senses(2) == 1
