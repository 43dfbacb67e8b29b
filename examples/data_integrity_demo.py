#!/usr/bin/env python3
"""Data-integrity demo: the Fig. 7b pipeline on real cells with real ECC.

Executes the paper's modified refresh bit-for-bit on a cell-exact block:
program with the conventional coding, invalidate some lower pages,
classify every wordline (Table I), voltage-adjust the IDA cases, inject a
disturb error, and show the ECC-protected pipeline recovers it — the
"free from any data loss" claim of Sec. III-B/III-C, executed.

Run:  python examples/data_integrity_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.core import classify_validity, conventional_tlc
from repro.ecc import DecodeStatus, HammingCodec
from repro.flash import WordlineCells


def main() -> None:
    rng = np.random.default_rng(42)
    block = [WordlineCells(conventional_tlc(), 64) for _ in range(6)]
    codec = HammingCodec(64)

    # Program the block and remember what was written.
    written = {}
    for wl, cells in enumerate(block):
        pages = [rng.integers(0, 2, 64, dtype=np.int8) for _ in range(3)]
        cells.program(pages)
        for bit in range(3):
            written[(wl, bit)] = pages[bit]
    print("programmed 6 wordlines (18 pages) with the conventional coding")

    # Updates elsewhere invalidate some lower pages.
    validity = {
        0: (True, True, True),    # case 1
        1: (False, True, True),   # case 2
        2: (True, False, True),   # case 3
        3: (False, False, True),  # case 4
        4: (True, True, False),   # case 5
        5: (False, False, False), # case 8
    }

    # Fig. 7b steps 1-2: read everything valid and hold the ECC-encoded
    # copies in "DRAM".
    dram = {key: codec.encode(page) for key, page in written.items()}

    # Steps 3-4: classify and adjust.
    adjusted = []
    for wl, flags in validity.items():
        decision = classify_validity(flags)
        print(f"wordline {wl}: case {decision.case} -> {decision.action.value}"
              + (f", keep bits {decision.adjust_bits}" if decision.adjust_bits else ""))
        if decision.applies_ida:
            block[wl].apply_ida(decision.adjust_bits)
            adjusted.append((wl, decision.adjust_bits))

    # Step 5-6: verify every kept page bit-for-bit.
    clean = 0
    for wl, bits in adjusted:
        for bit in bits:
            if np.array_equal(block[wl].read_page(bit), written[(wl, bit)]):
                clean += 1
    print(f"\nafter adjustment: {clean} kept pages read back bit-identical")

    # Now inject a disturb error into a kept page's stored codeword and
    # show the pipeline recovers (step 7-8 of Fig. 7b).
    target = (1, 2)  # wordline 1 MSB, kept through a case-2 adjustment
    corrupted = codec.inject_errors(dram[target], [13])
    result = codec.decode(corrupted)
    assert result.status is DecodeStatus.CORRECTED
    assert np.array_equal(result.data, written[target])
    print("injected a single-bit disturb into wordline 1's MSB codeword: "
          f"ECC decode -> {result.status.value}, data recovered exactly")

    # Sense counts after the pipeline.
    print("\nsense counts after the modified refresh:")
    for wl in range(4):
        decision = classify_validity(validity[wl])
        for bit in decision.adjust_bits:
            name = ("LSB", "CSB", "MSB")[bit]
            print(f"  wordline {wl} {name}: {block[wl].senses(bit)} senses")


if __name__ == "__main__":
    main()
