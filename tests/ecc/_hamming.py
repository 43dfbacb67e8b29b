"""Extended Hamming (SEC-DED) codec over bit arrays, kept as a test oracle.

The paper's refresh pipeline reads pages, decodes them through the ECC
engine, and writes corrected data onward (Fig. 7, steps 2 and 6).  This
module supplies a *real* executable codec — single-error-correcting,
double-error-detecting extended Hamming — so ``test_data_integrity.py``
can exercise the refresh pipeline's data-integrity claims against
genuinely corrupted bits, not just flags.  (Production SSDs use BCH/LDPC;
SEC-DED preserves the same contract at a strength the test suite can
reason about exactly.)  The simulator decodes no codewords: it models ECC
as a latency stage.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["DecodeStatus", "DecodeResult", "HammingCodec"]


class DecodeStatus(Enum):
    """Outcome of a decode attempt."""

    CLEAN = "clean"
    """No errors detected."""

    CORRECTED = "corrected"
    """A single bit error was found and corrected."""

    UNCORRECTABLE = "uncorrectable"
    """A double error was detected; the data cannot be trusted."""


@dataclass(frozen=True)
class DecodeResult:
    """Decoded data plus the decode outcome.

    Attributes:
        data: The recovered data bits (unreliable when UNCORRECTABLE).
        status: What the decoder observed.
        corrected_position: Codeword index of the corrected bit, when
            status is CORRECTED.
    """

    data: np.ndarray
    status: DecodeStatus
    corrected_position: int | None = None

    @property
    def ok(self) -> bool:
        return self.status is not DecodeStatus.UNCORRECTABLE


class HammingCodec:
    """Extended Hamming codec for fixed-length data words.

    Layout: codeword positions are numbered from 1; positions that are
    powers of two hold parity bits; position 0 (stored as the final array
    element) holds the overall parity that upgrades SEC to SEC-DED.
    """

    def __init__(self, data_bits: int) -> None:
        if data_bits < 1:
            raise ValueError("data_bits must be >= 1")
        self.data_bits = data_bits
        self.parity_bits = self._parity_bits_for(data_bits)
        self.codeword_bits = data_bits + self.parity_bits + 1
        total = data_bits + self.parity_bits
        self._data_positions = [
            pos
            for pos in range(1, total + 1)
            if pos & (pos - 1)  # not a power of two
        ]
        self._parity_positions = [1 << r for r in range(self.parity_bits)]

    @staticmethod
    def _parity_bits_for(data_bits: int) -> int:
        r = 0
        while (1 << r) < data_bits + r + 1:
            r += 1
        return r

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------
    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``data_bits`` data bits into a SEC-DED codeword."""
        bits = np.asarray(data, dtype=np.int8)
        if bits.shape != (self.data_bits,):
            raise ValueError(
                f"expected {self.data_bits} data bits, got shape {bits.shape}"
            )
        if ((bits != 0) & (bits != 1)).any():
            raise ValueError("data must be binary")
        total = self.data_bits + self.parity_bits
        word = np.zeros(total + 1, dtype=np.int8)  # 1-indexed; [0] unused here
        for value, pos in zip(bits, self._data_positions):
            word[pos] = value
        for parity_pos in self._parity_positions:
            covered = [
                pos for pos in range(1, total + 1) if pos & parity_pos and pos != parity_pos
            ]
            word[parity_pos] = int(word[covered].sum() % 2)
        overall = int(word[1:].sum() % 2)
        # Stored layout: positions 1..total, then the overall-parity bit.
        return np.concatenate([word[1:], np.array([overall], dtype=np.int8)])

    def decode(self, codeword: np.ndarray) -> DecodeResult:
        """Decode a codeword, correcting up to one flipped bit."""
        stored = np.asarray(codeword, dtype=np.int8)
        if stored.shape != (self.codeword_bits,):
            raise ValueError(
                f"expected {self.codeword_bits} codeword bits, got {stored.shape}"
            )
        total = self.data_bits + self.parity_bits
        word = np.zeros(total + 1, dtype=np.int8)
        word[1:] = stored[:total]
        overall_stored = int(stored[total])

        syndrome = 0
        for parity_pos in self._parity_positions:
            covered = [pos for pos in range(1, total + 1) if pos & parity_pos]
            if int(word[covered].sum() % 2):
                syndrome |= parity_pos
        overall_computed = int(word[1:].sum() % 2)
        overall_mismatch = overall_computed != overall_stored

        corrected_position: int | None = None
        if syndrome == 0 and not overall_mismatch:
            status = DecodeStatus.CLEAN
        elif syndrome != 0 and overall_mismatch:
            # Single error inside positions 1..total: correct it.
            if syndrome <= total:
                word[syndrome] ^= 1
                corrected_position = syndrome
                status = DecodeStatus.CORRECTED
            else:
                status = DecodeStatus.UNCORRECTABLE
        elif syndrome == 0 and overall_mismatch:
            # The overall-parity bit itself flipped; data is intact.
            corrected_position = total + 1
            status = DecodeStatus.CORRECTED
        else:
            # syndrome != 0 but overall parity matches: double error.
            status = DecodeStatus.UNCORRECTABLE

        data = np.array(
            [word[pos] for pos in self._data_positions], dtype=np.int8
        )
        return DecodeResult(data=data, status=status, corrected_position=corrected_position)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def inject_errors(
        self, codeword: np.ndarray, positions: list[int]
    ) -> np.ndarray:
        """Return a copy of ``codeword`` with the given bit indices flipped."""
        corrupted = np.array(codeword, dtype=np.int8, copy=True)
        for pos in positions:
            corrupted[pos] ^= 1
        return corrupted
