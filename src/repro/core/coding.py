"""Multi-level-cell Gray codings and their read-sense structure.

A *coding* assigns, to each of the ``2**bits`` threshold-voltage states of a
flash cell (ordered from the erased state upward), a tuple of bit values —
one per logical page sharing the wordline.  Reading one bit of the cell means
discovering on which side of certain *read voltages* (state boundaries) the
cell's threshold voltage lies; the number of boundaries at which that bit
changes value is exactly the number of memory senses the read needs.

This module provides:

* :class:`GrayCoding` — an immutable, validated coding with boundary /
  sense-count queries.  This is the object every other part of the library
  (the IDA transform, the flash cell model, the timing model) consumes.
* :func:`standard_coding` — the closed-form construction of the most
  widely-used coding family (Fig. 2 of the paper): for a ``b``-bit cell,
  bit ``k`` (0 = LSB) needs ``2**k`` senses, so TLC reads LSB/CSB/MSB with
  1/2/4 senses and QLC reads its four bits with 1/2/4/8 senses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "BitTuple",
    "GrayCoding",
    "standard_coding",
    "sense_level",
]


BitTuple = tuple[int, ...]
"""Bit values of one voltage state, ordered LSB first (index 0 = LSB)."""


def sense_level(senses: int) -> int:
    """Return the *latency level* of a read needing ``senses`` senses.

    The paper's device reads 1/2/4-sense pages in 50/100/150 us: latency
    grows by a fixed step ``dtR`` each time the sense count doubles.  The
    level is therefore ``log2(senses)`` and the read latency is
    ``tR_base + dtR * level`` (see :mod:`repro.core.readpath`).

    Raises:
        ValueError: if ``senses`` is not a positive power of two.
    """
    if senses < 1 or senses & (senses - 1):
        raise ValueError(f"sense count must be a positive power of two, got {senses}")
    return senses.bit_length() - 1


def _validate_states(states: Sequence[BitTuple], bits: int) -> None:
    expected = 1 << bits
    if len(states) != expected:
        raise ValueError(
            f"a {bits}-bit coding needs {expected} states, got {len(states)}"
        )
    seen = set()
    for index, state in enumerate(states):
        if len(state) != bits:
            raise ValueError(
                f"state S{index + 1} has {len(state)} bits, expected {bits}"
            )
        if any(bit not in (0, 1) for bit in state):
            raise ValueError(f"state S{index + 1} has non-binary values: {state}")
        if state in seen:
            raise ValueError(f"duplicate bit pattern {state} at S{index + 1}")
        seen.add(state)
    for index in range(len(states) - 1):
        differing = sum(
            a != b for a, b in zip(states[index], states[index + 1])
        )
        if differing != 1:
            raise ValueError(
                "adjacent states must differ in exactly one bit "
                f"(S{index + 1} -> S{index + 2} differs in {differing})"
            )


@dataclass(frozen=True)
class GrayCoding:
    """An immutable multi-level-cell coding.

    Attributes:
        name: Human-readable identifier (e.g. ``"tlc-1-2-4"``).
        states: One :data:`BitTuple` per voltage state, ordered from the
            erased (lowest-voltage) state upward.  ``states[0]`` is the
            all-ones erased state in every coding used by the paper.
        bits: Number of bits per cell (2 = MLC, 3 = TLC, 4 = QLC).
    """

    name: str
    states: tuple[BitTuple, ...]
    bits: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("a coding needs at least two states")
        bits = len(self.states[0])
        if bits < 1:
            raise ValueError("a coding needs at least one bit per cell")
        _validate_states(self.states, bits)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "states", tuple(tuple(s) for s in self.states))

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of voltage states (``2**bits``)."""
        return len(self.states)

    def state_for(self, bits: Sequence[int]) -> int:
        """Index of the unique state encoding the given bit tuple.

        Raises:
            KeyError: if no state encodes ``bits``.
        """
        target = tuple(bits)
        for index, state in enumerate(self.states):
            if state == target:
                return index
        raise KeyError(f"no state encodes {target} in coding {self.name!r}")

    def boundaries(self, bit: int) -> tuple[int, ...]:
        """Read-voltage boundaries needed to resolve ``bit``.

        Boundary ``i`` separates state ``i-1`` from state ``i`` (so it
        corresponds to read voltage ``V_i`` in the paper's notation, with
        ``i`` in ``1..num_states-1``).  A boundary is needed exactly when
        the bit's value differs across it.
        """
        if not 0 <= bit < self.bits:
            raise IndexError(f"bit {bit} out of range for {self.bits}-bit coding")
        return tuple(
            i
            for i in range(1, self.num_states)
            if self.states[i - 1][bit] != self.states[i][bit]
        )

    def senses(self, bit: int) -> int:
        """Number of memory senses a read of ``bit`` requires."""
        return len(self.boundaries(bit))

    def sense_counts(self) -> tuple[int, ...]:
        """Sense count for every bit, LSB first."""
        return tuple(self.senses(bit) for bit in range(self.bits))

    def read_voltages(self, bit: int) -> tuple[str, ...]:
        """Paper-style read-voltage names (``V1``..``V7``) for ``bit``."""
        return tuple(f"V{i}" for i in self.boundaries(bit))

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------
    def decode(self, state: int) -> BitTuple:
        """All bit values stored by a cell in ``state``."""
        return self.states[state]

    def encode(self, bits: Sequence[int]) -> int:
        """Alias of :meth:`state_for` (program the cell to this state)."""
        return self.state_for(bits)

    def read_bit_by_sensing(self, state: int, bit: int) -> int:
        """Resolve ``bit`` the way hardware does: by boundary comparisons.

        The cell conducts ("on") at a read voltage iff its threshold state
        lies strictly below the boundary.  The bit value is recovered from
        the parity of crossed boundaries, anchored at the erased state's
        value — this is the generalisation of the paper's LSB/CSB/MSB read
        rules and is checked against :meth:`decode` in the test suite.
        """
        crossed = sum(1 for b in self.boundaries(bit) if state >= b)
        anchor = self.states[0][bit]
        return anchor if crossed % 2 == 0 else 1 - anchor

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable dump (used by the coding explorer)."""
        lines = [f"coding {self.name!r}: {self.bits} bits, {self.num_states} states"]
        header = "state | " + " ".join(f"bit{b}" for b in range(self.bits))
        lines.append(header)
        for index, state in enumerate(self.states):
            row = f"  S{index + 1:<3} | " + "    ".join(str(v) for v in state)
            lines.append(row)
        for bit in range(self.bits):
            lines.append(
                f"bit{bit}: {self.senses(bit)} senses at "
                + ", ".join(self.read_voltages(bit))
            )
        return "\n".join(lines)


def _standard_bit(state: int, bit: int, bits: int) -> int:
    """Closed form for the standard coding family (see module docstring)."""
    shifted = state >> (bits - 1 - bit)
    return 1 if ((shifted + 1) // 2) % 2 == 0 else 0


def standard_coding(bits: int, name: str | None = None) -> GrayCoding:
    """Build the standard 1/2/4/... coding for a ``bits``-bit cell.

    This is the "most widely-used" coding of the paper's Fig. 2: bit ``k``
    (LSB = 0) flips exactly at the odd multiples of ``2**(bits-1-k)`` and
    therefore needs ``2**k`` senses.  For ``bits=3`` it reproduces the
    paper's S1..S8 table, e.g. S5 = (LSB=0, CSB=0, MSB=1).
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    states = tuple(
        tuple(_standard_bit(state, bit, bits) for bit in range(bits))
        for state in range(1 << bits)
    )
    label = name or {1: "slc", 2: "mlc-1-2", 3: "tlc-1-2-4", 4: "qlc-1-2-4-8"}.get(
        bits, f"standard-{bits}bit"
    )
    return GrayCoding(label, states)
