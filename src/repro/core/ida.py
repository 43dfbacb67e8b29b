"""The Invalid Data-Aware (IDA) coding transform (Sec. III-B, Figs. 5 & 6).

Once some bits of a cell have been *invalidated* (their logical pages were
overwritten elsewhere), distinct voltage states that agree on the surviving
bits have become indistinguishable in every way that matters.  The IDA
transform merges them: every state moves **rightward** (higher voltage —
the only direction ISPP can move a cell without an erase) onto the last
state sharing its valid-bit projection.  The surviving bits then read with
far fewer senses.

For the conventional TLC coding this reproduces the paper's examples:

* LSB invalid (Fig. 5): S1→S8, S2→S7, S3→S6, S4→S5; CSB reads with one
  sense (V6) instead of two, MSB with two (V5, V7) instead of four.
* LSB and CSB invalid (Table I cases 3–4): all states collapse onto
  {S7, S8}; MSB reads with a single sense.
* QLC with the two lower bits invalid (Fig. 6): sixteen states collapse to
  four; Bit 4 drops from 8 senses to 2, Bit 3 from 4 to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .coding import BitTuple, GrayCoding

__all__ = ["IdaTransform", "merge_states"]


def merge_states(
    coding: GrayCoding, valid_bits: Sequence[int]
) -> tuple[int, ...]:
    """Per-state move map of the IDA merge.

    Returns a tuple ``move`` with ``move[s]`` the state that state ``s``
    is driven to.  ``move[s] >= s`` always holds (ISPP feasibility): the
    representative of a projection is its *rightmost* occurrence, and each
    state trivially shares its own projection.

    Args:
        coding: The base (conventional) coding.
        valid_bits: Bit positions whose data is still valid, e.g.
            ``(1, 2)`` for a TLC wordline whose LSB was invalidated.

    Raises:
        ValueError: if ``valid_bits`` is empty (nothing left to read — the
            paper's "case 8", where there is nothing to do) or contains
            duplicates / out-of-range positions.
    """
    valid = tuple(sorted(set(valid_bits)))
    if not valid:
        raise ValueError("IDA merge needs at least one valid bit")
    if valid != tuple(sorted(valid_bits)):
        raise ValueError(f"duplicate bit positions in {valid_bits!r}")
    if valid[0] < 0 or valid[-1] >= coding.bits:
        raise ValueError(
            f"valid bits {valid!r} out of range for {coding.bits}-bit coding"
        )

    def projection(state: int) -> BitTuple:
        return tuple(coding.states[state][bit] for bit in valid)

    rightmost: dict[BitTuple, int] = {}
    for state in range(coding.num_states):
        rightmost[projection(state)] = state
    return tuple(rightmost[projection(state)] for state in range(coding.num_states))


@dataclass(frozen=True)
class IdaTransform:
    """A fully-resolved IDA reprogramming of one coding.

    Attributes:
        base: The conventional coding the block was written with.
        valid_bits: Ascending bit positions that remain valid.
        move_map: ``move_map[s]`` = target state of original state ``s``.
        merged_states: The surviving states, in voltage order.
    """

    base: GrayCoding
    valid_bits: tuple[int, ...]
    move_map: tuple[int, ...] = field(init=False)
    merged_states: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        valid = tuple(sorted(set(self.valid_bits)))
        object.__setattr__(self, "valid_bits", valid)
        move = merge_states(self.base, valid)
        object.__setattr__(self, "move_map", move)
        object.__setattr__(self, "merged_states", tuple(sorted(set(move))))

    # ------------------------------------------------------------------
    # Read structure after the merge
    # ------------------------------------------------------------------
    def boundaries(self, bit: int) -> tuple[int, ...]:
        """Original read-voltage indices still needed to resolve ``bit``.

        A boundary is kept exactly where the bit's value flips between
        consecutive *merged* states; the hardware read voltage is the one
        just below the right-hand state (``V_s`` for merged neighbour pair
        ending at state ``s``), matching Fig. 5's use of V5/V6/V7.
        """
        if bit not in self.valid_bits:
            raise ValueError(f"bit {bit} is invalid under this transform")
        kept = []
        ordered = self.merged_states
        for left, right in zip(ordered, ordered[1:]):
            if self.base.states[left][bit] != self.base.states[right][bit]:
                kept.append(right)
        return tuple(kept)

    def senses(self, bit: int) -> int:
        """Senses needed to read ``bit`` after reprogramming."""
        return len(self.boundaries(bit))

    def sense_counts(self) -> dict[int, int]:
        """Post-merge sense count for every valid bit."""
        return {bit: self.senses(bit) for bit in self.valid_bits}

    def read_voltages(self, bit: int) -> tuple[str, ...]:
        """Paper-style names of the read voltages used after the merge."""
        return tuple(f"V{i}" for i in self.boundaries(bit))

    def decode(self, state: int, bit: int) -> int:
        """Value of valid ``bit`` for a cell at merged ``state``."""
        if bit not in self.valid_bits:
            raise ValueError(f"bit {bit} is invalid under this transform")
        if state not in self.merged_states:
            raise ValueError(
                f"state S{state + 1} cannot occur after this IDA merge"
            )
        return self.base.states[state][bit]

    def describe(self) -> str:
        """Multi-line human-readable dump (used by the coding explorer)."""
        valid_names = ", ".join(f"bit{b}" for b in self.valid_bits)
        lines = [
            f"IDA transform of {self.base.name!r} with valid bits [{valid_names}]",
            "moves: "
            + ", ".join(
                f"S{s + 1}->S{t + 1}"
                for s, t in enumerate(self.move_map)
                if s != t
            ),
            "merged states: " + ", ".join(f"S{s + 1}" for s in self.merged_states),
        ]
        for bit in self.valid_bits:
            lines.append(
                f"bit{bit}: {self.base.senses(bit)} -> {self.senses(bit)} senses "
                f"({', '.join(self.read_voltages(bit)) or 'none'})"
            )
        return "\n".join(lines)
