"""IDA merge invariants over *arbitrary* valid Gray codings.

The paper claims IDA "is general, which can be combined with any coding
scheme in any high bit density flash" (Sec. III-B).  These property tests
back that claim: the merge invariants hold not just for the standard
coding family but for randomly permuted/inverted Gray codings too.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.coding import GrayCoding, standard_coding
from repro.core.ida import IdaTransform, merge_states


@st.composite
def random_gray_codings(draw):
    """Valid Gray codings via bit-role permutation and value inversion."""
    bits = draw(st.integers(min_value=2, max_value=4))
    permutation = draw(st.permutations(range(bits)))
    inversion = draw(st.tuples(*[st.integers(0, 1) for _ in range(bits)]))
    base = standard_coding(bits)
    states = tuple(
        tuple(base.states[s][permutation[b]] ^ inversion[b] for b in range(bits))
        for s in range(base.num_states)
    )
    return GrayCoding("random", states)


@st.composite
def coding_and_valid_bits(draw):
    coding = draw(random_gray_codings())
    mask = draw(st.integers(min_value=1, max_value=coding.num_states - 1))
    valid = tuple(b for b in range(coding.bits) if mask & (1 << b))
    if not valid:
        valid = (coding.bits - 1,)
    return coding, valid


class TestGenericMergeInvariants:
    @given(coding_and_valid_bits())
    def test_rightward_only(self, case):
        coding, valid = case
        move = merge_states(coding, valid)
        assert all(move[s] >= s for s in range(coding.num_states))

    @given(coding_and_valid_bits())
    def test_surviving_bits_preserved(self, case):
        coding, valid = case
        move = merge_states(coding, valid)
        for state in range(coding.num_states):
            for bit in valid:
                assert coding.states[move[state]][bit] == coding.states[state][bit]

    @given(coding_and_valid_bits())
    def test_merged_set_size(self, case):
        coding, valid = case
        transform = IdaTransform(coding, valid)
        assert len(transform.merged_states) == 1 << len(valid)

    @given(coding_and_valid_bits())
    def test_senses_never_increase(self, case):
        coding, valid = case
        transform = IdaTransform(coding, valid)
        for bit in valid:
            assert transform.senses(bit) <= coding.senses(bit)

    @given(coding_and_valid_bits())
    def test_total_senses_lower_bounded_by_merged_boundaries(self, case):
        # Distinguishing 2^v merged states needs at least |merged|-1
        # boundaries in total.  Equality holds iff the merged sequence is
        # itself Gray — true for the standard family's suffix merges (see
        # the next test) but NOT for arbitrary codings, where adjacent
        # merged states may differ in several surviving bits.  This is
        # why the paper's coding choice matters: IDA composes with any
        # coding, but the conventional family extracts the optimum.
        coding, valid = case
        transform = IdaTransform(coding, valid)
        total = sum(transform.senses(bit) for bit in valid)
        assert total >= len(transform.merged_states) - 1

    def test_standard_family_suffix_merges_are_optimal(self):
        # For the conventional codings, every kept-suffix merge hits the
        # information-theoretic minimum: |merged|-1 total senses.
        for bits in (2, 3, 4):
            coding = standard_coding(bits)
            for start in range(1, bits):
                valid = tuple(range(start, bits))
                transform = IdaTransform(coding, valid)
                total = sum(transform.senses(bit) for bit in valid)
                assert total == len(transform.merged_states) - 1

    @given(coding_and_valid_bits())
    def test_merge_idempotent(self, case):
        coding, valid = case
        move = merge_states(coding, valid)
        assert all(move[move[s]] == move[s] for s in range(coding.num_states))

    @given(coding_and_valid_bits())
    def test_readback_correct_after_merge(self, case):
        # Boundary sensing on the merged layout recovers every surviving
        # bit of every original state.
        coding, valid = case
        transform = IdaTransform(coding, valid)
        for state in range(coding.num_states):
            target = transform.move_map[state]
            for bit in valid:
                boundaries = transform.boundaries(bit)
                crossed = sum(1 for b in boundaries if target >= b)
                lowest = transform.merged_states[0]
                anchor = coding.states[lowest][bit]
                sensed = anchor if crossed % 2 == 0 else 1 - anchor
                assert sensed == coding.states[state][bit]
