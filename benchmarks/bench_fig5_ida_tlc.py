"""Fig. 5 — the TLC IDA merge (LSB invalidated).

Micro-benchmarks the merge computation and prints the paper's move table
(S1->S8 ... S4->S5, CSB 2->1 senses at V6, MSB 4->2 at V5/V7).
"""

from __future__ import annotations

from repro.core import IdaTransform, conventional_tlc, merge_states


def test_fig5_merge(benchmark):
    coding = conventional_tlc()
    move = benchmark(merge_states, coding, (1, 2))
    assert move == (7, 6, 5, 4, 4, 5, 6, 7)
    transform = IdaTransform(coding, (1, 2))
    print()
    print(transform.describe())
    assert transform.senses(1) == 1
    assert transform.senses(2) == 2

