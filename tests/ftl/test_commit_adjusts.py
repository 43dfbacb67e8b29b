"""``Ftl.commit_adjusts`` equals a ``commit_adjust`` loop.

An internal chain's quiet run commits every adjust it served in one
vectorized write of the summary and journal columns.  Twin FTLs refresh
until ADJUST intents are journaled; one commits them one call at a time,
the other in one batch (shuffled, with repeats and a wordline-less
ADJUST mixed in), and every device column must match byte for byte.  A
simulation whose quiet runs commit thousands of adjusts must leave
``check_coding_invariants`` clean.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import runner
from repro.experiments.config import RunScale
from repro.experiments.systems import ida
from repro.faults import check_coding_invariants
from repro.ftl.ftl import Ftl
from repro.ftl.refresh import RefreshMode
from repro.workloads import workload
from tests.ftl.test_refresh_columnar import FOOTPRINT, PERIOD_US, _ftl
from tests.ftl.test_untimed_batch import _fingerprint


def _journaled(ftl: Ftl) -> tuple[np.ndarray, np.ndarray]:
    """``(blocks, wordlines)`` of every uncommitted ADJUST intent."""
    state = ftl.table.state
    return np.divmod(np.flatnonzero(state.journal_kept_np), state.wordlines_per_block)


def test_batch_equals_the_loop() -> None:
    loop, batch = twins = _ftl(3, RefreshMode.IDA, 0.2), _ftl(3, RefreshMode.IDA, 0.2)
    footprint = int(FOOTPRINT * loop.geometry.total_pages)
    for ftl in twins:
        ftl.apply_untimed_batch(range(footprint), 0.0)
        ftl.apply_untimed_batch(range(0, footprint, 3), 0.0)
        ftl.check_refresh(PERIOD_US)
    blocks, wordlines = _journaled(loop)
    assert len(blocks) > 20
    assert _fingerprint(loop) == _fingerprint(batch)
    order = np.random.default_rng(0).permutation(len(blocks))
    blocks = np.concatenate([blocks[order], blocks[:5], blocks[:1]]).astype(np.int32)
    wordlines = np.concatenate([wordlines[order], wordlines[:5], [-1]]).astype(np.int32)
    for block, wordline in zip(blocks.tolist(), wordlines.tolist()):
        loop.commit_adjust(block, None if wordline < 0 else wordline)
    batch.commit_adjusts(blocks, wordlines)
    assert _fingerprint(batch) == _fingerprint(loop)
    assert len(_journaled(batch)[0]) == 0


def test_quiet_runs_commit_thousands_of_adjusts_cleanly(monkeypatch) -> None:
    batches: list[int] = []
    sims = []
    commit_adjusts = Ftl.commit_adjusts

    def counting(ftl, blocks, wordlines):
        batches.append(len(blocks))
        commit_adjusts(ftl, blocks, wordlines)

    class Captured(runner.SsdSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(Ftl, "commit_adjusts", counting)
    monkeypatch.setattr(runner, "SsdSimulator", Captured)
    runner.run_workload(ida(0.2), workload("usr_1"), RunScale.quick(), seed=1)
    assert sum(batches) > 1000
    assert max(batches) > 1
    assert check_coding_invariants(sims[-1].ftl) == []
