"""The update working set as the original set-based loop computes it.

The oracle of ``test_working_set_oracle.py``: chunks of
``update_chunk_pages`` pages join a Python set one at a time until it
holds ``aging_update_fraction`` of the footprint.  Shares only
``_pick_starts`` (the chunk-start draw) with
:func:`repro.workloads.synthetic.update_working_set`.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.synthetic import WorkloadSpec, _pick_starts


def oracle_working_set(spec: WorkloadSpec) -> np.ndarray:
    quota = int(spec.footprint_pages * spec.aging_update_fraction)
    if quota <= 0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(spec.effective_seed() + 2)
    chosen: set[int] = set()
    starts = _pick_starts(rng, max(8, 4 * quota // spec.update_chunk_pages), spec)
    for start in starts:
        if len(chosen) >= quota:
            break
        begin = int(start)
        end = min(spec.footprint_pages, begin + spec.update_chunk_pages)
        chosen.update(range(begin, end))
    return np.sort(np.fromiter(chosen, dtype=np.int64))


def oracle_aging_lpns(spec: WorkloadSpec) -> list[int]:
    """``generate_workload(spec).aging_lpns``: the set, permuted."""
    rng = np.random.default_rng(spec.effective_seed())
    return [int(lpn) for lpn in rng.permutation(oracle_working_set(spec))]


def oracle_update_lpns(
    spec: WorkloadSpec, count: int, seed_offset: int = 1
) -> list[int]:
    """``sample_update_lpns(spec, count, seed_offset)``."""
    if count <= 0:
        return []
    working_set = oracle_working_set(spec)
    if len(working_set) == 0:
        return []
    rng = np.random.default_rng(spec.effective_seed() + seed_offset)
    picks = rng.integers(0, len(working_set), size=count)
    return [int(working_set[i]) for i in picks]
