"""The numpy update working set against the set-based loop it replaced.

:func:`~repro.workloads.synthetic.update_working_set` finds, per page,
the first chunk that covers it and stops where the union first reaches
the quota; ``_working_set_oracle.py`` keeps the loop that adds chunks to
a Python set one by one.  Both must give the same sorted int64 array,
and the warm-up and background streams drawn from it must be the same
lists of Python ints.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import ALL_WORKLOADS
from repro.workloads.synthetic import (
    WorkloadSpec,
    generate_workload,
    sample_update_lpns,
    update_working_set,
)
from tests.workloads._working_set_oracle import (
    oracle_aging_lpns,
    oracle_update_lpns,
    oracle_working_set,
)


@settings(max_examples=200, deadline=None)
@given(
    footprint=st.integers(16, 3000),
    fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    chunk=st.one_of(st.integers(1, 64), st.integers(1, 5000)),
    hot_fraction=st.one_of(st.just(1.0), st.floats(0.001, 1.0)),
    hot_access_prob=st.floats(0.0, 1.0),
    seed=st.integers(1, 2**31),
)
def test_working_set_matches_the_loop(
    footprint, fraction, chunk, hot_fraction, hot_access_prob, seed
):
    spec = WorkloadSpec(
        name="oracle",
        footprint_pages=footprint,
        aging_update_fraction=fraction,
        update_chunk_pages=chunk,
        hot_fraction=hot_fraction,
        hot_access_prob=hot_access_prob,
        seed=seed,
    )
    working = update_working_set(spec)
    assert working.dtype == np.int64
    assert np.array_equal(working, oracle_working_set(spec))


def _exact(values: list) -> list:
    """``values`` paired with their types, so an ``np.int64`` never
    compares equal to the ``int`` the loop produced."""
    return [(type(value), value) for value in values]


@pytest.mark.parametrize("footprint", [6_000, 48_000])
@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_catalog_streams_match_the_loop(name, footprint):
    spec = ALL_WORKLOADS[name].scaled(100, footprint)
    generated = generate_workload(spec)
    assert np.array_equal(generated.update_set, oracle_working_set(spec))
    assert _exact(generated.aging_lpns) == _exact(oracle_aging_lpns(spec))
    expected = _exact(oracle_update_lpns(spec, 2_000))
    assert _exact(sample_update_lpns(spec, 2_000)) == expected
    assert _exact(
        sample_update_lpns(spec, 2_000, working_set=generated.update_set)
    ) == expected
    assert _exact(sample_update_lpns(spec, 500, seed_offset=9)) == _exact(
        oracle_update_lpns(spec, 500, seed_offset=9)
    )


def test_zero_quota_streams_are_empty():
    spec = replace(ALL_WORKLOADS["usr_1"], aging_update_fraction=0.0)
    generated = generate_workload(spec.scaled(50))
    assert generated.aging_lpns == []
    assert generated.update_set.dtype == np.int64
    assert sample_update_lpns(spec, 100, working_set=generated.update_set) == []
