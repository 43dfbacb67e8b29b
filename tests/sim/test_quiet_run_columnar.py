"""Quiet runs served as arrays against the per-op loop they replaced.

An internal chain serves a quiet run from its plan columns: one
``np.cumsum`` for the instants, a ``searchsorted`` against the horizon,
ordered ``np.add.at`` sums for each resource's busy time and one batched
adjust commit.  ``_run_oracle.py`` keeps the loop it replaced, which
timed, credited and completed one op per iteration.  Twin simulators,
one of each, run the seeded scenarios of
``test_internal_chain_differential.py`` (refresh passes, GC, scripted
chains on shared dies, both scheduling policies, the profiler, fault
plans) and
the ``usr_1`` quick cell.  Both post one event per run, so everything
observable must match exactly, with no exceptions: each internal op's
``(start, end)`` and its place among host events and adjust commits
(and the commits' clock stamps), ``processed`` and ``peak_pending``,
each resource's busy, queue-wait and wait-class accounting and last
service window, the profiler payload and the fault record.

A property test pins the arithmetic itself: over random durations and
absent stages, :func:`~repro.sim.ssd.run_instants` and
:func:`~repro.sim.ssd.ordered_sums` equal the left-to-right float loops
bit for bit, whatever a future numpy does with ``cumsum`` or ``add.at``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import runner
from repro.experiments.config import RunScale
from repro.experiments.reporting import metrics_summary
from repro.experiments.systems import baseline, ida
from repro.sim.ssd import SsdSimulator, _InternalChain, ordered_sums, run_instants
from repro.workloads import workload
from tests.sim._run_oracle import LoopSimulator
from tests.sim.test_internal_chain_differential import SEEDS, _run_chain


def _last_windows(sim) -> list[tuple]:
    return [
        (r.busy_us, list(r.busy_us_by_class), r._klass, r._start_us, r._end_us)
        for r in sim.dies + sim.channels
    ]


@pytest.mark.parametrize("windows", [None, (4, 16)], ids=["windows", "small-windows"])
@pytest.mark.parametrize("seed", SEEDS)
def test_columnar_runs_match_the_loop(seed, windows, monkeypatch):
    """With the default windows, and with windows so small that the
    scenarios' runs span many of them and reach the cap."""
    # Its own patch context: ``_run_chain`` undoes ``monkeypatch``.
    with pytest.MonkeyPatch.context() as sizes:
        if windows is not None:
            sizes.setattr(_InternalChain, "_WINDOW", windows[0])
            sizes.setattr(_InternalChain, "_MAX_WINDOW", windows[1])
        columnar = _run_chain(seed, monkeypatch)
    loop = _run_chain(seed, monkeypatch, simulator_cls=LoopSimulator)
    assert len(columnar["internal"]) > 20
    for key in loop:
        if key != "sim":
            assert columnar[key] == loop[key], key
    assert _last_windows(columnar["sim"]) == _last_windows(loop["sim"])


@pytest.mark.parametrize("system", ["baseline", "ida-e20"])
def test_quick_usr_1_cell_matches_the_loop(system, monkeypatch):
    spec = {"baseline": baseline, "ida-e20": lambda: ida(0.2)}[system]()

    runs: list[int] = []
    complete_run = _InternalChain._complete_run

    def noting_run(chain, lo, times):
        runs.append(len(times))
        complete_run(chain, lo, times)

    def run(simulator_cls):
        sims = []

        class Captured(simulator_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sims.append(self)

        monkeypatch.setattr(runner, "SsdSimulator", Captured)
        monkeypatch.setattr(_InternalChain, "_complete_run", noting_run)
        result = runner.run_workload(spec, workload("usr_1"), RunScale.quick(), seed=1)
        monkeypatch.undo()
        sim = sims[-1]
        return (
            metrics_summary(result.metrics),
            result.queue_wait,
            result.utilisation,
            sim.engine.processed,
            sim.engine.peak_pending,
            _last_windows(sim),
        )

    mine = run(SsdSimulator)
    # Some run spans several windows.
    assert max(runs) > 4 * _InternalChain._WINDOW
    theirs = run(LoopSimulator)
    assert mine[0]["counters"]["phys_ops_dispatched"] > 10_000
    assert mine == theirs


_DURATIONS = st.floats(min_value=0.0, max_value=5000.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    start=st.floats(min_value=0.0, max_value=1e10, allow_nan=False),
    ops=st.lists(
        st.tuples(_DURATIONS, st.none() | _DURATIONS, st.none() | _DURATIONS),
        min_size=1,
        max_size=80,
    ),
)
def test_run_instants_equal_the_per_op_loop(start, ops):
    increments = np.array(
        [(first, second or 0.0, latency or 0.0) for first, second, latency in ops]
    )
    expected = []
    end = start
    for first, second, latency in ops:
        mid = end + first
        done = mid if second is None else mid + second
        end = done if latency is None else done + latency
        expected.append([mid, done, end])
    assert run_instants(start, increments).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.lists(st.floats(min_value=0.0, max_value=1e10, allow_nan=False), min_size=1, max_size=8),
    data=st.data(),
)
def test_ordered_sums_equal_the_loop(seeds, data):
    stages = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(seeds) - 1), _DURATIONS), max_size=200
        )
    )
    slots = np.array([slot for slot, _ in stages], dtype=np.intp)
    values = np.array([value for _, value in stages], dtype=np.float64)
    expected = list(seeds)
    for slot, value in stages:
        expected[slot] += value
    assert ordered_sums(seeds, slots, values).tolist() == expected
