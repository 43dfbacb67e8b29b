"""Tests for the FTL <-> simulator op records (repro.ftl.ops.PhysOp, OpTable)."""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.ftl.ops import OpKind, OpTable, PhysOp
from repro.ftl.refresh import RefreshMode
from tests.ftl import _refresh_oracle as oracle
from tests.ftl.test_refresh_columnar import FOOTPRINT, _ftl


def test_fields_cannot_be_assigned():
    op = PhysOp(kind=OpKind.READ, block_index=3, page=1, senses=2)
    with pytest.raises(AttributeError):
        op.block_index = 4
    with pytest.raises(AttributeError):
        op.not_a_field = 1
    assert op.block_index == 3


def test_keyword_construction_fills_the_defaults():
    op = PhysOp(kind=OpKind.ERASE, block_index=7)
    assert op.kind is OpKind.ERASE
    assert op.block_index == 7
    assert op.page is None
    assert op.senses == 0
    assert op.bit is None
    assert op.wl_validity is None
    assert op.from_ida is False
    assert op.wordline is None


def test_equal_fields_compare_equal():
    a = PhysOp(kind=OpKind.READ, block_index=1, page=2, senses=3, bit=0,
               wl_validity=(True, False, True), from_ida=True)
    b = PhysOp(kind=OpKind.READ, block_index=1, page=2, senses=3, bit=0,
               wl_validity=(True, False, True), from_ida=True)
    assert a == b
    assert hash(a) == hash(b)
    assert a != PhysOp(kind=OpKind.READ, block_index=1, page=2, senses=2, bit=0,
                       wl_validity=(True, False, True), from_ida=True)
    assert pickle.loads(pickle.dumps(a)) == a


def test_op_table_round_trips_every_internal_op_shape():
    ops = [
        PhysOp(OpKind.READ, 7, 0, 1, 0),
        PhysOp(OpKind.READ, 7, 5, 4),  # no page type
        PhysOp(OpKind.WRITE, 3, 10),
        PhysOp(OpKind.ADJUST, 7, wordline=2),
        PhysOp(OpKind.ADJUST, 7),  # no wordline
        PhysOp(OpKind.ERASE, 7),
    ]
    table = OpTable.of(ops)
    assert len(table) == len(ops)
    assert [table.op(i) for i in range(len(table))] == ops
    assert list(table) == ops
    assert table.kind.tolist() == [0, 0, 1, 2, 2, 3]
    assert table.page.tolist() == [0, 5, 10, -1, -1, -1]
    assert table.bit.tolist() == [0, -1, -1, -1, -1, -1]
    assert table.wordline.tolist() == [-1, -1, -1, 2, -1, -1]
    assert all(type(op) is PhysOp for op in table)


def test_op_table_rejects_a_host_read():
    with pytest.raises(ValueError, match="host read"):
        OpTable.of([PhysOp(OpKind.READ, 1, 2, 3, 0, (True, True, True), True)])


def test_array_rows_and_single_rows_keep_their_order():
    table = OpTable()
    table.add_reads(7, np.array([0, 4, 5]), np.array([1, 2, 4]), np.array([0, 1, 2]))
    table.append(PhysOp(OpKind.READ, 9, 1, 2, 1))
    table.extend([PhysOp(OpKind.WRITE, 2, 3), PhysOp(OpKind.ERASE, 9)])
    table.reserve_writes(2)[:] = [[3, 10], [9, 11]]
    table.add_adjusts(7, np.array([1, 3]))
    table.add_reads(7, np.array([], dtype=np.int64), np.array([]), np.array([]))
    assert list(table) == [
        PhysOp(OpKind.READ, 7, 0, 1, 0),
        PhysOp(OpKind.READ, 7, 4, 2, 1),
        PhysOp(OpKind.READ, 7, 5, 4, 2),
        PhysOp(OpKind.READ, 9, 1, 2, 1),
        PhysOp(OpKind.WRITE, 2, 3),
        PhysOp(OpKind.ERASE, 9),
        PhysOp(OpKind.WRITE, 3, 10),
        PhysOp(OpKind.WRITE, 9, 11),
        PhysOp(OpKind.ADJUST, 7, wordline=1),
        PhysOp(OpKind.ADJUST, 7, wordline=3),
    ]
    # Appending after the columns were read extends them.
    table.append(PhysOp(OpKind.ERASE, 7))
    assert table.op(len(table) - 1) == PhysOp(OpKind.ERASE, 7)
    assert len(table.rows()) == 11


def test_refresh_tick_rows_rebuild_the_ops_the_scalar_flow_built():
    """``op(i)`` of a refresh tick's table equals the op the per-page
    refresh flow built at position ``i``: reads, relocation writes,
    adjusts, and the reads, writes and erases of GC passes the moves
    triggered, interleaved where they were issued."""
    columnar = _ftl(3, RefreshMode.IDA, 0.2)
    scalar = _ftl(3, RefreshMode.IDA, 0.2)
    rng = random.Random(0)
    footprint = int(FOOTPRINT * columnar.geometry.total_pages)
    for ftl in (columnar, scalar):
        ftl.apply_untimed_batch(range(footprint), 0.0)
    kinds: set[OpKind] = set()
    for step in range(1, 11):
        now = 300.0 * step
        lpns = [rng.randrange(footprint) for _ in range(60)]
        for ftl in (columnar, scalar):
            ftl.apply_untimed_batch(lpns, now)
        table = columnar.check_refresh(now)
        expected = oracle.check_refresh(scalar, now)
        assert [table.op(i) for i in range(len(table))] == expected
        kinds.update(op.kind for op in expected)
    assert kinds == set(OpKind)
