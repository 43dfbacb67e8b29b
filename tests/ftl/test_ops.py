"""Tests for the FTL <-> simulator op record (repro.ftl.ops.PhysOp)."""

from __future__ import annotations

import pickle

import pytest

from repro.ftl.ops import OpKind, PhysOp


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


def test_bulk_builders_equal_the_constructor():
    reads = PhysOp.reads(7, [0, 4, 5], [1, 2, 4], [0, 1, 2])
    assert reads == [
        PhysOp(OpKind.READ, 7, 0, 1, 0),
        PhysOp(OpKind.READ, 7, 4, 2, 1),
        PhysOp(OpKind.READ, 7, 5, 4, 2),
    ]
    writes = PhysOp.writes([3, 9], [10, 11])
    assert writes == [PhysOp(OpKind.WRITE, 3, 10), PhysOp(OpKind.WRITE, 9, 11)]
    assert all(type(op) is PhysOp for op in reads + writes)
