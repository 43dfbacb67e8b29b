"""Tests for the page map (repro.ftl.mapping).

Each map runs over a small OOB column, stamped the way the FTL stamps
it: a program binds and then writes the page's record, a relocation
copies the record onto the destination and then rebinds.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.state import NO_LPN
from repro.ftl.mapping import PageMap

PAGES = 1000


def _map() -> tuple[PageMap, array]:
    oob = array("q", [NO_LPN] * PAGES)
    return PageMap(oob), oob


def _program(m: PageMap, oob: array, lpn: int, ppn: int) -> int | None:
    old = m.bind(lpn, ppn)
    oob[ppn] = lpn
    return old


def _move(m: PageMap, oob: array, old_ppn: int, new_ppn: int) -> int:
    oob[new_ppn] = oob[old_ppn]
    return m.rebind_physical(old_ppn, new_ppn)


class TestBasicOperations:
    def test_lookup_unmapped(self):
        m, _ = _map()
        assert m.lookup(7) is None

    def test_bind_and_lookup(self):
        m, oob = _map()
        _program(m, oob, 7, 100)
        assert m.lookup(7) == 100
        assert m.owner(100) == 7
        assert 7 in m
        assert len(m) == 1

    def test_rebind_same_lpn_releases_old_ppn(self):
        m, oob = _map()
        _program(m, oob, 7, 100)
        old = _program(m, oob, 7, 200)
        assert old == 100
        assert m.lookup(7) == 200
        assert m.owner(100) is None
        assert m.owner(200) == 7

    def test_bind_occupied_ppn_raises(self):
        m, oob = _map()
        _program(m, oob, 7, 100)
        with pytest.raises(ValueError, match="already holds"):
            m.bind(8, 100)

    def test_unbind(self):
        m, oob = _map()
        _program(m, oob, 7, 100)
        assert m.unbind(7) == 100
        assert m.lookup(7) is None
        assert m.owner(100) is None
        assert m.unbind(7) is None

    def test_rebind_physical(self):
        m, oob = _map()
        _program(m, oob, 7, 100)
        assert _move(m, oob, 100, 555) == 7
        assert m.lookup(7) == 555
        assert m.owner(100) is None
        assert m.owner(555) == 7

    def test_rebind_physical_unowned_raises(self):
        m, oob = _map()
        with pytest.raises(KeyError):
            _move(m, oob, 100, 200)
        # A stale copy (its LPN since rewritten elsewhere) is not live.
        _program(m, oob, 7, 100)
        _program(m, oob, 7, 300)
        with pytest.raises(KeyError):
            _move(m, oob, 100, 200)
        assert m.lookup(7) == 300

    def test_owners_gathers_and_rejects_dead_pages(self):
        m, oob = _map()
        for lpn, ppn in ((3, 30), (4, 40), (5, 50)):
            _program(m, oob, lpn, ppn)
        owners = m.owners(np.array([50, 30], dtype=np.int64))
        assert owners.tolist() == [5, 3]
        with pytest.raises(KeyError):
            m.owners(np.array([30, 31], dtype=np.int64))

    def test_bind_batch_retires_displaced_pages(self):
        m, oob = _map()
        _program(m, oob, 3, 30)
        lpns = np.array([3, 9], dtype=np.int64)
        ppns = np.array([60, 61], dtype=np.int64)
        oob[60], oob[61] = 3, 9
        m.bind_batch(lpns, ppns)
        assert dict(m.items()) == {3: 60, 9: 61}
        assert m.owner(30) is None
        assert (m.owner(60), m.owner(61)) == (3, 9)

    def test_load_forward_round_trip(self):
        m, oob = _map()
        for lpn, ppn in ((0, 10), (6000, 11)):
            _program(m, oob, lpn, ppn)
        restored = PageMap(oob)
        restored.load_forward(m.export_forward())
        assert dict(restored.items()) == {0: 10, 6000: 11}
        assert restored.owner(11) == 6000
        with pytest.raises(ValueError, match="whole number"):
            restored.load_forward(b"\x00" * 7)


class TestInverseInvariant:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["bind", "unbind", "move"]),
                st.integers(0, 19),  # lpn
                st.integers(0, 99),  # ppn
            ),
            max_size=60,
        )
    )
    def test_forward_and_reverse_stay_inverse(self, operations):
        oob = array("q", [NO_LPN] * 100)
        m = PageMap(oob)
        for op, lpn, ppn in operations:
            if op == "bind":
                owner = m.owner(ppn)
                if owner is not None and owner != lpn:
                    continue  # would be rejected
                _program(m, oob, lpn, ppn)
            elif op == "unbind":
                m.unbind(lpn)
            else:  # move the lpn's data to ppn if possible
                current = m.lookup(lpn)
                if current is None or m.owner(ppn) is not None:
                    continue
                _move(m, oob, current, ppn)
        # Invariant: owner(ppn) == lpn exactly when lookup(lpn) == ppn.
        for lpn in range(20):
            for ppn in range(100):
                assert (m.owner(ppn) == lpn) == (m.lookup(lpn) == ppn)
