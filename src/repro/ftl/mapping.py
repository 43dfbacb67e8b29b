"""Page-level address translation.

A straightforward page-mapping FTL table: logical page number (LPN) to
physical page number (PPN).  GC and refresh also need the reverse
direction, the owner of a physical page they are about to move; a real
controller reads it from the page's out-of-band (OOB) record, and so
does this map.

The forward map is columnar: one growable ``int64`` entry per LPN
(:data:`NO_PPN` = unmapped) instead of a dict.  At the paper's full
512 GB topology the logical space is tens of millions of pages — a flat
column holds that in a few hundred MB worst-case and answers batched
lookups (:meth:`PageMap.lookup_many`) as one numpy gather, which the
columnar untimed writes lean on.  The reverse map is the device's
per-page OOB column (:attr:`DeviceState.oob_lpn
<repro.flash.state.DeviceState.oob_lpn>`), which every program already
stamps and the power-loss mount already rebuilds the map from: a page
``ppn`` is live for ``lpn`` iff ``oob_lpn[ppn] == lpn`` and
``forward[lpn] == ppn``.  Keeping no second copy means a snapshot
restore is one copy of the forward column, and the two directions can
never disagree.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator

import numpy as np

__all__ = ["PageMap", "NO_PPN"]

#: Forward-column sentinel: this LPN is unmapped.
NO_PPN = -1

_GROW_CHUNK = 4096


class PageMap:
    """LPN -> PPN map whose reverse direction is the OOB column.

    The map writes only its forward column.  Whoever programs a page
    stamps its OOB record: :meth:`bind` checks the page's record before
    the caller stamps it, and :meth:`rebind_physical` reads the record
    the caller has just copied onto the destination.

    Invariant (property-tested): :meth:`owner` and :meth:`lookup` are
    exact inverses at all times.

    Args:
        oob_lpn: The device's per-page OOB LPN column; the caller never
            rebinds or resizes it.
    """

    def __init__(self, oob_lpn: array) -> None:
        # Growable int64 column over the dense LPN space; -1 = unmapped.
        self._forward = array("q")
        self._oob = oob_lpn
        self._oob_np = np.frombuffer(oob_lpn, dtype=np.int64)

    def _grow_to(self, lpn: int) -> None:
        """Extend the forward column to cover ``lpn`` (chunked)."""
        needed = lpn + 1 - len(self._forward)
        chunk = max(needed, _GROW_CHUNK)
        self._forward.extend([NO_PPN] * chunk)

    def _column(self) -> np.ndarray:
        """A zero-copy view of the forward column."""
        return np.frombuffer(self._forward, dtype=np.int64)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._column() != NO_PPN))

    def __contains__(self, lpn: int) -> bool:
        forward = self._forward
        return 0 <= lpn < len(forward) and forward[lpn] != NO_PPN

    def mapped(self) -> tuple[np.ndarray, np.ndarray]:
        """Every mapped ``(lpns, ppns)`` pair as two columns, by LPN."""
        column = self._column()
        lpns = np.flatnonzero(column != NO_PPN)
        return lpns, column[lpns]

    def items(self) -> Iterator[tuple[int, int]]:
        """All (lpn, ppn) pairs, ascending by LPN."""
        lpns, ppns = self.mapped()
        return zip(lpns.tolist(), ppns.tolist())

    def lookup(self, lpn: int) -> int | None:
        """PPN currently holding ``lpn``, or None when unmapped."""
        forward = self._forward
        if not 0 <= lpn < len(forward):
            return None
        ppn = forward[lpn]
        return None if ppn == NO_PPN else ppn

    def lookup_many(self, lpns) -> np.ndarray:
        """Batched :meth:`lookup`: one gather, :data:`NO_PPN` = unmapped."""
        lpns = np.asarray(lpns, dtype=np.int64)
        out = np.full(len(lpns), NO_PPN, dtype=np.int64)
        if len(self._forward):
            forward = self._column()
            in_range = (lpns >= 0) & (lpns < len(forward))
            out[in_range] = forward[lpns[in_range]]
        return out

    def owner(self, ppn: int) -> int | None:
        """LPN stored at ``ppn``, or None when the page holds no live data."""
        lpn = self._oob[ppn]
        forward = self._forward
        if 0 <= lpn < len(forward) and forward[lpn] == ppn:
            return lpn
        return None

    def owners(self, ppns: np.ndarray) -> np.ndarray:
        """LPNs stored at live pages ``ppns`` (batched :meth:`owner`).

        Raises:
            KeyError: if a page holds no live data, as
                :meth:`rebind_physical` does.
        """
        lpns = self._oob_np[ppns]
        forward = self._column()
        live = (lpns >= 0) & (lpns < len(forward))
        live[live] = forward[lpns[live]] == ppns[live]
        if not live.all():
            raise KeyError(int(ppns[~live][0]))
        return lpns

    def bind(self, lpn: int, ppn: int) -> int | None:
        """Map ``lpn`` to ``ppn``; returns the displaced old PPN (if any).

        Call it before stamping ``ppn``'s OOB record with ``lpn``.

        Raises:
            ValueError: if ``ppn`` already holds another LPN's data.
        """
        current_owner = self.owner(ppn)
        if current_owner is not None and current_owner != lpn:
            raise ValueError(
                f"PPN {ppn} already holds LPN {current_owner}"
            )
        forward = self._forward
        if lpn >= len(forward):
            self._grow_to(lpn)
        old_ppn = forward[lpn]
        forward[lpn] = ppn
        return None if old_ppn == NO_PPN else old_ppn

    def unbind(self, lpn: int) -> int | None:
        """Drop ``lpn``'s mapping; returns the freed PPN (if any)."""
        forward = self._forward
        if not 0 <= lpn < len(forward):
            return None
        ppn = forward[lpn]
        if ppn == NO_PPN:
            return None
        forward[lpn] = NO_PPN
        return ppn

    def bind_batch(self, lpns: np.ndarray, ppns: np.ndarray) -> None:
        """Bulk rebinding with the same net effect as sequential binds.

        The caller has already resolved write order: ``lpns``/``ppns``
        are the *final* pairs (last writer wins), and the pages they
        displace stop being live because no forward entry points at
        them any more.  One scatter into the forward column.

        Args:
            lpns: Distinct logical pages being (re)bound, int64.
            ppns: Their new physical pages (fresh — not currently bound).
        """
        if len(lpns):
            max_lpn = int(lpns.max())
            if max_lpn >= len(self._forward):
                self._grow_to(max_lpn)
            self._column()[lpns] = ppns

    def export_forward(self) -> bytes:
        """The forward column as raw ``int64`` bytes (snapshot capture).

        The reverse direction is the OOB column, which the device
        snapshot carries.
        """
        return self._forward.tobytes()

    def load_forward(self, blob: bytes) -> None:
        """Replace the whole map from an :meth:`export_forward` blob.

        Raises:
            ValueError: if ``blob`` is not a whole number of ``int64``
                entries (a truncated snapshot).
        """
        if len(blob) % 8:
            raise ValueError(
                f"forward-map blob holds {len(blob)} bytes, "
                "not a whole number of int64 entries"
            )
        forward = array("q")
        forward.frombytes(blob)
        self._forward = forward

    def rebind_physical(self, old_ppn: int, new_ppn: int) -> int:
        """Move live data from ``old_ppn`` to ``new_ppn`` (GC / refresh).

        The caller has already copied the OOB record onto ``new_ppn``
        (:meth:`DeviceState.relocate_oob
        <repro.flash.state.DeviceState.relocate_oob>`); the LPN that
        moves is read from it.

        Returns:
            The LPN that moved.

        Raises:
            KeyError: if ``old_ppn`` holds no live data.
        """
        lpn = self._oob[new_ppn]
        forward = self._forward
        if not (
            0 <= lpn < len(forward)
            and forward[lpn] == old_ppn
            and self._oob[old_ppn] == lpn
        ):
            raise KeyError(old_ppn)
        forward[lpn] = new_ppn
        return lpn
