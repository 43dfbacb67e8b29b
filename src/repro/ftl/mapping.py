"""Page-level address translation.

A straightforward page-mapping FTL table: logical page number (LPN) to
physical page number (PPN) plus the reverse map GC and refresh need to
find the owner of a physical page they are about to move.

The forward map is columnar: one growable ``int64`` entry per LPN
(:data:`NO_PPN` = unmapped) instead of a dict.  At the paper's full
512 GB topology the logical space is tens of millions of pages — a flat
column holds that in a few hundred MB worst-case and answers batched
lookups (:meth:`PageMap.lookup_many`) as one numpy gather, which the
columnar untimed writes lean on.  The reverse map stays a dict: it is
sparse over the *physical* space (entries = live pages only), so a
67 M-entry physical column would waste far more than the dict costs.
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
    """Bidirectional LPN <-> PPN map.

    Invariant (property-tested): the forward and reverse maps are exact
    inverses at all times.
    """

    def __init__(self) -> None:
        # Growable int64 column over the dense LPN space; -1 = unmapped.
        self._forward = array("q")
        self._reverse: dict[int, int] = {}

    def _grow_to(self, lpn: int) -> None:
        """Extend the forward column to cover ``lpn`` (chunked)."""
        needed = lpn + 1 - len(self._forward)
        chunk = max(needed, _GROW_CHUNK)
        self._forward.extend([NO_PPN] * chunk)

    def __len__(self) -> int:
        return len(self._reverse)

    def __contains__(self, lpn: int) -> bool:
        forward = self._forward
        return 0 <= lpn < len(forward) and forward[lpn] != NO_PPN

    def items(self) -> Iterator[tuple[int, int]]:
        """All (lpn, ppn) pairs, ascending by LPN."""
        for lpn, ppn in enumerate(self._forward):
            if ppn != NO_PPN:
                yield lpn, ppn

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
            forward = np.frombuffer(self._forward, dtype=np.int64)
            in_range = (lpns >= 0) & (lpns < len(forward))
            out[in_range] = forward[lpns[in_range]]
        return out

    def owner(self, ppn: int) -> int | None:
        """LPN stored at ``ppn``, or None when the page holds no live data."""
        return self._reverse.get(ppn)

    def owners(self, ppns: list[int]) -> np.ndarray:
        """LPNs stored at live pages ``ppns`` (batched :meth:`owner`).

        Raises:
            KeyError: if a page holds no live data, as
                :meth:`rebind_physical` does.
        """
        reverse = self._reverse
        return np.array([reverse[ppn] for ppn in ppns], dtype=np.int64)

    def bind(self, lpn: int, ppn: int) -> int | None:
        """Map ``lpn`` to ``ppn``; returns the displaced old PPN (if any).

        Raises:
            ValueError: if ``ppn`` already holds another LPN's data.
        """
        current_owner = self._reverse.get(ppn)
        if current_owner is not None and current_owner != lpn:
            raise ValueError(
                f"PPN {ppn} already holds LPN {current_owner}"
            )
        forward = self._forward
        if lpn >= len(forward):
            self._grow_to(lpn)
        old_ppn = forward[lpn]
        if old_ppn != NO_PPN:
            del self._reverse[old_ppn]
        forward[lpn] = ppn
        self._reverse[ppn] = lpn
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
        del self._reverse[ppn]
        return ppn

    def bind_batch(
        self,
        lpns: np.ndarray,
        ppns: np.ndarray,
        drop_ppns: np.ndarray,
    ) -> None:
        """Bulk rebinding with the same net effect as sequential binds.

        The caller has already resolved write order: ``lpns``/``ppns``
        are the *final* pairs (last writer wins) and ``drop_ppns`` are
        the previously-bound physical pages those binds displace.  The
        forward column takes one scatter; the reverse dict one bulk
        delete + update.

        Args:
            lpns: Distinct logical pages being (re)bound, int64.
            ppns: Their new physical pages (fresh — not currently bound).
            drop_ppns: Old physical homes to unbind first.
        """
        if len(lpns):
            max_lpn = int(lpns.max())
            if max_lpn >= len(self._forward):
                self._grow_to(max_lpn)
            forward = np.frombuffer(self._forward, dtype=np.int64)
            forward[lpns] = ppns
        reverse = self._reverse
        for ppn in drop_ppns.tolist():
            del reverse[ppn]
        reverse.update(zip(ppns.tolist(), lpns.tolist()))

    def export_forward(self) -> bytes:
        """The forward column as raw ``int64`` bytes (snapshot capture).

        The reverse dict is *not* exported: it is the exact inverse of
        the forward column (the property-tested invariant), so
        :meth:`load_forward` rebuilds it — snapshots stay half the size
        and can never carry an inconsistent pair.
        """
        return self._forward.tobytes()

    def load_forward(self, blob: bytes) -> None:
        """Replace the whole map from an :meth:`export_forward` blob.

        Rebuilds the reverse dict from the mapped entries, restoring the
        forward/reverse inverse invariant by construction.

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
        if len(forward):
            column = np.frombuffer(forward, dtype=np.int64)
            mapped = np.flatnonzero(column != NO_PPN)
            self._reverse = dict(
                zip(column[mapped].tolist(), mapped.tolist())
            )
        else:
            self._reverse = {}

    def rebind_physical(self, old_ppn: int, new_ppn: int) -> int:
        """Move live data from ``old_ppn`` to ``new_ppn`` (GC / refresh).

        Returns:
            The LPN that moved.

        Raises:
            KeyError: if ``old_ppn`` holds no live data.
        """
        lpn = self._reverse[old_ppn]
        del self._reverse[old_ppn]
        self._forward[lpn] = new_ppn
        self._reverse[new_ppn] = lpn
        return lpn
