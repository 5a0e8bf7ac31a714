"""Dirty-Block Index for row-locality-aware cache rinsing (section VII.B).

The paper applies the Dirty-Block Index of Seshadri et al. (ISCA 2014) to
the GPU L2: a small structure, organized by DRAM row, that records which
cache lines of each row are dirty.  Whenever a dirty block is evicted, the
cache *rinses* the row -- it writes back every other dirty block belonging
to the same DRAM row at the same time -- so the resulting write burst enjoys
consecutive row hits at the memory controller instead of scattering row
conflicts across the execution.

This module implements the index itself, unbounded (an idealized DBI);
the rinse action is driven by :class:`repro.memory.cache.Cache` when a
dirty eviction occurs, and by ``flush_dirty`` which walks rows in order
when a DBI is attached.
"""

from __future__ import annotations

from typing import Callable, Iterable

__all__ = ["DirtyBlockIndex"]


class DirtyBlockIndex:
    """Tracks dirty cache lines grouped by DRAM row.

    Args:
        row_of: maps a line address to its DRAM row id; kept as the
            ``row_of`` attribute, which the owning cache reads to rinse
            and flush row by row.
    """

    def __init__(self, row_of: Callable[[int], int]) -> None:
        self.row_of = row_of
        self._rows: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    def mark_dirty(self, line_address: int) -> None:
        """Record that ``line_address`` now holds dirty data."""
        row = self.row_of(line_address)
        entry = self._rows.get(row)
        if entry is None:
            entry = self._rows[row] = set()
        entry.add(line_address)

    def clear(self, line_address: int) -> None:
        """Record that ``line_address`` is no longer dirty (idempotent)."""
        row = self.row_of(line_address)
        entry = self._rows.get(row)
        if entry is None:
            return
        entry.discard(line_address)
        if not entry:
            del self._rows[row]

    def is_dirty(self, line_address: int) -> bool:
        """Whether ``line_address`` is currently tracked as dirty."""
        entry = self._rows.get(self.row_of(line_address))
        return bool(entry) and line_address in entry

    def dirty_lines_in_row(self, row: int) -> list[int]:
        """All dirty line addresses recorded for DRAM row ``row``."""
        return sorted(self._rows.get(row, ()))

    def rows(self) -> Iterable[int]:
        """Row ids currently holding at least one dirty line."""
        return list(self._rows.keys())

    def dirty_count(self) -> int:
        """Total dirty lines tracked."""
        return sum(len(lines) for lines in self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DirtyBlockIndex(rows={len(self._rows)}, dirty_lines={self.dirty_count()})"
