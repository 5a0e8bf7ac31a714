"""Cache replacement policies.

GPU caches in the simulated system use LRU replacement (the gem5 Ruby GPU
protocol default).  A pseudo-random policy is provided for ablation studies
of replacement sensitivity.

A policy keeps one stamp per way.  An invalid way reads :data:`INVALID`
(-1), a way whose fill is outstanding reads :data:`PENDING` (larger than
any cycle), and a way holding data reads the cycle the policy last recorded
for it.  That encoding lets :meth:`ReplacementPolicy.victim` find the first
invalid way, or tell that every way is busy, with one ``min`` over the set.
"""

from __future__ import annotations

import abc
import sys
from typing import Optional

__all__ = ["ReplacementPolicy", "LruReplacement", "RandomReplacement", "make_replacement"]

#: stamp of a way that holds no line
INVALID = -1
#: stamp of a way whose fill is outstanding: larger than any cycle
PENDING = sys.maxsize


class ReplacementPolicy(abc.ABC):
    """Tracks the state of every way and picks the victim of a miss.

    The cache reports every state change of a way:

    * :meth:`on_fill` -- a line is installed (a fill returns, or a store
      allocates without fetching);
    * :meth:`on_access` -- a line hits;
    * :meth:`on_pending` -- a way is reserved for an outstanding fill;
    * :meth:`on_invalidate` -- a way's line is evicted or invalidated.

    :meth:`victim` then answers from the policy's own state: the first
    invalid way, else a way chosen among those not pending, else ``None``
    when every way of the set is pending (the miss blocks).
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets <= 0 or assoc <= 0:
            raise ValueError("num_sets and assoc must be positive")
        self._stamps = [[INVALID] * assoc for _ in range(num_sets)]

    def on_fill(self, set_index: int, way: int, cycle: int) -> None:
        """Record insertion of a new line into ``way`` at ``cycle``."""
        self._stamps[set_index][way] = cycle

    @abc.abstractmethod
    def on_access(self, set_index: int, way: int, cycle: int) -> None:
        """Record a hit on ``way`` in ``set_index`` at ``cycle``."""

    def on_pending(self, set_index: int, way: int) -> None:
        """Record that ``way`` is reserved for an outstanding fill."""
        self._stamps[set_index][way] = PENDING

    def on_invalidate(self, set_index: int, way: int) -> None:
        """Record that ``way`` no longer holds a line."""
        self._stamps[set_index][way] = INVALID

    @abc.abstractmethod
    def victim(self, set_index: int) -> Optional[int]:
        """The way a miss in ``set_index`` allocates, or ``None`` to block."""


class LruReplacement(ReplacementPolicy):
    """Least-recently-used replacement with per-way timestamps.

    The victim is the way with the lowest stamp, the lowest way on a tie:
    an invalid way first, then the least recently filled or hit way that is
    not pending.
    """

    def on_access(self, set_index: int, way: int, cycle: int) -> None:
        self._stamps[set_index][way] = cycle

    def victim(self, set_index: int) -> Optional[int]:
        stamps = self._stamps[set_index]
        oldest = min(stamps)
        if oldest == PENDING:
            return None
        return stamps.index(oldest)


class RandomReplacement(ReplacementPolicy):
    """Deterministic pseudo-random replacement (xorshift on an internal seed).

    Random replacement is cheaper in hardware than LRU; it is included so the
    ablation benchmarks can quantify how much the paper's conclusions depend
    on the replacement policy.  An invalid way is still taken first; only a
    set with no invalid way draws, over its non-pending ways in way order.
    """

    def __init__(self, num_sets: int, assoc: int, seed: int = 0x9E3779B9) -> None:
        super().__init__(num_sets, assoc)
        self._state = seed or 1

    def _next(self) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._state = x & 0xFFFFFFFF
        return self._state

    def on_access(self, set_index: int, way: int, cycle: int) -> None:
        return None

    def victim(self, set_index: int) -> Optional[int]:
        stamps = self._stamps[set_index]
        if INVALID in stamps:
            return stamps.index(INVALID)
        candidates = [way for way, stamp in enumerate(stamps) if stamp != PENDING]
        if not candidates:
            return None
        return candidates[self._next() % len(candidates)]


def make_replacement(kind: str, num_sets: int, assoc: int) -> ReplacementPolicy:
    """Build a replacement policy by name.

    Args:
        kind: ``"lru"`` or ``"random"``.
    """
    kind = kind.lower()
    if kind == "lru":
        return LruReplacement(num_sets, assoc)
    if kind == "random":
        return RandomReplacement(num_sets, assoc)
    raise ValueError(f"unknown replacement policy {kind!r}")
