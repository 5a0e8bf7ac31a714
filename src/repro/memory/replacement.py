"""Cache replacement policies.

GPU caches in the simulated system use LRU replacement (the gem5 Ruby GPU
protocol default).  A pseudo-random policy is provided for ablation studies
of replacement sensitivity.
"""

from __future__ import annotations

import abc
from typing import Sequence

__all__ = ["ReplacementPolicy", "LruReplacement", "RandomReplacement", "make_replacement"]


class ReplacementPolicy(abc.ABC):
    """Chooses a victim way among the non-busy ways of a set."""

    @abc.abstractmethod
    def on_access(self, set_index: int, way: int, cycle: int) -> None:
        """Record a touch of ``way`` in ``set_index`` at ``cycle``."""

    @abc.abstractmethod
    def on_fill(self, set_index: int, way: int, cycle: int) -> None:
        """Record insertion of a new line into ``way``."""

    @abc.abstractmethod
    def select_victim(self, set_index: int, candidate_ways: Sequence[int]) -> int:
        """Pick the way to evict among ``candidate_ways`` (never empty)."""


class LruReplacement(ReplacementPolicy):
    """Least-recently-used replacement with per-way timestamps."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets <= 0 or assoc <= 0:
            raise ValueError("num_sets and assoc must be positive")
        self._stamps = [[-1] * assoc for _ in range(num_sets)]

    def on_access(self, set_index: int, way: int, cycle: int) -> None:
        self._stamps[set_index][way] = cycle

    def on_fill(self, set_index: int, way: int, cycle: int) -> None:
        self._stamps[set_index][way] = cycle

    def select_victim(self, set_index: int, candidate_ways: Sequence[int]) -> int:
        if not candidate_ways:
            raise ValueError("no candidate ways to evict")
        return min(candidate_ways, key=self._stamps[set_index].__getitem__)


class RandomReplacement(ReplacementPolicy):
    """Deterministic pseudo-random replacement (xorshift on an internal seed).

    Random replacement is cheaper in hardware than LRU; it is included so the
    ablation benchmarks can quantify how much the paper's conclusions depend
    on the replacement policy.
    """

    def __init__(self, num_sets: int, assoc: int, seed: int = 0x9E3779B9) -> None:
        if num_sets <= 0 or assoc <= 0:
            raise ValueError("num_sets and assoc must be positive")
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

    def on_fill(self, set_index: int, way: int, cycle: int) -> None:
        return None

    def select_victim(self, set_index: int, candidate_ways: Sequence[int]) -> int:
        if not candidate_ways:
            raise ValueError("no candidate ways to evict")
        return candidate_ways[self._next() % len(candidate_ways)]


def make_replacement(kind: str, num_sets: int, assoc: int) -> ReplacementPolicy:
    """Factory used by cache construction.

    Args:
        kind: ``"lru"`` or ``"random"``.
    """
    kind = kind.lower()
    if kind == "lru":
        return LruReplacement(num_sets, assoc)
    if kind == "random":
        return RandomReplacement(num_sets, assoc)
    raise ValueError(f"unknown replacement policy {kind!r}")
