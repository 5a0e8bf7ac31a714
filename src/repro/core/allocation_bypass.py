"""Allocation bypass (paper section VII.A).

When caching is enabled, a miss must allocate a line: if every way of the
target set holds a pending fill (or every MSHR is busy) the request blocks,
and the paper shows these *cache stalls* both limit bandwidth and disrupt
DRAM row locality.  The allocation-bypass optimization converts the request
into a bypass request instead of blocking, trading a lost caching
opportunity for forward progress.

The mechanism itself lives inside :class:`repro.memory.cache.Cache` (the
``allocation_bypass`` flag); this module provides the small configuration
object used to describe and ablate it, including an optional *retry budget*:
hardware designs sometimes retry allocation a few times before giving up, so
the ablation benchmarks can explore that spectrum between fully blocking
(budget = infinite) and immediately bypassing (budget = 0, the paper's
design).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AllocationBypassSpec"]


@dataclass(frozen=True)
class AllocationBypassSpec:
    """Configuration of the allocation-bypass mechanism.

    Attributes:
        enabled: master switch (False reproduces blocking allocation).
        apply_to_loads: convert blocked load allocations into bypasses.
        apply_to_stores: convert blocked store (write-combine) allocations
            into write-through bypasses.
        retry_budget: number of wake-and-retry attempts before converting;
            0 means convert immediately (the design evaluated in the paper).
    """

    enabled: bool = True
    apply_to_loads: bool = True
    apply_to_stores: bool = True
    retry_budget: int = 0

    def __post_init__(self) -> None:
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")

    @classmethod
    def disabled(cls) -> "AllocationBypassSpec":
        """Blocking allocation, as in the static CacheR/CacheRW policies."""
        return cls(enabled=False, apply_to_loads=False, apply_to_stores=False)
