"""GPU caching policy definitions (paper sections III and VII).

A :class:`PolicySpec` captures what the GPU does with loads and stores at
each cache level plus which of the three optimizations are enabled.  The
three static policies the paper characterizes are:

========== ===================== =====================================
Policy     Loads                 Stores
========== ===================== =====================================
Uncached   bypass L1 and L2      bypass L1 and L2
CacheR     cached in L1 and L2   bypass L1 and L2
CacheRW    cached in L1 and L2   bypass L1, write-combined in the L2
========== ===================== =====================================

The optimized variants stack cumulatively on CacheRW, exactly as in the
paper's section VII: ``CacheRW-AB`` adds allocation bypass, ``CacheRW-CR``
adds DBI-based cache rinsing on top of AB, and ``CacheRW-PCby`` adds
PC-based L2 bypassing on top of both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.fingerprint import fingerprint

__all__ = [
    "PolicySpec",
    "UNCACHED",
    "CACHE_R",
    "CACHE_RW",
    "CACHE_RW_AB",
    "CACHE_RW_CR",
    "CACHE_RW_PCBY",
    "STATIC_POLICIES",
    "OPTIMIZED_POLICIES",
    "ALL_POLICIES",
    "policy_by_name",
]


@dataclass(frozen=True)
class PolicySpec:
    """One GPU caching configuration.

    Attributes:
        name: display name used in reports and figures.
        cache_loads_l1: loads may allocate in the per-CU L1s.
        cache_loads_l2: loads may allocate in the shared GPU L2.
        cache_stores_l2: stores are write-combined in the GPU L2 (dirty data
            is flushed at system-scope synchronization points); otherwise
            stores are written through to memory.
        allocation_bypass: convert requests to bypasses instead of blocking
            when cache allocation would stall (section VII.A).
        cache_rinsing: attach a dirty-block index to the L2 and rinse whole
            DRAM rows on dirty evictions (section VII.B).
        pc_bypass: attach a PC-based reuse predictor to the L2 and bypass
            requests predicted not to be reused (section VII.C).
    """

    name: str
    cache_loads_l1: bool
    cache_loads_l2: bool
    cache_stores_l2: bool
    allocation_bypass: bool = False
    cache_rinsing: bool = False
    pc_bypass: bool = False

    def fingerprint(self) -> str:
        """Stable content hash of the policy, including its display name.

        The name is part of the key on purpose: cached
        :class:`~repro.stats.report.RunReport` blobs carry the policy name,
        so a renamed-but-identical policy must not be served a report
        labelled with the old name.
        """
        return fingerprint(self)

    def with_optimizations(
        self,
        allocation_bypass: bool | None = None,
        cache_rinsing: bool | None = None,
        pc_bypass: bool | None = None,
        name: str | None = None,
    ) -> "PolicySpec":
        """Derive a new policy with the given optimization toggles."""
        updated = replace(
            self,
            allocation_bypass=(
                self.allocation_bypass if allocation_bypass is None else allocation_bypass
            ),
            cache_rinsing=self.cache_rinsing if cache_rinsing is None else cache_rinsing,
            pc_bypass=self.pc_bypass if pc_bypass is None else pc_bypass,
        )
        if name is not None:
            updated = replace(updated, name=name)
        return updated


UNCACHED = PolicySpec(
    name="Uncached",
    cache_loads_l1=False,
    cache_loads_l2=False,
    cache_stores_l2=False,
)

CACHE_R = PolicySpec(
    name="CacheR",
    cache_loads_l1=True,
    cache_loads_l2=True,
    cache_stores_l2=False,
)

CACHE_RW = PolicySpec(
    name="CacheRW",
    cache_loads_l1=True,
    cache_loads_l2=True,
    cache_stores_l2=True,
)

CACHE_RW_AB = CACHE_RW.with_optimizations(allocation_bypass=True, name="CacheRW-AB")
CACHE_RW_CR = CACHE_RW_AB.with_optimizations(cache_rinsing=True, name="CacheRW-CR")
CACHE_RW_PCBY = CACHE_RW_CR.with_optimizations(pc_bypass=True, name="CacheRW-PCby")

#: the three static policies characterized in section VI
STATIC_POLICIES: tuple[PolicySpec, ...] = (UNCACHED, CACHE_R, CACHE_RW)

#: the cumulative optimization stack evaluated in section VII
OPTIMIZED_POLICIES: tuple[PolicySpec, ...] = (CACHE_RW_AB, CACHE_RW_CR, CACHE_RW_PCBY)

ALL_POLICIES: tuple[PolicySpec, ...] = STATIC_POLICIES + OPTIMIZED_POLICIES


def policy_by_name(name: str) -> PolicySpec:
    """Look up a policy by its display name (case-insensitive)."""
    lowered = name.lower()
    for policy in ALL_POLICIES:
        if policy.name.lower() == lowered:
            return policy
    known = ", ".join(p.name for p in ALL_POLICIES)
    raise KeyError(f"unknown policy {name!r}; known policies: {known}")
