"""The paper's primary contribution: GPU caching policies and optimizations.

* :mod:`repro.core.policies` -- the three static policies of section III
  (Uncached, CacheR, CacheRW) and the optimized variants of section VII
  (CacheRW-AB, CacheRW-CR, CacheRW-PCby), expressed as
  :class:`~repro.core.policies.PolicySpec` objects.
* :mod:`repro.core.dirty_block_index` -- the Dirty-Block-Index used for
  row-locality-aware cache rinsing (section VII.B).
* :mod:`repro.core.reuse_predictor` -- the PC-indexed reuse predictor used
  for adaptive L2 bypassing (section VII.C).
* :mod:`repro.core.policy_engine` -- per-request decisions combining a
  policy with the optimizations.
* :mod:`repro.core.classification` -- the memory-insensitive /
  reuse-sensitive / throughput-sensitive workload classifier (section VI.A).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.policies": (
            "PolicySpec",
            "UNCACHED",
            "CACHE_R",
            "CACHE_RW",
            "CACHE_RW_AB",
            "CACHE_RW_CR",
            "CACHE_RW_PCBY",
            "STATIC_POLICIES",
            "OPTIMIZED_POLICIES",
            "policy_by_name",
        ),
        "repro.core.dirty_block_index": ("DirtyBlockIndex",),
        "repro.core.reuse_predictor": ("ReusePredictor",),
        "repro.core.policy_engine": ("PolicyEngine",),
        "repro.core.classification": ("WorkloadCategory", "classify"),
    },
)
