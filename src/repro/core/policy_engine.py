"""Per-request caching decisions.

The :class:`PolicyEngine` is the glue between a static
:class:`~repro.core.policies.PolicySpec` and the memory hierarchy: it stamps
each request with its bypass flags before the request enters the L1, and it
owns the PC-based reuse predictor that the L2 consults.  The dirty-block
index of cache rinsing belongs to each L2 itself, keyed by that L2's own
DRAM rows (see :class:`~repro.memory.hierarchy.MemoryHierarchy`).

Separating the decision logic from the cache timing model keeps the cache
reusable (the same class models L1 and L2) and makes the policy matrix easy
to test in isolation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.policies import PolicySpec
from repro.core.reuse_predictor import PredictorConfig, ReusePredictor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.request import MemoryRequest

__all__ = ["PolicyEngine"]


class PolicyEngine:
    """Applies a :class:`PolicySpec` to individual memory requests.

    Args:
        policy: the caching policy to enforce.
        predictor_config: optional override of the reuse-predictor geometry
            (used by the ablation benchmarks).
    """

    def __init__(
        self,
        policy: PolicySpec,
        predictor_config: Optional[PredictorConfig] = None,
    ) -> None:
        self.policy = policy
        self.reuse_predictor: Optional[ReusePredictor] = None
        if policy.pc_bypass:
            self.reuse_predictor = ReusePredictor(predictor_config)

    # ------------------------------------------------------------------
    @staticmethod
    def stamp(request: "MemoryRequest", spec: PolicySpec) -> "MemoryRequest":
        """Stamp ``request`` with the bypass flags implied by ``spec``.

        Stores always bypass the L1 (true for every policy in the paper);
        whether they bypass the L2 depends on ``cache_stores_l2``.  Loads
        bypass a level exactly when that level does not cache loads.  The
        PC-based prediction is *not* applied here -- it is consulted by the
        L2 itself so that sampler sets can override it.  Shared by the
        static and the dynamic (per-set) engines, so the flag rules can
        never diverge between them.
        """
        if request.is_load:
            request.bypass_l1 = not spec.cache_loads_l1
            request.bypass_l2 = not spec.cache_loads_l2
        else:
            request.bypass_l1 = True
            request.bypass_l2 = not spec.cache_stores_l2
        return request

    def annotate(self, request: "MemoryRequest") -> "MemoryRequest":
        """Stamp ``request`` with the bypass flags implied by the policy."""
        return self.stamp(request, self.policy)

    # ------------------------------------------------------------------
    @property
    def allocation_bypass(self) -> bool:
        """Whether caches should convert blocked allocations into bypasses."""
        return self.policy.allocation_bypass

    def describe(self) -> dict[str, object]:
        """Summary of the active policy and optimization components."""
        return {
            "policy": self.policy.name,
            "cache_loads_l1": self.policy.cache_loads_l1,
            "cache_loads_l2": self.policy.cache_loads_l2,
            "cache_stores_l2": self.policy.cache_stores_l2,
            "allocation_bypass": self.policy.allocation_bypass,
            "cache_rinsing": self.policy.cache_rinsing,
            "pc_bypass": self.policy.pc_bypass,
            "predictor_bypass_fraction": (
                self.reuse_predictor.bypass_fraction() if self.reuse_predictor else None
            ),
        }
