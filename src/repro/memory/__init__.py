"""GPU memory hierarchy models.

This package contains the timing models of everything below the compute
units: per-CU L1 data caches, the shared banked GPU L2, the host directory
interface, the HBM-style DRAM and the links between them.  The hierarchy is
assembled by :class:`~repro.memory.hierarchy.MemoryHierarchy` according to a
:class:`~repro.core.policy_engine.PolicyEngine`, which decides per request
whether it is cached, bypassed, coalesced or rinsed.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.memory.request": ("AccessType", "MemoryRequest"),
        "repro.memory.cache": ("Cache", "CacheLine", "LineState"),
        "repro.memory.dram": ("DramBank", "DramChannel", "DramSystem"),
        "repro.memory.hierarchy": ("MemoryHierarchy",),
    },
)
