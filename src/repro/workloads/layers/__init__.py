"""Layer-level trace builders.

Each module implements the kernels of one neural-network layer family as
functions that build :class:`~repro.workloads.trace.KernelTrace` objects.
The seventeen Table 2 workloads in :mod:`repro.workloads.registry` are thin
compositions of these builders.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workloads.layers.common": ("ProgramBuilder", "PcAllocator"),
    },
)
