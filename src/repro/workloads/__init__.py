"""MI workload models (paper Table 2).

Each of the seventeen studied workloads is a :class:`~repro.workloads.base.Workload`
that generates a synthetic :class:`~repro.workloads.trace.WorkloadTrace`
reproducing the layer's algorithmic memory-access structure: its footprint,
read/write mix, striding, intra- and inter-work-group reuse, LDS staging and
kernel count.  The traces are scaled down from the paper's inputs so a full
policy sweep completes in seconds on a laptop; DESIGN.md documents the
substitution.

Use :func:`repro.workloads.registry.get_workload` /
:func:`repro.workloads.registry.standard_suite` to obtain them.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workloads.base": ("Workload", "WorkloadMetadata"),
        "repro.workloads.trace": (
            "ComputeInstr",
            "MemInstr",
            "WavefrontProgram",
            "KernelTrace",
            "WorkloadTrace",
        ),
        "repro.workloads.registry": (
            "WORKLOAD_NAMES",
            "get_workload",
            "standard_suite",
            "workload_metadata_table",
        ),
    },
)
