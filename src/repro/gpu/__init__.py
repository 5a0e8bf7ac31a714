"""GPU compute-side models.

The GPU model executes :class:`~repro.workloads.trace.WorkloadTrace` objects
against a :class:`~repro.memory.hierarchy.MemoryHierarchy`:

* :mod:`repro.gpu.coalescer` -- per-wavefront memory coalescing (used at
  trace-generation time).
* :mod:`repro.gpu.wavefront` -- the wavefront state machine.
* :mod:`repro.gpu.compute_unit` -- a CU: issue bandwidth, SIMD occupancy,
  resident-wavefront slots.
* :mod:`repro.gpu.gpu` -- kernel dispatch, wavefront scheduling across CUs,
  kernel-boundary synchronization.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.gpu.coalescer": ("coalesce_addresses",),
        "repro.gpu.compute_unit": ("ComputeUnit",),
        "repro.gpu.gpu": ("Gpu",),
        "repro.gpu.wavefront": ("Wavefront",),
    },
)
