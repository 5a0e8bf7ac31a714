"""Concurrent multi-stream execution (multi-tenant serving).

This package describes *who* is running on the GPU: each
:class:`~repro.streams.config.StreamConfig` is one tenant's workload,
arrival time and CU share policy, and a
:class:`~repro.streams.config.ServingMix` bundles several tenants into a
named serving scenario.  The execution machinery lives where it always
did -- :class:`~repro.gpu.gpu.Gpu` schedules the streams,
:class:`~repro.memory.hierarchy.MemoryHierarchy` scopes kernel-boundary
synchronization to the finishing stream, and
:func:`repro.session.simulate` accepts ``streams=...`` -- while the
interference study built on top is
:mod:`repro.experiments.interference`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.streams.config": (
            "CU_SHARE_MODES",
            "MIX_NAMES",
            "SERVING_MIXES",
            "ServingMix",
            "StreamConfig",
            "mix_by_name",
        ),
    },
)
