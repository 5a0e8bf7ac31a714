"""Multi-device NUMA topology subsystem.

Composes the single-device simulated system into chiplet / multi-GPU
hierarchies: a fingerprintable :class:`~repro.topology.config
.TopologyConfig` describes N devices -- each owning one L2 slice and one
DRAM partition -- joined by a latency/bandwidth-modelled fabric; cache
lines are interleaved across the partitions
(:class:`~repro.memory.address_mapping.DeviceInterleave`); and the
workload partitioner (:mod:`repro.topology.partition`) shards each
kernel's wavefronts across the devices data-parallel style, optionally
replicating shared read-only (weight) lines so GEMM/MHA weight reuse
stays device-local.

Entry points: ``simulate(workload, policy, topology=...)``, the
``repro-gpu-cache topology`` CLI subcommand, and
:func:`repro.experiments.scaling.figure_scaling`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.topology.config": (
            "TopologyConfig",
            "TOPOLOGIES",
            "TOPOLOGY_NAMES",
            "topology_by_name",
        ),
        "repro.topology.partition": (
            "partition_trace",
            "device_wavefront_counts",
            "shared_read_only_lines",
        ),
    },
)
