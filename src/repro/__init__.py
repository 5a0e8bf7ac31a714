"""Reproduction of *Optimizing GPU Cache Policies for MI Workloads* (IISWC 2019).

The package provides:

* a trace-driven, discrete-event simulator of a coherent CPU-GPU memory
  hierarchy (per-CU L1s, shared banked L2, directory, HBM-style DRAM);
* the paper's three static GPU caching policies (Uncached, CacheR, CacheRW)
  and its three cumulative optimizations (allocation bypass, DBI-based cache
  rinsing, PC-based L2 bypassing);
* synthetic trace generators for the seventeen MI workloads of Table 2;
* experiment drivers that regenerate every table and figure of the paper's
  evaluation;
* an online adaptive policy subsystem (:mod:`repro.adaptive`), a
  multi-device NUMA topology subsystem (:mod:`repro.topology`) and a
  multi-tenant serving subsystem (:mod:`repro.streams`) that go beyond
  the paper: set-dueling policy selection at runtime, chiplet/multi-GPU
  systems with distributed L2 slices joined by a latency/bandwidth-
  modelled fabric, and concurrent execution streams with stream-scoped
  cache synchronization for interference studies;
* an observability layer (:mod:`repro.telemetry`): cycle-accurate
  Chrome/Perfetto trace-event timelines, windowed counter time-series
  attached to run reports, and host-side simulator/sweep profiling.

Quickstart::

    from repro import simulate, get_workload, STATIC_POLICIES

    workload = get_workload("FwFc")
    for policy in STATIC_POLICIES:
        report = simulate(workload, policy)
        print(policy.name, report.cycles, report.dram_accesses)
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        # configuration
        "repro.config": (
            "CacheConfig",
            "DramConfig",
            "GpuConfig",
            "InterconnectConfig",
            "SystemConfig",
            "default_config",
            "paper_config",
            "scaled_config",
        ),
        # policies and optimizations
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
        "repro.core.policy_engine": ("PolicyEngine",),
        "repro.core.dirty_block_index": ("DirtyBlockIndex",),
        "repro.core.reuse_predictor": ("ReusePredictor",),
        "repro.core.classification": ("WorkloadCategory", "classify"),
        # online adaptive policy selection
        "repro.adaptive.config": ("AdaptiveConfig",),
        "repro.adaptive.controller": ("DynamicPolicyController", "DynamicPolicyEngine"),
        "repro.adaptive.phase": ("PhaseDetector",),
        "repro.adaptive.set_dueling": ("SetDuelingMonitor",),
        # multi-device NUMA topologies
        "repro.topology.config": (
            "TopologyConfig",
            "TOPOLOGIES",
            "TOPOLOGY_NAMES",
            "topology_by_name",
        ),
        # multi-tenant serving streams
        "repro.streams.config": (
            "StreamConfig",
            "ServingMix",
            "SERVING_MIXES",
            "MIX_NAMES",
            "mix_by_name",
        ),
        # acceleration: phase-sampled fast-forward + sharded execution
        "repro.accel.config": ("SamplingConfig", "ShardConfig"),
        # simulation
        "repro.spec": ("JobSpec",),
        "repro.session": ("SimulationSession", "simulate"),
        "repro.stats.report": ("RunReport",),
        # telemetry / observability
        "repro.telemetry.config": ("TelemetryConfig",),
        "repro.telemetry.trace": ("TraceRecorder", "validate_trace"),
        "repro.telemetry.metrics": ("MetricsSampler",),
        "repro.telemetry.profiler": ("SimProfiler",),
        # workloads
        "repro.workloads.base": ("Workload",),
        "repro.workloads.trace": ("WorkloadTrace",),
        "repro.workloads.registry": (
            "WORKLOAD_NAMES",
            "get_workload",
            "standard_suite",
            "workload_metadata_table",
        ),
    },
)
__all__.insert(0, "__version__")
