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
* a deterministic fault-injection subsystem (:mod:`repro.faults`) that
  chaos-tests the simulated fleet -- link brownouts, device outages with
  stream evacuation, DRAM latency storms, tenant churn -- with graceful
  degradation and resilience metrics (availability, recovery latency);
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

from repro.accel import SamplingConfig, ShardConfig
from repro.adaptive import (
    AdaptiveConfig,
    DynamicPolicyController,
    DynamicPolicyEngine,
    PhaseDetector,
    SetDuelingMonitor,
)
from repro.config import (
    CacheConfig,
    DramConfig,
    GpuConfig,
    InterconnectConfig,
    SystemConfig,
    default_config,
    paper_config,
    scaled_config,
)
from repro.core import (
    CACHE_R,
    CACHE_RW,
    CACHE_RW_AB,
    CACHE_RW_CR,
    CACHE_RW_PCBY,
    OPTIMIZED_POLICIES,
    STATIC_POLICIES,
    UNCACHED,
    DirtyBlockIndex,
    PolicyAdvisor,
    PolicyEngine,
    PolicySpec,
    ReusePredictor,
    WorkloadCategory,
    classify,
    policy_by_name,
)
from repro.faults import (
    FAULT_PLAN_NAMES,
    FAULT_PLANS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    fault_plan_by_name,
    generate_fault_plan,
)
from repro.session import SimulationSession, simulate
from repro.spec import JobSpec
from repro.stats import PolicyComparison, RunReport
from repro.telemetry import (
    MetricsSampler,
    SimProfiler,
    TelemetryConfig,
    TraceRecorder,
    validate_trace,
)
from repro.streams import (
    MIX_NAMES,
    SERVING_MIXES,
    ServingMix,
    StreamConfig,
    mix_by_name,
)
from repro.topology import (
    TOPOLOGIES,
    TOPOLOGY_NAMES,
    TopologyConfig,
    topology_by_name,
)
from repro.workloads import (
    WORKLOAD_NAMES,
    Workload,
    WorkloadTrace,
    get_workload,
    standard_suite,
    workload_metadata_table,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "CacheConfig",
    "DramConfig",
    "GpuConfig",
    "InterconnectConfig",
    "SystemConfig",
    "default_config",
    "paper_config",
    "scaled_config",
    # policies and optimizations
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
    "PolicyEngine",
    "DirtyBlockIndex",
    "ReusePredictor",
    "PolicyAdvisor",
    "WorkloadCategory",
    "classify",
    # online adaptive policy selection
    "AdaptiveConfig",
    "DynamicPolicyController",
    "DynamicPolicyEngine",
    "PhaseDetector",
    "SetDuelingMonitor",
    # multi-device NUMA topologies
    "TopologyConfig",
    "TOPOLOGIES",
    "TOPOLOGY_NAMES",
    "topology_by_name",
    # multi-tenant serving streams
    "StreamConfig",
    "ServingMix",
    "SERVING_MIXES",
    "MIX_NAMES",
    "mix_by_name",
    # fault injection and graceful degradation
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "FAULT_PLANS",
    "FAULT_PLAN_NAMES",
    "fault_plan_by_name",
    "generate_fault_plan",
    # acceleration: phase-sampled fast-forward + sharded execution
    "SamplingConfig",
    "ShardConfig",
    # simulation
    "JobSpec",
    "SimulationSession",
    "simulate",
    "RunReport",
    "PolicyComparison",
    # telemetry / observability
    "TelemetryConfig",
    "TraceRecorder",
    "MetricsSampler",
    "SimProfiler",
    "validate_trace",
    # workloads
    "Workload",
    "WorkloadTrace",
    "WORKLOAD_NAMES",
    "get_workload",
    "standard_suite",
    "workload_metadata_table",
]
