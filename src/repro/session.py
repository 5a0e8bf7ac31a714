"""Top-level simulation entry points.

A run is described once, by a frozen :class:`~repro.spec.JobSpec`: the
workload, the caching policy, the system configuration and the optional
run axes (adaptive control, a multi-device topology, a multi-tenant
serving mix, phase-sampled fast-forward, shards, and the predictor
override), each documented there.  :func:`simulate` is the
main public API: it runs one spec -- or the spec its keyword arguments
describe -- and returns a :class:`~repro.stats.report.RunReport`, handing
sharded specs to :func:`repro.accel.shard.run_sharded`.
:class:`SimulationSession` assembles the simulated system for one spec
and exposes its components (hierarchy, GPU, statistics, and for adaptive
runs the dynamic controller); the examples and some tests use it
directly.  The observers -- one
:class:`~repro.telemetry.config.TelemetryConfig` -- sit beside the spec:
they never change a result, so they are not part of a run's identity.
"""

from __future__ import annotations

import time
from dataclasses import replace as dc_replace
from typing import TYPE_CHECKING, Optional

from repro.core.policy_engine import PolicyEngine
from repro.engine.simulator import Simulator
from repro.gpu.gpu import Gpu
from repro.memory.address_mapping import DeviceInterleave
from repro.memory.hierarchy import MemoryHierarchy
from repro.spec import JobSpec, as_spec
from repro.stats.counters import StatsCollector
from repro.stats.report import RunReport
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

if TYPE_CHECKING:
    from repro.accel.sampling import KernelSampler
    from repro.adaptive.controller import DynamicPolicyController
    from repro.adaptive.phase import PhaseDetector
    from repro.core.policies import PolicySpec
    from repro.streams.config import StreamConfig
    from repro.telemetry.config import TelemetryConfig
    from repro.telemetry.metrics import MetricsSampler
    from repro.telemetry.profiler import SimProfiler
    from repro.telemetry.trace import TraceRecorder
    from repro.workloads.trace import WorkloadTrace

__all__ = ["SimulationSession", "simulate"]


class SimulationSession:
    """One fully assembled simulated system ready to run one :class:`JobSpec`.

    Args:
        spec: the run; every axis is documented on :class:`JobSpec`.
            Without one, the keyword arguments (the :class:`JobSpec` field
            names) describe it: ``SimulationSession(policy="CacheRW")``.
        telemetry: when given (a
            :class:`~repro.telemetry.TelemetryConfig`), attach the enabled
            observers -- trace recorder, metrics sampler, host profiler
            (exposed as ``session.recorder`` / ``session.sampler`` /
            ``session.profiler``) -- and, after the run finishes, run the
            anomaly detectors into ``report.alerts`` and/or append a
            provenance entry to the run ledger.  Observers never write
            counters or change timing, so the report's results are
            unaffected; ``telemetry=None`` is the exact historical code
            path.
    """

    def __init__(
        self,
        spec: Optional[JobSpec] = None,
        *,
        telemetry: Optional[TelemetryConfig] = None,
        **axes: object,
    ) -> None:
        spec = as_spec(spec, axes)
        if spec.shards is not None:
            raise ValueError(
                "a session simulates one process; run a sharded spec through "
                "simulate() or run_sharded()"
            )
        self.spec = spec
        self.config = config = spec.config
        adaptive, topology = spec.adaptive, spec.topology
        line_bytes = config.l2.line_bytes
        self.sim = Simulator()
        self.stats = StatsCollector()
        num_devices = topology.num_devices if topology is not None else 1
        #: address -> monitored-L2-set override for the dueling engine;
        #: stays None on the single-device path (plain global formula)
        address_to_set = None
        if num_devices > 1:
            # the slices see re-addressed local partition addresses, so
            # the duel must key leader lookups by the slice-local set
            # index -- the same one the slice hooks charge
            to_local = DeviceInterleave(
                num_devices, line_bytes=line_bytes, chunk_lines=topology.interleave_lines
            ).to_local
            num_sets = config.l2.num_sets

            def address_to_set(address: int) -> int:
                return (to_local(address) // line_bytes) % num_sets

        self.controller: Optional[DynamicPolicyController] = None
        self.phase_detector: Optional[PhaseDetector] = None
        if adaptive is not None:
            # each optional subsystem is imported only by the runs that
            # enable it, so a plain run loads none of their modules
            from repro.adaptive.config import DYNAMIC
            from repro.adaptive.controller import DynamicPolicyEngine

            self.policy_label = DYNAMIC
            engine = DynamicPolicyEngine(
                adaptive,
                l2_config=config.l2,
                stats=self.stats,
                predictor_config=spec.predictor_config,
                address_to_set=address_to_set,
            )
            self.policy_engine: PolicyEngine = engine
        else:
            self.policy_label = spec.policy.name
            self.policy_engine = PolicyEngine(
                spec.policy, predictor_config=spec.predictor_config
            )

        self.hierarchy = MemoryHierarchy(
            config, self.sim, self.stats, self.policy_engine, topology=topology
        )
        self.gpu = Gpu(config, self.sim, self.stats, self.hierarchy)

        if adaptive is not None:
            from repro.adaptive.controller import DynamicPolicyController
            from repro.adaptive.phase import PhaseDetector

            engine = self.policy_engine
            assert isinstance(engine, DynamicPolicyEngine)
            # the duel observes the shared L2 (leader sets are L2 sets); in
            # a multi-device system every slice reports to the one monitor,
            # so leader constituencies sample all partitions
            for l2 in self.hierarchy.l2s:
                l2.set_monitor = engine.monitor
            self.phase_detector = PhaseDetector(
                self.sim, self.stats, epoch_cycles=adaptive.epoch_cycles
            )
            self.controller = DynamicPolicyController(
                engine, self.phase_detector, self.sim, self.stats
            )
            self.hierarchy.add_kernel_boundary_hook(self.controller.on_kernel_boundary)

        # fast-forward sampling: exact runs carry no config, so they never
        # pay the one-None-test-per-launch filter hook
        self.kernel_sampler: Optional[KernelSampler] = None
        if spec.sampling is not None:
            from repro.accel.sampling import KernelSampler

            self.kernel_sampler = KernelSampler(spec.sampling, self.sim, self.stats)
            self.gpu.kernel_filter = self.kernel_sampler.filter

        # observability: strictly observers (no counter writes, no timing
        # changes); telemetry=None leaves every component's trace hook at
        # its None default -- the exact historical code path
        self.telemetry = telemetry
        self.recorder: Optional[TraceRecorder] = None
        self.sampler: Optional[MetricsSampler] = None
        self.profiler: Optional[SimProfiler] = None
        if telemetry is not None and telemetry.enabled:
            if telemetry.trace:
                from repro.telemetry.trace import TraceRecorder

                self.recorder = TraceRecorder(self.sim)
                self.gpu.attach_trace(self.recorder)
                self.hierarchy.trace = self.recorder
                if self.controller is not None:
                    self.controller.trace = self.recorder
                if self.phase_detector is not None:
                    self.phase_detector.add_listener(self.recorder.phase_change)
                self.sim.on_finish(self.recorder.finish)
            if telemetry.window_cycles:
                from repro.telemetry.metrics import MetricsSampler

                self.sampler = MetricsSampler(
                    self.sim, self.stats, telemetry.window_cycles
                )
                self.sim.on_finish(self.sampler.finalize)
            if telemetry.profile:
                from repro.telemetry.profiler import SimProfiler

                self.profiler = SimProfiler(self.sim.queue)

    # ------------------------------------------------------------------
    def run(self, workload: Workload | WorkloadTrace | None = None) -> RunReport:
        """Execute the run and return the report.

        ``workload`` overrides the spec's named workload; a serving spec
        takes none (its streams name their own).  With ``profile``
        telemetry the host profiler covers all of it: trace build,
        partitioning, the event loop and the report.
        """
        if self.profiler is not None:
            self.profiler.start()
        try:
            self.begin(workload)
            self.sim.run()
            return self.finish()
        finally:
            if self.profiler is not None:
                self.profiler.stop()

    def begin(self, workload: Workload | WorkloadTrace | None = None) -> None:
        """Schedule the run without advancing simulated time.

        :meth:`run` is ``begin(); sim.run(); finish()``.  Callers that
        want to inspect the assembled components between scheduling and
        draining use the pieces directly.  Only :meth:`run` drives the
        host profiler.
        """
        spec = self.spec
        self._wall_start = time.perf_counter()
        self._workload = workload
        self._finished: list[int] = []
        if spec.streams is not None:
            if workload is not None:
                raise ValueError(
                    "a serving session derives its workloads from the stream "
                    "configurations; run() takes no workload argument"
                )
            self._begin_streams(spec.streams)
        else:
            if workload is None:
                if not spec.workload:
                    raise ValueError("run() needs a workload (or a spec naming one)")
                workload = get_workload(spec.workload, scale=spec.scale)
            trace = workload.build_trace() if isinstance(workload, Workload) else workload
            if spec.topology is not None:
                from repro.topology.partition import partition_trace

                trace = partition_trace(
                    trace, spec.topology, line_bytes=self.config.l2.line_bytes
                )
            self._run_label = trace.name
            self.gpu.run_workload(trace, on_complete=self._on_complete)
        if self.controller is not None:
            self.controller.start(lambda: self.gpu.running)
        if self.sampler is not None:
            self.sampler.start(lambda: self.gpu.running)

    def _begin_streams(self, streams: tuple[StreamConfig, ...]) -> None:
        """Schedule every configured stream for concurrent execution."""
        from repro.streams.address_space import isolate_traces

        topology = self.spec.topology
        if topology is not None:
            from repro.topology.partition import partition_trace

        line_bytes = self.config.l2.line_bytes
        traces = []
        for stream in streams:
            trace = get_workload(stream.workload, scale=stream.scale).build_trace()
            if topology is not None:
                trace = partition_trace(trace, topology, line_bytes=line_bytes)
            traces.append(trace)
        # tenants own disjoint address spaces: rebase each stream past the
        # previous ones, aligned to the interleave period so a line's home
        # device is unaffected (identity for a single stream)
        alignment = line_bytes
        if topology is not None:
            alignment *= topology.interleave_lines * topology.num_devices
        traces = isolate_traces(traces, alignment)
        self.hierarchy.enable_stream_accounting(len(streams))
        self._run_label = self.spec.workload
        self.gpu.run_streams(traces, streams, on_complete=self._on_complete)

    def _on_complete(self) -> None:
        self._finished.append(self.sim.now)

    def finish(self) -> RunReport:
        """Build the run report once ``sim.run()`` has drained the queue.

        Raises if the scheduled work never completed (a model deadlock).
        """
        if not self._finished:
            raise RuntimeError(
                f"simulation of {self._run_label!r} under {self.policy_label} did not "
                "complete; the event queue drained with work outstanding (model deadlock)"
            )
        cycles = self._finished[0]
        extrapolation = None
        if self.kernel_sampler is not None:
            extrapolation = self.kernel_sampler.finalize()
            cycles += extrapolation.cycle_addition
        report = RunReport.from_stats(
            workload=self._run_label,
            policy=self.policy_label,
            cycles=cycles,
            stats=self.stats,
            config=self.config,
            metrics=self.sampler.windows if self.sampler is not None else None,
        )
        if extrapolation is not None:
            self._apply_sampling(report, extrapolation)
        return self._observe(report, time.perf_counter() - self._wall_start)

    def _apply_sampling(self, report: RunReport, extrapolation) -> None:
        """Fold the fast-forward corrections into the finished report."""
        counters = report.counters
        for name, addition in extrapolation.counter_additions.items():
            if addition:
                counters[name] = counters.get(name, 0) + addition
        # absolute cycle marks follow the corrected clock, they are never
        # extrapolated additively
        if "gpu.finish_cycle" in counters:
            counters["gpu.finish_cycle"] = report.cycles
        streams = self.spec.streams
        if streams is not None:  # the spec allows at most one here
            if "stream0.finish_cycle" in counters:
                counters["stream0.finish_cycle"] = report.cycles
            if "stream0.cycles" in counters:
                counters["stream0.cycles"] = report.cycles - streams[0].launch_cycle
        estimates: dict[str, float] = {}
        for name, absolute in extrapolation.error_bounds_abs.items():
            final = report.cycles if name == "cycles" else counters.get(name, 0)
            estimates[name] = absolute / max(abs(final), 1)
        report.error_estimates = estimates
        executed_events = self.sim.queue.executed
        report.sampling = {
            "mode": "phase_sampled",
            "executed_kernels": extrapolation.executed_kernels,
            "skipped_kernels": extrapolation.skipped_kernels,
            "skipped_fraction": round(extrapolation.skipped_fraction, 6),
            "signatures": extrapolation.signatures,
            "executed_events": executed_events,
            "represented_events": executed_events + extrapolation.event_addition,
        }

    # ------------------------------------------------------------------
    # cross-run observability (post-run; never touches simulated results)
    # ------------------------------------------------------------------
    @property
    def shared_dispatch(self) -> bool:
        """Whether the run's tenants contend for shared CU dispatch.

        Partitioned tenants own their CUs and cannot crowd each other out,
        so the starvation detector is gated on this.
        """
        streams = self.spec.streams
        return streams is None or any(stream.cu_share == "shared" for stream in streams)

    def _run_spec(self) -> JobSpec:
        """The spec of the run that executed, named after its workload.

        A workload handed to :meth:`run` overrides the spec's name and
        scale, so the ledger identity of a session run equals the store
        key of the same sweep cell.
        """
        workload = self._workload
        if workload is None:
            return self.spec
        scale = workload.scale if isinstance(workload, Workload) else self.spec.scale
        return dc_replace(self.spec, workload=workload.name, scale=scale)

    def _observe(self, report: RunReport, wall_seconds: float) -> RunReport:
        """Apply the configured observers to the finished report.

        Anomaly detection mutates only ``report.alerts`` (touched-gated in
        serialization); the ledger append writes only to the ledger file.
        Counters, cycles and metrics windows pass through untouched, so an
        observed run reports counter-for-counter identical results to a
        plain one (pinned by the equivalence suites).
        """
        telemetry = self.telemetry
        if telemetry is None:
            return report
        if telemetry.alerts:
            from repro.obs.alerts import detect_anomalies

            alerts = detect_anomalies(report, shared_dispatch=self.shared_dispatch)
            report.alerts = [alert.as_dict() for alert in alerts]
            if self.recorder is not None:
                for alert in alerts:
                    self.recorder.alert_event(
                        alert.kind, alert.severity, alert.message, alert.cycle
                    )
        if telemetry.ledger_path is not None:
            from repro.obs.ledger import RunLedger, run_entry

            # the block describes the in-run observers; a ledger-only run
            # has none and writes no block
            observed = None
            if telemetry.trace or telemetry.window_cycles or telemetry.profile:
                observed = {
                    "trace": self.recorder is not None,
                    "trace_truncated": (
                        self.recorder.truncated if self.recorder is not None else False
                    ),
                    "metrics_windows": len(report.metrics),
                    "profile": self.profiler is not None,
                }
            spec = self._run_spec()
            entry = run_entry(
                kind="run",
                fingerprint_hex=spec.fingerprint(),
                workload=report.workload,
                policy=report.policy,
                cycles=report.cycles,
                counters=report.counters,
                wall_seconds=wall_seconds,
                events=self.sim.queue.executed,
                telemetry=observed,
                alerts=report.alerts or None,
                source="session",
                extra={"job": spec.summary()},
            )
            RunLedger(telemetry.ledger_path).record(entry)
        return report


def simulate(
    workload: Workload | WorkloadTrace | JobSpec | None = None,
    policy: PolicySpec | str | None = None,
    *,
    telemetry: Optional[TelemetryConfig] = None,
    **axes: object,
) -> RunReport:
    """Run one :class:`JobSpec` and return its report.

    This is the primary public entry point::

        from repro import simulate, get_workload, CACHE_RW
        report = simulate(get_workload("FwFc"), CACHE_RW)
        print(report.cycles, report.dram_accesses)

    ``simulate(spec)`` runs a spec directly; otherwise the keyword
    arguments are the :class:`JobSpec` fields, which document every axis.
    Pass ``adaptive=AdaptiveConfig(...)`` instead of a policy to let the
    online controller pick (and re-pick) the policy while the workload
    runs, and/or ``topology=TopologyConfig(num_devices=...)`` to simulate
    a multi-device NUMA system.  Pass ``streams=...`` (and no workload) to
    run a multi-tenant serving mix of concurrent streams instead of a
    single workload::

        from repro import simulate, CACHE_RW, mix_by_name
        report = simulate(policy=CACHE_RW, streams=mix_by_name("mha+fwlstm"))
        print(report.per_stream)

    ``sampling=`` enables phase-sampled fast-forward, and ``shards=``
    (with ``num_shards > 1``) splits a serving mix of partitioned streams
    into independent worker-process runs whose reports are merged.
    """
    spec = None
    if isinstance(workload, JobSpec):
        spec, workload = workload, None
    if policy is not None or spec is None:
        axes["policy"] = policy
    spec = as_spec(spec, axes)
    if spec.shards is None:
        return SimulationSession(spec, telemetry=telemetry).run(workload)
    if workload is not None:
        raise ValueError(
            "a sharded serving run derives its workloads from the "
            "stream configurations; pass no workload"
        )
    if telemetry is not None and telemetry.enabled:
        raise ValueError("sharded execution does not support telemetry observers")
    # only sharded runs need the sweep layer the shards execute on
    from repro.accel.shard import run_sharded

    return run_sharded(spec)
