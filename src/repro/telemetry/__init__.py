"""Observability layer: tracing, windowed metrics and host profiling.

Three observers, any combination of which a
:class:`~repro.telemetry.config.TelemetryConfig` switches on for a
:class:`~repro.session.SimulationSession`:

* :class:`TraceRecorder` -- a cycle-accurate Chrome/Perfetto trace-event
  timeline (kernel spans per stream, wavefront slices per CU/device,
  adaptive and alert annotations);
* :class:`MetricsSampler` -- per-window counter deltas whose sum exactly
  reproduces the end-of-run counters;
* :class:`SimProfiler` -- host-side events/sec and a ``cProfile`` table of
  self time per source module.

All three are strict observers: they never write a counter or perturb the
simulated timing, so enabling them cannot change a run's results.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.telemetry.config": ("TelemetryConfig",),
        "repro.telemetry.trace": ("TraceRecorder", "trace_errors", "validate_trace"),
        "repro.telemetry.metrics": ("MetricsSampler", "derive_window", "windows_total"),
        "repro.telemetry.profiler": ("SimProfiler",),
    },
)
