"""Configuration of the observers.

A :class:`TelemetryConfig` is handed to
:class:`~repro.session.SimulationSession` (or :func:`repro.session.simulate`)
to switch on any combination of the observers.  Three watch the run from
inside:

* ``trace`` -- a :class:`~repro.telemetry.trace.TraceRecorder` capturing a
  Chrome/Perfetto trace-event timeline of the run (it stops recording,
  and flags the trace as truncated, at its fixed ``max_events`` bound
  rather than exhausting memory on a huge run);
* ``metrics_interval`` -- a
  :class:`~repro.telemetry.metrics.MetricsSampler` snapshotting the counter
  store every N cycles into per-window time-series;
* ``profile`` -- a :class:`~repro.telemetry.profiler.SimProfiler` running
  ``cProfile`` over the session: host-side event throughput and self time
  per source module.

Two act on the finished report:

* ``alerts`` -- the anomaly detectors of :mod:`repro.obs.alerts`, whose
  findings land on ``report.alerts``.  They read metrics windows, so
  without an explicit ``metrics_interval`` the session samples every
  :data:`ALERT_METRICS_INTERVAL` cycles;
* ``ledger_path`` -- append the run's provenance entry to a JSONL
  :class:`~repro.obs.ledger.RunLedger`.

Every observer is strictly an *observer*: none ever writes a counter or
changes the simulated timing, so an enabled run reports exactly the
counters of a disabled one, and ``telemetry=None`` (every pre-existing
caller) is byte-for-byte the historical code path.  Because results are
unaffected, telemetry is deliberately **not** part of
:meth:`repro.spec.JobSpec.fingerprint` -- an observed run shares its
store key with a plain one, and traced runs execute inline rather than
through the result store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ALERT_METRICS_INTERVAL", "TelemetryConfig"]

#: metrics window length, in cycles, when alerts ask for windows and no
#: explicit ``metrics_interval`` was given
ALERT_METRICS_INTERVAL = 5000


@dataclass(frozen=True)
class TelemetryConfig:
    """Which observers a session should attach.

    Attributes:
        trace: record a Chrome trace-event timeline of the run.
        metrics_interval: close a metrics window every this many cycles
            (``0`` disables the sampler unless ``alerts`` needs it).
        profile: measure host-side simulator performance (events/sec and
            self time per source module) with ``cProfile`` over the
            session's whole ``run``, trace build and report included.  It
            roughly triples the run's wall time; leave this off for
            production sweeps.
        ledger_path: append the run's provenance entry to this JSONL run
            ledger (``None`` records nothing).
        alerts: run the anomaly detectors (L2 hit-rate cliffs, tenant
            starvation under shared dispatch) over the finished run and
            attach their findings to ``report.alerts``.
    """

    trace: bool = False
    metrics_interval: int = 0
    profile: bool = False
    ledger_path: Optional[str] = None
    alerts: bool = False

    def __post_init__(self) -> None:
        if self.metrics_interval < 0:
            raise ValueError(
                f"metrics_interval must be >= 0, got {self.metrics_interval}"
            )

    @property
    def window_cycles(self) -> int:
        """The metrics window length the session samples (``0``: none)."""
        if self.metrics_interval or not self.alerts:
            return self.metrics_interval
        return ALERT_METRICS_INTERVAL

    @property
    def enabled(self) -> bool:
        """Whether any observer is switched on."""
        return (
            self.trace
            or self.metrics_interval > 0
            or self.profile
            or self.ledger_path is not None
            or self.alerts
        )
