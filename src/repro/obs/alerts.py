"""Anomaly detection over a finished run's report and metrics windows.

End-of-run counters say *what* a run cost; the telemetry metrics windows
say *when*.  The detectors here read both (and nothing else -- they run after
the simulation and never touch simulator state) and turn two
operationally meaningful patterns into structured
:class:`Alert` records on :attr:`repro.stats.report.RunReport.alerts`:

* **hit_rate_cliff** -- the L2 hit rate dropped sharply between two
  adjacent windows with real traffic: a working set blew out, a policy
  swap misfired, or a tenant's streaming phase started trashing the cache
  (the CIAO-style signal that throughput-oriented cache management cares
  about).
* **stream_starvation** -- under *shared* CU dispatch, one live tenant's
  share of window traffic collapsed below a fraction of its fair share
  while other tenants kept issuing: the interference pathology the
  serving study measures, surfaced per window instead of post-hoc.

``TelemetryConfig(alerts=True)`` (the CLI's ``--alerts``) runs the
detectors after the run; without an explicit ``metrics_interval`` the
session then samples a window every
:data:`~repro.telemetry.config.ALERT_METRICS_INTERVAL` cycles, so the
detectors always have windows to read.  The thresholds are the module
constants below.

Alert emission is touched-gated exactly like counters: a healthy run
produces an empty list, ``RunReport.to_dict`` omits the ``alerts`` key
when empty, and an alerts-enabled run reports counter-for-counter the
same results as a plain one (pinned by the equivalence suites).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.telemetry.metrics import derive_window

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.stats.report import RunReport

__all__ = ["Alert", "detect_anomalies"]


# detector thresholds, deliberately conservative: alerts should mark
# pathologies, not noise
#: absolute L2 hit-rate drop between adjacent windows that fires the cliff
HIT_RATE_CLIFF = 0.25
#: both windows need at least this many L2 accesses to be judged
MIN_WINDOW_ACCESSES = 64
#: a stream starves when its window traffic share falls below this
#: fraction of its fair share (1/num_streams)
STARVATION_SHARE = 0.25
#: total stream traffic a window needs before starvation is judged
MIN_WINDOW_TRAFFIC = 64


@dataclass(frozen=True)
class Alert:
    """One detected anomaly, ready for reports, summaries and traces."""

    #: ``hit_rate_cliff`` or ``stream_starvation``
    kind: str
    #: severity level; both detectors emit ``warning``
    severity: str
    #: human-readable one-liner (rendered by the CLI summaries)
    message: str
    #: cycle the anomaly is anchored to (window end, or run end)
    cycle: int
    #: observed value of the violated signal
    value: float
    #: the threshold it violated
    threshold: float
    #: stream index for per-tenant alerts (None otherwise)
    stream: Optional[int] = None

    def as_dict(self) -> dict[str, object]:
        blob: dict[str, object] = {
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "cycle": self.cycle,
            "value": self.value,
            "threshold": self.threshold,
        }
        if self.stream is not None:
            blob["stream"] = self.stream
        return blob


def _hit_rate_cliffs(windows: list[dict]) -> list[Alert]:
    alerts: list[Alert] = []
    previous: Optional[dict] = None
    for window in windows:
        derived = derive_window(window)
        counters = window.get("counters", {})
        accesses = counters.get("l2.accesses", 0)
        if previous is not None and (
            accesses >= MIN_WINDOW_ACCESSES
            and previous["accesses"] >= MIN_WINDOW_ACCESSES
        ):
            drop = previous["l2_hit_rate"] - derived["l2_hit_rate"]
            if drop >= HIT_RATE_CLIFF:
                alerts.append(
                    Alert(
                        kind="hit_rate_cliff",
                        severity="warning",
                        message=(
                            f"L2 hit rate fell {drop:.2f} "
                            f"({previous['l2_hit_rate']:.2f} -> "
                            f"{derived['l2_hit_rate']:.2f}) in window "
                            f"[{window.get('start')}, {window.get('end')})"
                        ),
                        cycle=int(window.get("end", 0)),  # type: ignore[arg-type]
                        value=float(derived["l2_hit_rate"]),  # type: ignore[arg-type]
                        threshold=HIT_RATE_CLIFF,
                    )
                )
        previous = {"l2_hit_rate": derived["l2_hit_rate"], "accesses": accesses}
    return alerts


def _starvation(windows: list[dict]) -> list[Alert]:
    """Per-tenant traffic-collapse detection, robust to tenant lifetimes.

    A stream with zero traffic in a window is not starving if it simply
    has not launched yet or already finished -- so each stream is only
    judged in windows strictly inside its own active span (first to last
    window where it issued traffic).  Within that span, a share below
    :data:`STARVATION_SHARE` of fair share while the window carries real
    total traffic is starvation by definition: the tenant was live,
    others were served, it was not.
    """
    traffic_per_window: list[dict[int, int]] = []
    active: dict[int, list[int]] = {}  # stream -> [first, last] window index
    for index, window in enumerate(windows):
        traffic = derive_window(window)["stream_traffic"]
        assert isinstance(traffic, dict)
        traffic_per_window.append(traffic)
        for stream in traffic:
            span = active.setdefault(stream, [index, index])
            span[1] = index
    if len(active) < 2:
        return []  # starvation needs at least two tenants with traffic
    alerts: list[Alert] = []
    fair_share = 1.0 / len(active)
    threshold = STARVATION_SHARE * fair_share
    for index, window in enumerate(windows):
        traffic = traffic_per_window[index]
        total = sum(traffic.values())
        if total < MIN_WINDOW_TRAFFIC:
            continue
        for stream, (first, last) in sorted(active.items()):
            if not first < index < last:
                continue  # outside the tenant's active span
            share = traffic.get(stream, 0) / total
            if share < threshold:
                alerts.append(
                    Alert(
                        kind="stream_starvation",
                        severity="warning",
                        message=(
                            f"stream {stream} got {share:.1%} of window traffic "
                            f"(fair share {fair_share:.1%}) in window "
                            f"[{window.get('start')}, {window.get('end')})"
                        ),
                        cycle=int(window.get("end", 0)),  # type: ignore[arg-type]
                        value=share,
                        threshold=threshold,
                        stream=stream,
                    )
                )
    return alerts


def detect_anomalies(report: "RunReport", shared_dispatch: bool = True) -> list[Alert]:
    """All anomalies of one finished run, in detector-then-cycle order.

    Args:
        report: the finished run's report (windows ride on
            ``report.metrics``; window-based detectors are inert without
            them).
        shared_dispatch: whether the run's streams shared CU dispatch.
            Starvation is only meaningful under sharing -- partitioned
            tenants own their CUs and cannot crowd each other out -- so
            the detector is gated on it.
    """
    windows = [dict(window) for window in report.metrics]
    alerts = _hit_rate_cliffs(windows)
    if shared_dispatch:
        alerts.extend(_starvation(windows))
    return alerts
