"""Cross-run observability: run ledger, counter diffing and anomaly alerts.

The telemetry package answers "what happened *inside* this run"; this
package answers the fleet-level questions that need more than one run:
*which* runs happened (``ledger``), what changed between two of them
(``diff``), and whether a run crossed an operational red line
(``alerts``).

A session switches the ledger and the detectors on through its
:class:`~repro.telemetry.config.TelemetryConfig` (``ledger_path``,
``alerts``); this package holds no configuration of its own.
Everything here is an **observer**: attaching a ledger or the anomaly
detectors never changes simulated results, and a run with observability
disabled executes the exact historical code path (pinned by the
equivalence suites).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.alerts": ("Alert", "detect_anomalies"),
        "repro.obs.diff": ("diff_reports", "render_diff_table", "resolve_report"),
        "repro.obs.ledger": ("RunLedger", "default_ledger_path", "run_entry"),
    },
)
