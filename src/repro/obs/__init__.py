"""Cross-run observability: run ledger, counter diffing, regression
sentinel support, and anomaly alerts.

The telemetry package (PR 8) answers "what happened *inside* this run";
this package answers the fleet-level questions that need more than one
run: *which* runs happened (``ledger``), what changed between two of them
(``diff``), whether the simulator got slower (``bench``), and whether a
run crossed an operational red line (``alerts``).

Everything here is an **observer**: attaching a ledger or the anomaly
detectors never changes simulated results, and a run with observability
disabled executes the exact historical code path (pinned by the
equivalence suites).
"""

from repro.obs.alerts import Alert, AlertConfig, detect_anomalies
from repro.obs.bench import (
    CORE_BENCHMARK,
    EFFECTIVE_BENCHMARK,
    BenchMeasurement,
    append_history,
    committed_baseline,
    default_history_path,
    evaluate_measurement,
    load_history,
    measure_core_throughput,
    measure_effective_throughput,
)
from repro.obs.config import ObsConfig
from repro.obs.diff import (
    diff_reports,
    render_diff_markdown,
    render_diff_table,
    resolve_report,
)
from repro.obs.ledger import (
    RunLedger,
    default_ledger_path,
    run_entry,
)

__all__ = [
    "Alert",
    "AlertConfig",
    "BenchMeasurement",
    "CORE_BENCHMARK",
    "EFFECTIVE_BENCHMARK",
    "ObsConfig",
    "RunLedger",
    "append_history",
    "committed_baseline",
    "default_history_path",
    "default_ledger_path",
    "detect_anomalies",
    "diff_reports",
    "evaluate_measurement",
    "load_history",
    "measure_core_throughput",
    "measure_effective_throughput",
    "render_diff_markdown",
    "render_diff_table",
    "resolve_report",
    "run_entry",
]
