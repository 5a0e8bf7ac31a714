"""Counter-for-counter comparison of two run reports.

"What changed between these two runs?" used to mean eyeballing JSON
blobs.  :func:`diff_reports` answers it structurally: every counter of
either report is compared, deltas get relative-change annotations, and
the derived signals the figures plot (hit rates, remote fraction,
stalls per request) are diffed alongside so a counter
regression is immediately connected to the metric it moves.

The self-test property the acceptance criteria pin: the simulator is
deterministic, so two runs with the same fingerprint must diff to **zero
drift** -- ``identical`` is true and the drift row list is empty.  Any
other outcome means nondeterminism leaked into the model, which is
exactly what the CI smoke step exists to catch.

:func:`resolve_report` turns the CLI's ``A``/``B`` references -- report
file paths (store blobs or ``RunReport.to_dict`` JSON), store fingerprint
prefixes, or ledger references (entry indexes like ``-1``, fingerprint
prefixes) -- into reports.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional

from repro.obs.ledger import RunLedger
from repro.stats.report import RunReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store -> jobs -> session -> obs)
    from repro.experiments.store import ResultStore

__all__ = [
    "diff_reports",
    "render_diff_table",
    "resolve_report",
]

#: diff payload schema; bump when the structure changes incompatibly
DIFF_SCHEMA = 1

#: the derived signals diffed alongside raw counters
_DERIVED = (
    "l1_hit_rate",
    "l2_hit_rate",
    "dram_row_hit_rate",
    "remote_fraction",
    "cache_stalls_per_request",
)


def _entry_report(entry: Mapping[str, object], ref: str) -> RunReport:
    """Rebuild a comparable report from one ledger entry."""
    counters = entry.get("counters")
    if not isinstance(counters, Mapping):
        raise ValueError(
            f"ledger entry {ref!r} carries no counters (kind="
            f"{entry.get('kind')!r}); only run/job entries are diffable"
        )
    return RunReport(
        workload=str(entry.get("workload", "?")),
        policy=str(entry.get("policy", "?")),
        cycles=int(entry.get("cycles", 0)),  # type: ignore[arg-type]
        counters={str(name): int(value) for name, value in counters.items()},
    )


def resolve_report(
    ref: str,
    store: "Optional[ResultStore]" = None,
    ledger: Optional[RunLedger] = None,
) -> tuple[RunReport, str]:
    """Resolve one diff operand to ``(report, label)``.

    Resolution order:

    1. an existing file: a result-store blob (``{"report": ...}``) or a
       bare ``RunReport.to_dict`` JSON object;
    2. a ledger reference: an integer entry index (``-1`` = newest) or,
       after store lookup fails, a fingerprint prefix;
    3. a store fingerprint (full key or unique prefix).

    Raises ``ValueError`` with guidance when nothing matches.
    """
    path = Path(ref)
    if path.is_file():
        blob = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(blob, Mapping):
            raise ValueError(f"report file {ref} is not a JSON object")
        if isinstance(blob.get("report"), Mapping):
            return RunReport.from_dict(blob["report"]), str(path)
        if "counters" in blob and "workload" in blob:
            return RunReport.from_dict(blob), str(path)
        raise ValueError(
            f"report file {ref} is neither a result-store blob nor a "
            "RunReport.to_dict JSON object (note: 'run --json' output is "
            "derived metrics only; diff needs raw counters)"
        )
    # ledger index reference ("-1", "0", ...)
    is_index = True
    try:
        int(ref)
    except ValueError:
        is_index = False
    if is_index:
        if ledger is None:
            raise ValueError(f"reference {ref!r} looks like a ledger index but no ledger is available")
        entry = ledger.find(ref)
        if entry is None:
            raise ValueError(f"ledger {ledger.path} has no entry {ref}")
        return _entry_report(entry, ref), f"ledger:{ref}"
    # store fingerprint (prefix)
    if store is not None and all(ch in "0123456789abcdef" for ch in ref.lower()):
        matches = [key for key in store.keys() if key.startswith(ref)]
        if len(matches) > 1:
            raise ValueError(
                f"fingerprint prefix {ref!r} is ambiguous in {store.root} "
                f"({len(matches)} matches); use more characters"
            )
        if matches:
            report = store.load(matches[0])
            if report is not None:
                return report, f"store:{matches[0][:12]}"
    if ledger is not None:
        entry = ledger.find(ref)
        if entry is not None:
            fingerprint_hex = entry.get("fingerprint")
            label = (
                f"ledger:{fingerprint_hex[:12]}"
                if isinstance(fingerprint_hex, str)
                else "ledger:?"
            )
            return _entry_report(entry, ref), label
    raise ValueError(
        f"cannot resolve {ref!r}: not a report file, store fingerprint or "
        "ledger reference (pass --cache-dir / --ledger to point at them)"
    )


def _rel(delta: int, base: int) -> Optional[float]:
    """Relative change vs the A side; None when A had no such counter."""
    return delta / base if base else None


def diff_reports(
    a: RunReport,
    b: RunReport,
    threshold: float = 0.0,
    a_label: str = "A",
    b_label: str = "B",
) -> dict[str, object]:
    """Structured counter + derived-signal diff of two reports.

    Args:
        a / b: the reports to compare (A is the baseline deltas are
            relative to).
        threshold: minimum absolute relative change for a counter to make
            the drift row list (0 lists every changed counter).  Counters
            present on only one side always make the list.
        a_label / b_label: provenance labels for rendering.

    ``identical`` is strict: equal cycle counts and equal counter maps --
    the property two same-fingerprint runs must satisfy.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    names = sorted(set(a.counters) | set(b.counters))
    rows: list[dict[str, object]] = []
    changed = 0
    max_rel = 0.0
    for name in names:
        value_a = a.counters.get(name, 0)
        value_b = b.counters.get(name, 0)
        delta = value_b - value_a
        if delta == 0:
            continue
        changed += 1
        rel = _rel(delta, value_a)
        if rel is not None:
            max_rel = max(max_rel, abs(rel))
        only = name not in a.counters or name not in b.counters
        if only or rel is None or abs(rel) >= threshold:
            rows.append(
                {
                    "counter": name,
                    "a": value_a,
                    "b": value_b,
                    "delta": delta,
                    "rel": rel,
                }
            )
    derived: dict[str, dict[str, float]] = {}
    for signal in _DERIVED:
        value_a = float(getattr(a, signal))
        value_b = float(getattr(b, signal))
        derived[signal] = {
            "a": value_a,
            "b": value_b,
            "delta": value_b - value_a,
        }
    identical = a.cycles == b.cycles and a.counters == b.counters
    return {
        "schema": DIFF_SCHEMA,
        "a": {
            "label": a_label,
            "workload": a.workload,
            "policy": a.policy,
            "cycles": a.cycles,
        },
        "b": {
            "label": b_label,
            "workload": b.workload,
            "policy": b.policy,
            "cycles": b.cycles,
        },
        "threshold": threshold,
        "identical": identical,
        "cycles": {
            "a": a.cycles,
            "b": b.cycles,
            "delta": b.cycles - a.cycles,
            "rel": _rel(b.cycles - a.cycles, a.cycles),
        },
        "counters": {
            "total": len(names),
            "changed": changed,
            "listed": len(rows),
            "max_rel_change": max_rel,
            "rows": rows,
        },
        "derived": derived,
    }


def _fmt_rel(rel: Optional[float]) -> str:
    return "new" if rel is None else f"{rel:+.2%}"


def render_diff_table(diff: Mapping[str, object]) -> str:
    """Human-readable text rendering of a :func:`diff_reports` payload."""
    a, b = diff["a"], diff["b"]
    assert isinstance(a, Mapping) and isinstance(b, Mapping)
    cycles = diff["cycles"]
    counters = diff["counters"]
    derived = diff["derived"]
    assert isinstance(cycles, Mapping) and isinstance(counters, Mapping)
    assert isinstance(derived, Mapping)
    lines = [
        f"Diff: {a['label']} ({a['workload']}/{a['policy']}) vs "
        f"{b['label']} ({b['workload']}/{b['policy']})",
        f"  identical: {'yes' if diff['identical'] else 'NO'}",
        f"  cycles: {cycles['a']} -> {cycles['b']} "
        f"({cycles['delta']:+d}, {_fmt_rel(cycles['rel'])})",
        f"  counters: {counters['changed']} of {counters['total']} changed "
        f"(max relative change {counters['max_rel_change']:.2%}, "
        f"threshold {diff['threshold']:.2%})",
    ]
    rows = counters["rows"]
    assert isinstance(rows, list)
    if rows:
        width = max(len(str(row["counter"])) for row in rows)
        for row in rows:
            lines.append(
                f"    {str(row['counter']):{width}s}  "
                f"{row['a']:>12} -> {row['b']:>12}  "
                f"{row['delta']:+d} ({_fmt_rel(row['rel'])})"
            )
    lines.append("  derived signals:")
    for name, values in derived.items():
        assert isinstance(values, Mapping)
        lines.append(
            f"    {name:24s}  {values['a']:.4f} -> {values['b']:.4f}  "
            f"({values['delta']:+.4f})"
        )
    return "\n".join(lines)
