"""Shared counter store for all timing components.

The collector keeps namespaced integer counters (``"l1.hits"``,
``"dram.row_hits"``) and simple histograms, with snapshot/diff helpers used
by per-kernel accounting.

Hot-path components do not look counters up by name on every event.
Instead they resolve a :class:`Counter` handle once (usually in their
``__init__``) via :meth:`StatsCollector.counter` and bump the handle's
``value`` directly -- no per-access string formatting, no dict hashing, no
method call.  A handle is shared storage: every component that resolves the
same name gets the same :class:`Counter` object, so per-CU L1 caches still
aggregate into one ``"l1.*"`` namespace exactly as before.

Resolving a handle does *not* make the counter visible.  A counter appears
in :meth:`StatsCollector.counters`, :meth:`~StatsCollector.matching`,
:meth:`~StatsCollector.get` and :meth:`~StatsCollector.merge` (and
therefore in run reports) once it is *touched* -- written through
:meth:`Counter.add` or :meth:`StatsCollector.set` -- or its value is
nonzero.  A counter only ever bumped by positive amounts is nonzero from
its first bump, so hot paths write ``handle.value += n`` for amounts known
to be positive, and keep :meth:`Counter.add` for amounts that may be zero
or negative (whose write must still show).  Report contents stay identical
to the old lazily-created ``defaultdict`` behaviour.
"""

from __future__ import annotations

from collections import defaultdict
from math import ceil
from typing import Iterable, Mapping

__all__ = ["Counter", "StatsCollector"]


class Counter:
    """Pre-bound mutable handle to one named counter.

    Hot paths bump ``value`` in place when the amount is known to be
    positive.  :meth:`add` also sets ``touched``, which records a write
    whose amount may have been zero or negative.  The collector shows a
    counter that is touched or nonzero, so resolved-but-never-written
    counters stay hidden and pre-registering handles cannot change reports.
    """

    __slots__ = ("name", "value", "touched")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.touched = False

    def add(self, amount: int = 1) -> None:
        """Increment by ``amount`` (may be negative)."""
        self.value += amount
        self.touched = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class StatsCollector:
    """Accumulates named integer counters and simple histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: defaultdict[str, defaultdict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )

    # -- counters ---------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Resolve the mutable handle for counter ``name`` (creating it).

        The returned object is shared: all callers asking for the same name
        increment the same cell.  Components resolve handles once and keep
        them, moving the name lookup out of the simulation hot path.
        """
        handle = self._counters.get(name)
        if handle is None:
            handle = self._counters[name] = Counter(name)
        return handle

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (may be negative)."""
        self.counter(name).add(amount)

    def set(self, name: str, value: int) -> None:
        """Set counter ``name`` to an absolute value."""
        handle = self.counter(name)
        handle.value = value
        handle.touched = True

    def get(self, name: str, default: int = 0) -> int:
        """Read a counter, returning ``default`` if it was never written."""
        handle = self._counters.get(name)
        if handle is None or not (handle.touched or handle.value):
            return default
        return handle.value

    def counters(self) -> dict[str, int]:
        """A copy of all written counters."""
        return {
            name: handle.value
            for name, handle in self._counters.items()
            if handle.touched or handle.value
        }

    def matching(self, prefix: str) -> dict[str, int]:
        """All written counters whose name starts with ``prefix``."""
        return {
            name: handle.value
            for name, handle in self._counters.items()
            if (handle.touched or handle.value) and name.startswith(prefix)
        }

    def sum(self, names: Iterable[str]) -> int:
        """Sum of several counters."""
        return sum(self.get(name) for name in names)

    # -- histograms -------------------------------------------------------
    def histogram_handle(self, name: str) -> defaultdict[int, int]:
        """Resolve the mutable value->count mapping for histogram ``name``.

        Hot-path observers keep the handle and do ``handle[value] += 1``
        directly, skipping the outer name lookup of :meth:`observe`.
        """
        return self._histograms[name]

    def observe(self, name: str, value: int) -> None:
        """Add one observation to histogram ``name``."""
        self._histograms[name][value] += 1

    def histogram(self, name: str) -> dict[int, int]:
        """A copy of histogram ``name`` (value -> count)."""
        return dict(self._histograms.get(name, {}))

    def histogram_mean(self, name: str) -> float:
        """Mean of the observations in histogram ``name`` (0.0 if empty)."""
        hist = self._histograms.get(name)
        if not hist:
            return 0.0
        total = sum(v * c for v, c in hist.items())
        count = sum(hist.values())
        return total / count

    def histogram_percentile(self, name: str, p: float) -> float:
        """The ``p``-th percentile of histogram ``name`` (0.0 if empty).

        Nearest-rank definition: the smallest observed value whose
        cumulative count reaches ``ceil(p/100 * total)``, so the result is
        always an actually-observed value.  ``p=0`` is the minimum,
        ``p=100`` the maximum.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        hist = self._histograms.get(name)
        if not hist:
            return 0.0
        total = sum(hist.values())
        rank = max(1, ceil(p / 100.0 * total))
        cumulative = 0
        for value in sorted(hist):
            cumulative += hist[value]
            if cumulative >= rank:
                return float(value)
        return float(max(hist))  # pragma: no cover - rank <= total always hits

    def histogram_summary(self, name: str) -> dict[str, float]:
        """Count/mean/p50/p95/p99/max digest of histogram ``name``.

        The telemetry latency summaries use this shape; all fields are 0.0
        for an empty (or absent) histogram.
        """
        hist = self._histograms.get(name)
        if not hist:
            return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": float(sum(hist.values())),
            "mean": self.histogram_mean(name),
            "p50": self.histogram_percentile(name, 50),
            "p95": self.histogram_percentile(name, 95),
            "p99": self.histogram_percentile(name, 99),
            "max": float(max(hist)),
        }

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of the counters (used for per-kernel deltas)."""
        return self.counters()

    def delta_since(self, snapshot: Mapping[str, int]) -> dict[str, int]:
        """Difference between the current counters and ``snapshot``."""
        current = self.counters()
        keys = set(current) | set(snapshot)
        return {k: current.get(k, 0) - snapshot.get(k, 0) for k in keys}

    def merge(self, other: "StatsCollector") -> None:
        """Fold another collector's counters and histograms into this one."""
        for name, theirs in other._counters.items():
            if not (theirs.touched or theirs.value):
                continue
            ours = self.counter(name)
            ours.value += theirs.value
            ours.touched = True
        for name, hist in other._histograms.items():
            mine = self._histograms[name]
            for value, count in hist.items():
                mine[value] += count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatsCollector({len(self._counters)} counters)"
