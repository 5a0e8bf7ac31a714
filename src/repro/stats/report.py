"""Per-run report: the derived metrics the paper's figures plot.

A :class:`RunReport` is produced by one simulation run (one workload under
one policy) and exposes exactly the quantities used in Figures 4-13:

* execution time (cycles and seconds),
* compute bandwidth in GVOPS (Figure 4),
* memory request bandwidth in GMR/s (Figure 5),
* DRAM accesses (Figures 7 and 11),
* cache stalls per GPU memory request (Figures 8 and 12),
* DRAM row-buffer hit ratio (Figures 9 and 13).

Beyond the paper's figures the report also surfaces the serving-system
axes later PRs added: per-stream sub-counters and interference metrics
for multi-tenant runs and NUMA local/remote traffic for multi-device
runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.config import SystemConfig
from repro.stats.counters import StatsCollector

__all__ = ["RunReport"]

#: per-stream counter namespace: ``stream<i>.<metric>``
_STREAM_COUNTER = re.compile(r"^stream(\d+)\.(.+)$")


@dataclass
class RunReport:
    """Summary of one simulation run."""

    workload: str
    policy: str
    cycles: int
    counters: dict[str, int] = field(default_factory=dict)
    clock_ghz: float = 1.6
    wavefront_size: int = 64
    #: telemetry metrics windows (``{"start", "end", "counters"}`` dicts,
    #: see :mod:`repro.telemetry.metrics`); empty unless the run sampled
    metrics: list[dict] = field(default_factory=list)
    #: anomaly alerts (:meth:`repro.obs.alerts.Alert.as_dict` dicts);
    #: empty unless the run had the detectors enabled and they fired
    alerts: list[dict] = field(default_factory=list)
    #: per-counter relative error bounds of extrapolated counters (plus
    #: the ``"cycles"`` key); empty unless the run fast-forwarded kernels
    error_estimates: dict[str, float] = field(default_factory=dict)
    #: fast-forward / shard summary (kernels executed vs skipped,
    #: represented events, shard counts); empty for exact runs
    sampling: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_stats(
        cls,
        workload: str,
        policy: str,
        cycles: int,
        stats: StatsCollector,
        config: SystemConfig,
        metrics: "list[dict] | None" = None,
    ) -> "RunReport":
        """Build a report from the shared counter store after a run."""
        return cls(
            workload=workload,
            policy=policy,
            cycles=cycles,
            counters=stats.counters(),
            clock_ghz=config.gpu.clock_ghz,
            wavefront_size=config.gpu.wavefront_size,
            metrics=list(metrics) if metrics else [],
        )

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Full state of the report, suitable for lossless JSON round-trip.

        Unlike :meth:`as_dict` (the *derived* figure metrics), this captures
        the raw fields, so ``RunReport.from_dict(report.to_dict())`` compares
        equal to ``report`` and reproduces every derived metric exactly.
        The persistent result store and the sweep executor's worker
        processes both ship reports across process boundaries in this form.
        """
        blob: dict[str, object] = {
            "workload": self.workload,
            "policy": self.policy,
            "cycles": self.cycles,
            "counters": dict(self.counters),
            "clock_ghz": self.clock_ghz,
            "wavefront_size": self.wavefront_size,
        }
        if self.metrics:
            # only sampled runs carry the key, so blobs of plain runs (and
            # every pre-telemetry golden fixture) are byte-identical
            blob["metrics"] = [dict(window) for window in self.metrics]
        if self.alerts:
            # same touched-gating as metrics: healthy or detector-less runs
            # serialize exactly as they always have
            blob["alerts"] = [dict(alert) for alert in self.alerts]
        if self.error_estimates:
            # only fast-forwarded runs carry the keys, so exact-run blobs
            # (and every pre-sampling golden fixture) stay byte-identical
            blob["error_estimates"] = dict(self.error_estimates)
        if self.sampling:
            blob["sampling"] = dict(self.sampling)
        return blob

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output (e.g. a JSON blob)."""
        try:
            workload = data["workload"]
            policy = data["policy"]
            cycles = data["cycles"]
        except KeyError as missing:
            raise ValueError(f"run report dict is missing key {missing}") from None
        if not isinstance(workload, str) or not isinstance(policy, str):
            raise ValueError("run report workload/policy must be strings")
        counters_raw = data.get("counters", {})
        if not isinstance(counters_raw, Mapping):
            raise ValueError("run report counters must be a mapping")
        metrics_raw = data.get("metrics", [])
        if not isinstance(metrics_raw, Sequence) or isinstance(metrics_raw, (str, bytes)):
            raise ValueError("run report metrics must be a list of windows")
        alerts_raw = data.get("alerts", [])
        if not isinstance(alerts_raw, Sequence) or isinstance(alerts_raw, (str, bytes)):
            raise ValueError("run report alerts must be a list of alert dicts")
        errors_raw = data.get("error_estimates", {})
        if not isinstance(errors_raw, Mapping):
            raise ValueError("run report error_estimates must be a mapping")
        sampling_raw = data.get("sampling", {})
        if not isinstance(sampling_raw, Mapping):
            raise ValueError("run report sampling must be a mapping")
        return cls(
            workload=workload,
            policy=policy,
            cycles=int(cycles),  # type: ignore[arg-type]
            counters={str(name): int(value) for name, value in counters_raw.items()},  # type: ignore[arg-type]
            clock_ghz=float(data.get("clock_ghz", 1.6)),  # type: ignore[arg-type]
            wavefront_size=int(data.get("wavefront_size", 64)),  # type: ignore[arg-type]
            metrics=[dict(window) for window in metrics_raw],  # type: ignore[call-overload]
            alerts=[dict(alert) for alert in alerts_raw],  # type: ignore[call-overload]
            error_estimates={
                str(name): float(value) for name, value in errors_raw.items()  # type: ignore[arg-type]
            },
            sampling=dict(sampling_raw),
        )

    # ------------------------------------------------------------------
    def get(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    @property
    def seconds(self) -> float:
        """Wall-clock execution time implied by the GPU clock."""
        return self.cycles / (self.clock_ghz * 1e9)

    # -- traffic -----------------------------------------------------------
    @property
    def gpu_mem_requests(self) -> int:
        """Line requests issued by the CUs to the memory system."""
        return self.get("gpu.mem_requests")

    @property
    def dram_accesses(self) -> int:
        """Accesses that reached the DRAM controllers (Figure 7 metric)."""
        return self.get("dram.accesses")

    @property
    def dram_reads(self) -> int:
        return self.get("dram.reads")

    @property
    def dram_writes(self) -> int:
        return self.get("dram.writes")

    # -- row locality ------------------------------------------------------
    @property
    def dram_row_hits(self) -> int:
        return self.get("dram.row_hits")

    @property
    def dram_row_hit_rate(self) -> float:
        """Fraction of DRAM accesses that hit an open row (Figure 9 metric)."""
        total = self.dram_accesses
        return self.dram_row_hits / total if total else 0.0

    # -- NUMA traffic ------------------------------------------------------
    @property
    def local_requests(self) -> int:
        """Line requests served by the issuing device's own L2 slice.

        Zero outside multi-device topology runs (single-device reports do
        not carry ``topo.*`` counters at all).
        """
        return self.get("topo.local_requests")

    @property
    def remote_requests(self) -> int:
        """Line requests that crossed the inter-device fabric."""
        return self.get("topo.remote_requests")

    @property
    def remote_fraction(self) -> float:
        """Fraction of slice-bound requests homed on a remote device."""
        total = self.local_requests + self.remote_requests
        return self.remote_requests / total if total else 0.0

    # -- stalls ------------------------------------------------------------
    @property
    def cache_stall_cycles(self) -> int:
        """Combined L1 + L2 stall cycles (Figure 8 metric numerator)."""
        return self.get("l1.stall_cycles") + self.get("l2.stall_cycles")

    @property
    def cache_stalls_per_request(self) -> float:
        """Cache stall cycles per GPU memory request (Figure 8 metric)."""
        requests = self.gpu_mem_requests
        return self.cache_stall_cycles / requests if requests else 0.0

    # -- cache behaviour ---------------------------------------------------
    @property
    def l1_hits(self) -> int:
        return self.get("l1.hits")

    @property
    def l1_hit_rate(self) -> float:
        accesses = self.get("l1.accesses")
        return self.l1_hits / accesses if accesses else 0.0

    @property
    def l2_hits(self) -> int:
        return self.get("l2.hits")

    @property
    def l2_hit_rate(self) -> float:
        accesses = self.get("l2.accesses")
        return self.l2_hits / accesses if accesses else 0.0

    # -- bandwidths --------------------------------------------------------
    @property
    def lane_ops(self) -> int:
        """Total per-lane vector operations executed."""
        return self.get("gpu.vector_ops") * self.wavefront_size

    @property
    def gvops(self) -> float:
        """Giga vector (lane) operations per second (Figure 4 metric)."""
        seconds = self.seconds
        return self.lane_ops / seconds / 1e9 if seconds else 0.0

    @property
    def gmrs(self) -> float:
        """Giga GPU memory requests per second (Figure 5 metric)."""
        seconds = self.seconds
        return self.gpu_mem_requests / seconds / 1e9 if seconds else 0.0

    # -- multi-tenant serving ----------------------------------------------
    @property
    def per_stream(self) -> dict[int, dict[str, int]]:
        """Per-stream sub-reports of a multi-tenant serving run.

        Serving runs record stream-tagged counters
        (``stream<i>.mem_requests``, ``stream<i>.cycles``, ...); this
        groups them by stream index.  Empty for single-workload runs.
        """
        streams: dict[int, dict[str, int]] = {}
        for name, value in self.counters.items():
            match = _STREAM_COUNTER.match(name)
            if match is not None:
                streams.setdefault(int(match.group(1)), {})[match.group(2)] = value
        return dict(sorted(streams.items()))

    @property
    def num_streams(self) -> int:
        """Execution streams of the run (0 outside serving runs)."""
        return len(self.per_stream)

    def stream_cycles(self, index: int) -> int:
        """Cycles stream ``index`` took from its arrival to its completion."""
        try:
            return self.counters[f"stream{index}.cycles"]
        except KeyError:
            raise KeyError(
                f"report for {self.workload!r} has no stream {index} "
                "(not a serving run, or the stream never finished)"
            ) from None

    def interference(self, solo_cycles: Sequence[int]) -> dict[str, object]:
        """Per-tenant slowdown and unfairness versus solo execution.

        Args:
            solo_cycles: each stream's execution time when it runs alone
                on the same system under the same policy, in stream order.

        Returns a dict with ``slowdowns`` (per-tenant ``mix / solo`` cycle
        ratios, stream order), ``mean_slowdown``, ``max_slowdown``, and
        ``unfairness`` (max/min slowdown, 1.0 = perfectly fair, the metric
        of the multi-tenancy literature).
        """
        streams = self.per_stream
        if len(solo_cycles) != len(streams):
            raise ValueError(
                f"got {len(solo_cycles)} solo baselines for {len(streams)} streams"
            )
        slowdowns = [
            self.stream_cycles(index) / solo if solo else 0.0
            for index, solo in enumerate(solo_cycles)
        ]
        return {
            "slowdowns": slowdowns,
            "mean_slowdown": sum(slowdowns) / len(slowdowns) if slowdowns else 0.0,
            "max_slowdown": max(slowdowns) if slowdowns else 0.0,
            "unfairness": (
                max(slowdowns) / min(slowdowns)
                if slowdowns and min(slowdowns) > 0
                else 0.0
            ),
        }

    # -- misc ----------------------------------------------------------------
    @property
    def kernels(self) -> int:
        return self.get("gpu.kernels_completed")

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary used by the CLI, benchmarks and EXPERIMENTS.md."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "cycles": self.cycles,
            "seconds": self.seconds,
            "gvops": self.gvops,
            "gmrs": self.gmrs,
            "gpu_mem_requests": self.gpu_mem_requests,
            "dram_accesses": self.dram_accesses,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "dram_row_hit_rate": self.dram_row_hit_rate,
            "remote_fraction": self.remote_fraction,
            "cache_stall_cycles": self.cache_stall_cycles,
            "cache_stalls_per_request": self.cache_stalls_per_request,
            "l1_hit_rate": self.l1_hit_rate,
            "l2_hit_rate": self.l2_hit_rate,
            "kernels": self.kernels,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunReport({self.workload}/{self.policy}: cycles={self.cycles}, "
            f"dram={self.dram_accesses}, stalls/req={self.cache_stalls_per_request:.2f}, "
            f"row_hit={self.dram_row_hit_rate:.2f})"
        )
