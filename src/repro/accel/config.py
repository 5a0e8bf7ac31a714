"""Configuration of the fast simulation modes.

Two composable accelerations, both off by default and both fingerprinted
into :class:`~repro.spec.JobSpec` identities:

* :class:`SamplingConfig` -- phase-sampled fast-forward.  Repeated
  instances of the same kernel are measured a few times; once their
  windowed phase metrics (the :mod:`repro.adaptive.phase` signals) are
  steady, the remaining instances are skipped and their counters
  extrapolated with warmup correction, with a per-counter error bound
  reported on the run report.
* :class:`ShardConfig` -- sharded multi-process execution.  A serving
  mix of partitioned tenants is split along its streams into
  independent shard runs, one worker process each, whose reports are
  merged.

Exact mode -- sampling disabled and a single shard -- is bit-identical to
the historical simulator and hashes as ``None`` in fingerprints, so
exact baselines keep their warm result-store cells.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SamplingConfig", "ShardConfig"]

#: shard axes; both split a serving mix along its streams
SHARD_AXES = ("auto", "streams")


@dataclass(frozen=True)
class SamplingConfig:
    """Phase-sampled fast-forward of steady-state kernel repeats.

    Args:
        enabled: master switch; a disabled config is exact mode and
            fingerprints as ``None``.
        warmup_instances: executed instances per kernel signature whose
            counter deltas are *excluded* from the extrapolation basis
            (cold caches make the first instance unrepresentative).
        measure_instances: executed instances (after warmup) whose deltas
            form the extrapolation basis; skipping can only begin once
            ``warmup_instances + measure_instances`` instances ran and
            the last two look phase-steady.
        intensity_delta: relative arithmetic-intensity threshold of the
            steadiness test (same meaning as the phase detector's).
        hit_rate_delta: absolute L2-hit-rate threshold.
        write_fraction_delta: absolute write-fraction threshold.
        cycle_delta: maximum relative spread between the last two
            measured cycle deltas for a signature to count as steady --
            the direct guard on extrapolated-cycle error.
    """

    enabled: bool = True
    warmup_instances: int = 1
    measure_instances: int = 2
    intensity_delta: float = 0.5
    hit_rate_delta: float = 0.15
    write_fraction_delta: float = 0.15
    cycle_delta: float = 0.10

    def __post_init__(self) -> None:
        if self.warmup_instances < 0:
            raise ValueError(
                f"warmup_instances must be >= 0, got {self.warmup_instances}"
            )
        if self.measure_instances < 1:
            raise ValueError(
                f"measure_instances must be >= 1, got {self.measure_instances}"
            )
        if self.warmup_instances + self.measure_instances < 2:
            raise ValueError(
                "need at least two executed instances per signature "
                "(warmup_instances + measure_instances >= 2) to judge steadiness"
            )
        for name in ("intensity_delta", "hit_rate_delta", "write_fraction_delta", "cycle_delta"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def empty(self) -> bool:
        """True when this config changes nothing (exact mode)."""
        return not self.enabled

    def describe(self) -> dict[str, object]:
        """Stable description for fingerprinting."""
        return {
            "warmup_instances": self.warmup_instances,
            "measure_instances": self.measure_instances,
            "intensity_delta": self.intensity_delta,
            "hit_rate_delta": self.hit_rate_delta,
            "write_fraction_delta": self.write_fraction_delta,
            "cycle_delta": self.cycle_delta,
        }


@dataclass(frozen=True)
class ShardConfig:
    """Sharded multi-process execution of one big run.

    Args:
        num_shards: worker processes, each owning a subset of the
            serving streams; 1 is exact mode and fingerprints as ``None``.
        axis: ``"streams"`` or ``"auto"``, which mean the same: the
            serving streams are the only seam a run is sharded along.
    """

    num_shards: int = 1
    axis: str = "auto"

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.axis == "devices":
            raise ValueError(
                "axis='devices' was removed: it dropped fabric latency between "
                "devices; run a multi-device topology unsharded"
            )
        if self.axis not in SHARD_AXES:
            raise ValueError(f"axis must be one of {SHARD_AXES}, got {self.axis!r}")

    @property
    def empty(self) -> bool:
        """True when this config changes nothing (exact mode)."""
        return self.num_shards <= 1

    def describe(self) -> dict[str, object]:
        """Stable description for fingerprinting.

        ``axis`` has a single meaning, so it cannot change simulated
        results and stays out of the identity.
        """
        return {"num_shards": self.num_shards}
