"""Configuration of the fast simulation modes.

Two composable accelerations, both off by default and both fingerprinted
into :class:`~repro.spec.JobSpec` identities:

* :class:`SamplingConfig` -- phase-sampled fast-forward.  Repeated
  instances of the same kernel are measured a few times; once their
  windowed phase metrics (the :mod:`repro.adaptive.phase` signals, under
  the phase detector's own thresholds) and cycle counts are steady, the
  remaining instances are skipped and their counters extrapolated with
  warmup correction, with a per-counter error bound reported on the run
  report.  Only the instance counts are settable; the steadiness
  thresholds are constants of :mod:`repro.adaptive.phase` and
  :mod:`repro.accel.sampling`.
* :class:`ShardConfig` -- sharded multi-process execution.  A serving
  mix of partitioned tenants is split along its streams into
  independent shard runs whose reports are merged; distinct shards run
  one worker process each, equal shards are simulated once.

Exact mode -- ``sampling=None`` and a single shard -- is bit-identical to
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

    A run is sampled exactly when its spec carries one of these; exact
    mode is ``sampling=None``.

    Args:
        warmup_instances: executed instances per kernel signature whose
            counter deltas are *excluded* from the extrapolation basis
            (cold caches make the first instance unrepresentative).
        measure_instances: executed instances (after warmup) whose deltas
            form the extrapolation basis; skipping can only begin once
            ``warmup_instances + measure_instances`` instances ran and
            the last two look phase-steady.
    """

    warmup_instances: int = 1
    measure_instances: int = 2

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

    def describe(self) -> dict[str, object]:
        """Stable description for fingerprinting."""
        return {
            "warmup_instances": self.warmup_instances,
            "measure_instances": self.measure_instances,
        }


@dataclass(frozen=True)
class ShardConfig:
    """Sharded multi-process execution of one big run.

    Args:
        num_shards: shards, each owning a subset of the serving streams
            (distinct shards run one worker process each, equal ones are
            simulated once); 1 is exact mode and fingerprints as ``None``.
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
