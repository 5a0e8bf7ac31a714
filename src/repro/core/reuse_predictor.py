"""PC-based reuse predictor for adaptive L2 bypassing (section VII.C).

The paper applies the PC-based bypass predictor of Tian et al. ("Adaptive
GPU cache bypassing", GPGPU-8) to the GPU L2 for both loads and stores: the
static instruction (PC) that issues a memory access is a strong predictor of
whether the accessed line will be reused before eviction.  A table of
saturating counters indexed by a hash of the PC is trained by cache
outcomes:

* when a line inserted by PC *p* is hit again before eviction, the counter
  for *p* is increased (reuse observed);
* when a line inserted by PC *p* is evicted untouched, the counter is
  decreased (dead insertion).

A request whose PC counter sits below the bypass threshold skips L2
allocation entirely, avoiding allocation stalls, pollution and row-locality
disruption for streaming instructions while preserving caching for
instructions that do see reuse.  A small number of *sampler sets* in the
cache ignore the prediction so the table keeps learning even after it has
converged to "bypass everything" (otherwise a phase change could never be
detected).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fingerprint import fingerprint

__all__ = ["ReusePredictor", "PredictorConfig"]


@dataclass(frozen=True)
class PredictorConfig:
    """Geometry and thresholds of the PC-based reuse predictor.

    Attributes:
        table_entries: number of saturating counters (power of two).
        counter_bits: width of each counter.
        bypass_threshold: counter values strictly below this predict
            "no reuse" and cause the request to bypass.
        initial_value: starting counter value; defaults to one below the
            threshold, so unknown PCs bypass the L2 until the sampler sets
            observe reuse for them.  Starting in bypass mode keeps the
            training transient short for streaming kernels whose evictions
            (the "dead" training signal) only begin once the cache fills,
            while reuse-heavy PCs are promoted within a few hundred sampled
            accesses.  Set it to ``bypass_threshold`` to get the
            cache-until-proven-dead variant instead.
        reuse_increment: amount added on an observed reuse.
        eviction_decrement: amount subtracted when a line dies untouched.
    """

    table_entries: int = 1024
    counter_bits: int = 3
    bypass_threshold: int = 2
    initial_value: int | None = None
    reuse_increment: int = 1
    eviction_decrement: int = 1

    def __post_init__(self) -> None:
        if self.table_entries <= 0 or self.table_entries & (self.table_entries - 1):
            raise ValueError("table_entries must be a positive power of two")
        if self.counter_bits <= 0:
            raise ValueError("counter_bits must be positive")
        if not (0 <= self.bypass_threshold <= self.max_value):
            raise ValueError("bypass_threshold must fit in the counter range")

    def fingerprint(self) -> str:
        """Stable content hash of the predictor geometry (for result keys)."""
        return fingerprint(self)

    @property
    def max_value(self) -> int:
        return (1 << self.counter_bits) - 1

    @property
    def start_value(self) -> int:
        if self.initial_value is not None:
            return self.initial_value
        return max(0, self.bypass_threshold - 1)


@dataclass
class PredictorStats:
    """Prediction counts, from which :meth:`ReusePredictor.bypass_fraction`
    is computed.  Training keeps no counts: its effect is the counter table."""

    predictions: int = 0
    bypass_predictions: int = 0


class ReusePredictor:
    """PC-indexed table of saturating reuse counters."""

    def __init__(self, config: PredictorConfig | None = None) -> None:
        self.config = config or PredictorConfig()
        self._table = [self.config.start_value] * self.config.table_entries
        self.stats = PredictorStats()

    # ------------------------------------------------------------------
    def _index(self, pc: int) -> int:
        # fold the PC so nearby instruction addresses spread across the table
        mixed = (pc >> 2) ^ (pc >> 13) ^ (pc >> 23)
        return mixed & (self.config.table_entries - 1)

    def counter(self, pc: int) -> int:
        """Current counter value for ``pc`` (for tests and introspection)."""
        return self._table[self._index(pc)]

    # ------------------------------------------------------------------
    def should_bypass(self, pc: int) -> bool:
        """Predict whether an access from ``pc`` should bypass the cache."""
        self.stats.predictions += 1
        bypass = self._table[self._index(pc)] < self.config.bypass_threshold
        if bypass:
            self.stats.bypass_predictions += 1
        return bypass

    def train_reuse(self, pc: int) -> None:
        """A line inserted by ``pc`` was reused: strengthen the counter."""
        index = self._index(pc)
        self._table[index] = min(
            self.config.max_value, self._table[index] + self.config.reuse_increment
        )

    def train_eviction(self, pc: int, reused: bool) -> None:
        """A line inserted by ``pc`` was evicted; ``reused`` says if it was touched."""
        index = self._index(pc)
        if reused:
            self._table[index] = min(
                self.config.max_value, self._table[index] + self.config.reuse_increment
            )
        else:
            self._table[index] = max(
                0, self._table[index] - self.config.eviction_decrement
            )

    # ------------------------------------------------------------------
    def bypass_fraction(self) -> float:
        """Fraction of predictions that chose to bypass so far."""
        if self.stats.predictions == 0:
            return 0.0
        return self.stats.bypass_predictions / self.stats.predictions

    def table_snapshot(self) -> list[int]:
        """Copy of the counter table (for tests)."""
        return list(self._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReusePredictor(entries={self.config.table_entries}, "
            f"bypass_fraction={self.bypass_fraction():.2f})"
        )
