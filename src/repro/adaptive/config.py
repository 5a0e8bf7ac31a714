"""Configuration of the online adaptive policy subsystem.

An :class:`AdaptiveConfig` fully describes one dynamic-policy run: the
candidate policies the set-dueling monitor arbitrates between, the leader
set allocation, the decision cadence and hysteresis, and the phase-detector
thresholds.  It is a frozen dataclass of primitives (plus nested
:class:`~repro.core.policies.PolicySpec` values), so
:func:`repro.fingerprint.fingerprint` gives it a stable content hash and
adaptive runs key into the persistent result store exactly like static
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.policies import STATIC_POLICIES, PolicySpec
from repro.fingerprint import fingerprint

__all__ = ["AdaptiveConfig"]


def _default_candidates() -> tuple[PolicySpec, ...]:
    return STATIC_POLICIES


@dataclass(frozen=True)
class AdaptiveConfig:
    """One online adaptive-policy configuration.

    Attributes:
        candidates: the policies the set-dueling monitor arbitrates between.
            All candidates must share the same optimization flags
            (allocation bypass / cache rinsing / PC bypass): those
            optimizations attach stateful components to the caches at
            construction time, so they cannot be dueled per-set.  A single
            candidate *pins* the controller (used by the equivalence tests).
        initial_index: index into ``candidates`` of the policy the follower
            sets start under.  ``None`` (the default) starts under the
            second candidate when there is one -- with the default
            candidate order that is CacheR, the read-caching configuration
            GPUs ship with -- and under the only candidate when pinned.
        leader_sets_per_policy: L2 leader sets dedicated to each candidate
            (clamped so leaders never claim more than half of the cache).
        min_leader_accesses: accesses a candidate's leader sets must have
            seen in the current window before its score counts as evidence;
            decisions where any candidate is below this keep the incumbent.
        decay_period: decisions between halvings of the windowed duel
            accumulators.  Decaying every decision would starve the leader
            slices (each sees well under 1% of all requests); decaying
            every few decisions gives an exponential moving window several
            epochs wide.
        commit_decisions: consecutive fully-evidenced decisions confirming
            the incumbent after which the controller *commits*: leader
            overrides and duel scoring switch off and the whole cache obeys
            the winner, so the dueling overhead (bypassed leader slices,
            blocking leader allocations) is only paid during exploration
            windows.  A kernel boundary or a phase change re-opens
            exploration.  0 disables committing (duel forever).
        hysteresis: relative score margin a challenger must win by before
            the controller switches (0.1 = 10% lower cost per access).
        stall_halfline_cycles: blocked-allocation cycles at a leader set
            that cost as much as moving one half-line downstream; this is
            what lets the duel see the caching-hurts-throughput failure
            mode of the paper's section VI (stalls), not just traffic.
        switch_at_kernel_boundaries: evaluate the duel and (possibly) swap
            the follower policy at every kernel boundary.
        duel_epoch_decisions: additionally re-evaluate the duel every
            ``epoch_cycles`` while a kernel runs.  This is what makes the
            controller converge inside the many single-kernel MI workloads
            (classic set dueling consults its PSEL counter continuously);
            disable it to restrict swaps to kernel boundaries.
        mid_kernel_switching: additionally swap when the phase detector
            fires mid-kernel.
        epoch_cycles: phase-detector sampling period in GPU cycles, also
            the cadence of epoch duel decisions.
        phase_min_requests: memory requests a sampling window must contain
            before its metrics are trusted; thinner windows are merged into
            the next sample.
        phase_intensity_delta: relative arithmetic-intensity change that
            constitutes a phase change.
        phase_hit_rate_delta: absolute L2 hit-rate change that constitutes
            a phase change.
        phase_write_fraction_delta: absolute store-fraction change that
            constitutes a phase change.
        name: display name stamped on run reports ("Dynamic" in figures).
    """

    candidates: tuple[PolicySpec, ...] = field(default_factory=_default_candidates)
    initial_index: Optional[int] = None
    leader_sets_per_policy: int = 16
    min_leader_accesses: int = 32
    decay_period: int = 4
    commit_decisions: int = 2
    hysteresis: float = 0.05
    stall_halfline_cycles: int = 25
    switch_at_kernel_boundaries: bool = True
    duel_epoch_decisions: bool = True
    mid_kernel_switching: bool = False
    epoch_cycles: int = 1_000
    phase_min_requests: int = 256
    phase_intensity_delta: float = 0.5
    phase_hit_rate_delta: float = 0.15
    phase_write_fraction_delta: float = 0.15
    name: str = "Dynamic"

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("adaptive config needs at least one candidate policy")
        names = [policy.name for policy in self.candidates]
        if len(set(names)) != len(names):
            raise ValueError(f"candidate policy names must be unique, got {names}")
        if self.initial_index is not None and not (
            0 <= self.initial_index < len(self.candidates)
        ):
            raise ValueError(
                f"initial_index {self.initial_index} out of range for "
                f"{len(self.candidates)} candidates"
            )
        flags = {
            (p.allocation_bypass, p.cache_rinsing, p.pc_bypass) for p in self.candidates
        }
        if len(flags) != 1:
            raise ValueError(
                "all candidate policies must share the same optimization flags "
                "(allocation bypass / cache rinsing / PC bypass); these attach "
                "stateful cache components that cannot be dueled per-set"
            )
        if self.leader_sets_per_policy < 1:
            raise ValueError("leader_sets_per_policy must be at least 1")
        if self.min_leader_accesses < 1:
            raise ValueError("min_leader_accesses must be at least 1")
        if self.decay_period < 1:
            raise ValueError("decay_period must be at least 1")
        if self.commit_decisions < 0:
            raise ValueError("commit_decisions must be non-negative")
        if self.hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        if self.stall_halfline_cycles < 1:
            raise ValueError("stall_halfline_cycles must be positive")
        if self.epoch_cycles < 1:
            raise ValueError("epoch_cycles must be positive")
        if self.phase_min_requests < 1:
            raise ValueError("phase_min_requests must be at least 1")
        for threshold in (
            self.phase_intensity_delta,
            self.phase_hit_rate_delta,
            self.phase_write_fraction_delta,
        ):
            if threshold <= 0:
                raise ValueError("phase-change thresholds must be positive")

    # ------------------------------------------------------------------
    @property
    def pinned(self) -> bool:
        """True when there is nothing to duel (single candidate)."""
        return len(self.candidates) == 1

    @property
    def start_index(self) -> int:
        """Resolved index of the starting policy (see ``initial_index``)."""
        if self.initial_index is not None:
            return self.initial_index
        return min(1, len(self.candidates) - 1)

    @property
    def initial_policy(self) -> PolicySpec:
        """The policy the follower sets start under."""
        return self.candidates[self.start_index]

    def fingerprint(self) -> str:
        """Stable content hash over every adaptive parameter.

        Used by :meth:`repro.spec.JobSpec.fingerprint` so that
        two adaptive runs differing in any knob (candidates, leader sets,
        thresholds, ...) never share a result-store entry.
        """
        return fingerprint(self)
