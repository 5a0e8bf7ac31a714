"""Configuration of the online adaptive policy subsystem.

An :class:`AdaptiveConfig` fully describes one dynamic-policy run: the
candidate policies the set-dueling monitor arbitrates between, the leader
set allocation, the decision cadence, evidence floor and hysteresis, and
whether a phase change may swap mid-kernel.  The knobs no run varies are
module constants beside the code that reads them: the duel's decay period
(:data:`repro.adaptive.controller.DECAY_PERIOD`), its stall-to-traffic
rate (:data:`repro.adaptive.set_dueling.STALL_HALFLINE_CYCLES`), and the
phase-change thresholds and window floor shared with the fast-forward
sampler (:mod:`repro.adaptive.phase`).  The duel is evaluated at every
kernel boundary and every ``epoch_cycles``.

It is a frozen dataclass of primitives (plus nested
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

__all__ = ["AdaptiveConfig", "DYNAMIC"]

#: display name stamped on adaptive run reports and Figure 14's series
DYNAMIC = "Dynamic"


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
        commit_decisions: consecutive fully-evidenced decisions confirming
            the incumbent after which the controller *commits*: leader
            overrides and duel scoring switch off and the whole cache obeys
            the winner, so the dueling overhead (bypassed leader slices,
            blocking leader allocations) is only paid during exploration
            windows.  A kernel boundary or a phase change re-opens
            exploration.  0 disables committing (duel forever).
        hysteresis: relative score margin a challenger must win by before
            the controller switches (0.1 = 10% lower cost per access).
        mid_kernel_switching: additionally swap when the phase detector
            fires mid-kernel.
        epoch_cycles: phase-detector sampling period in GPU cycles, also
            the cadence of the epoch duel decisions that let the
            controller converge inside the many single-kernel MI
            workloads (classic set dueling consults its PSEL counter
            continuously).
    """

    candidates: tuple[PolicySpec, ...] = field(default_factory=_default_candidates)
    initial_index: Optional[int] = None
    leader_sets_per_policy: int = 16
    min_leader_accesses: int = 32
    commit_decisions: int = 2
    hysteresis: float = 0.05
    mid_kernel_switching: bool = False
    epoch_cycles: int = 1_000

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
        if self.commit_decisions < 0:
            raise ValueError("commit_decisions must be non-negative")
        if self.hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        if self.epoch_cycles < 1:
            raise ValueError("epoch_cycles must be positive")

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

        The ``adaptive`` command records it in its JSON artifact.  Store
        keys do not call it: :meth:`repro.spec.JobSpec.fingerprint` hashes
        the configuration's fields directly, so two adaptive runs
        differing in any knob (candidates, leader sets, thresholds, ...)
        still never share a result-store entry.
        """
        return fingerprint(self)
