"""Dynamic policy selection: the engine and the controller.

Two classes close the adaptive loop:

* :class:`DynamicPolicyEngine` extends the static
  :class:`~repro.core.policy_engine.PolicyEngine` with per-set policy
  resolution: requests mapping to a *leader* set are always annotated with
  that leader's candidate policy (so the duel keeps collecting evidence for
  every candidate), while requests mapping to *follower* sets obey the
  currently active policy, which the controller may swap at runtime.
* :class:`DynamicPolicyController` consumes the set-dueling scores and the
  phase-detector events and performs the actual swaps: at every kernel
  boundary (where the coherence protocol flushes dirty data anyway, making
  a policy change free of correctness concerns), every ``epoch_cycles``
  while a kernel runs, and, optionally, when a phase change fires.

A controller whose configuration has a single candidate is *pinned*: it
never swaps, and the annotated flags are identical to the static engine's
for every request.  The integration suite exploits this to prove that the
adaptive machinery is timing-neutral (see
``tests/integration/test_core_equivalence.py``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.adaptive.config import AdaptiveConfig
from repro.adaptive.phase import PhaseDetector, PhaseSample
from repro.adaptive.set_dueling import SetDuelingMonitor
from repro.config import CacheConfig
from repro.core.policies import PolicySpec
from repro.core.policy_engine import PolicyEngine
from repro.core.reuse_predictor import PredictorConfig
from repro.engine import Simulator
from repro.stats import StatsCollector

__all__ = ["DynamicPolicyEngine", "DynamicPolicyController"]

#: decisions between halvings of the windowed duel accumulators.  Decaying
#: every decision would starve the leader slices (each sees well under 1%
#: of all requests); decaying every few decisions gives an exponential
#: moving window several epochs wide.
DECAY_PERIOD = 4


class DynamicPolicyEngine(PolicyEngine):
    """A policy engine whose per-request decision is set-aware and mutable.

    Args:
        adaptive: the adaptive configuration (candidates, leader geometry).
        l2_config: geometry of the monitored L2 (leader sets are L2 sets).
        stats: shared counter store for the embedded dueling monitor.
        predictor_config: optional reuse-predictor override, forwarded to
            :class:`PolicyEngine`.
        address_to_set: optional override of the address -> monitored-set
            mapping.  Multi-device sessions pass the *slice-local* set
            index here (the L2 slices operate on re-addressed local
            partition addresses), so the leader a request is annotated
            for at demand time is the same leader whose set the home
            slice's miss/bypass/stall/remote hooks will charge --
            otherwise duel numerators and denominators would be keyed in
            different index spaces.  ``None`` (every single-device run)
            keeps the plain global formula.
    """

    def __init__(
        self,
        adaptive: AdaptiveConfig,
        l2_config: CacheConfig,
        stats: StatsCollector,
        predictor_config: Optional[PredictorConfig] = None,
        address_to_set: Optional[Callable[[int], int]] = None,
    ) -> None:
        super().__init__(
            adaptive.initial_policy,
            predictor_config=predictor_config,
        )
        self.adaptive = adaptive
        self.monitor = SetDuelingMonitor(
            adaptive.candidates,
            num_sets=l2_config.num_sets,
            stats=stats,
            leader_sets_per_policy=adaptive.leader_sets_per_policy,
            writeback=l2_config.writeback,
        )
        self._leader_specs: dict[int, PolicySpec] = self.monitor.leader_policies()
        self._leader_index: dict[int, int] = {
            set_index: self.monitor.leader_index(set_index)
            for set_index in self._leader_specs
        }
        self._line_bytes = l2_config.line_bytes
        self._num_sets = l2_config.num_sets
        self._address_to_set = address_to_set
        self._active_index = adaptive.start_index
        self._active_spec = adaptive.initial_policy
        # pinned configurations have nothing to learn, so they never pay
        # the leader-set overrides; the controller re-opens exploration
        # when there is an actual duel to run
        self._exploring = not adaptive.pinned

    # ------------------------------------------------------------------
    @property
    def active_index(self) -> int:
        """Index (into the candidates) of the follower sets' policy."""
        return self._active_index

    @property
    def active_policy(self) -> PolicySpec:
        """The policy the follower sets currently obey."""
        return self._active_spec

    def set_active(self, index: int) -> None:
        """Swap the follower sets to candidate ``index`` (controller use)."""
        self._active_index = index
        self._active_spec = self.adaptive.candidates[index]
        # keep the base-class attribute in sync for describe()/reporting
        self.policy = self._active_spec

    @property
    def exploring(self) -> bool:
        """Whether leader sets currently override the active policy."""
        return self._exploring

    def set_exploring(self, exploring: bool) -> None:
        """Toggle the leader-set overrides (controller use).

        While committed (not exploring) every set obeys the active policy
        and annotation takes the same path as the static engine -- the
        dueling overhead (bypassed leader slices, blocking leader
        allocations) drops to zero between exploration windows.
        """
        self._exploring = exploring

    # ------------------------------------------------------------------
    def annotate(self, request):  # type: ignore[override]
        """Stamp ``request`` with the flags of its set's governing policy.

        Leader sets always obey their own candidate; follower sets obey the
        active policy.  The leader lookup keys on the request's *L2* set
        index; the L1 flag follows the same per-request policy, which is
        what a hardware implementation broadcasting the duel verdict to the
        L1s would do.
        """
        if self._exploring:
            if self._address_to_set is None:
                set_index = (request.address // self._line_bytes) % self._num_sets
            else:
                set_index = self._address_to_set(request.address)
            candidate = self._leader_index.get(set_index)
        else:
            candidate = None
        if candidate is None:
            spec = self._active_spec
        else:
            spec = self._leader_specs[set_index]
            self.monitor.record_demand(candidate)
        return self.stamp(request, spec)

    def describe(self) -> dict[str, object]:
        """Static summary plus the adaptive state."""
        summary = super().describe()
        summary["adaptive"] = True
        summary["candidates"] = [policy.name for policy in self.adaptive.candidates]
        summary["active_policy"] = self._active_spec.name
        return summary


class DynamicPolicyController:
    """Arbitrates the duel and swaps the active policy at safe points.

    Args:
        engine: the dynamic policy engine whose active policy is managed.
        phase_detector: source of mid-kernel phase-change events.
        sim: shared simulator (decision timestamps, detector lifecycle).
        stats: shared counter store (``adaptive.*`` namespace).

    The controller records every decision and swap both as counters (so
    they land in run reports) and in :attr:`history` (cycle, policy name)
    for tests and the CLI.
    """

    def __init__(
        self,
        engine: DynamicPolicyEngine,
        phase_detector: PhaseDetector,
        sim: Simulator,
        stats: StatsCollector,
    ) -> None:
        self.engine = engine
        self.monitor = engine.monitor
        self.phase_detector = phase_detector
        self.sim = sim
        self.config = engine.adaptive
        counter = stats.counter
        self._c_decisions = counter("adaptive.decisions")
        self._c_switches = counter("adaptive.switches")
        self._c_commits = counter("adaptive.commits")
        self._c_explorations = counter("adaptive.explorations")
        self._c_kernels_under = [
            counter(f"adaptive.kernels_under.{policy.name}")
            for policy in self.config.candidates
        ]
        self.history: list[tuple[int, str]] = [(0, engine.active_policy.name)]
        self._decisions_since_decay = 0
        self._stable_decisions = 0
        #: optional telemetry TraceRecorder (one None-test per swap /
        #: explore / commit -- controller decisions, never cache events)
        self.trace = None
        if self.config.pinned:
            # nothing to learn: no leader overrides (engine construction)
            # and no cost recording either
            self.monitor.enabled = False
        else:
            # a phase change always re-opens a committed duel; whether it
            # may additionally swap mid-decision is gated in the handler
            phase_detector.add_listener(self._on_phase_change)

    # ------------------------------------------------------------------
    def start(self, is_active: Callable[[], bool]) -> None:
        """Begin phase sampling (and epoch decisions) for the workload.

        The epoch-decision loop re-arms itself only while ``is_active``
        holds, so it cannot keep the event queue from draining.
        """
        self.phase_detector.start(is_active)
        if not self.config.pinned:

            def tick() -> None:
                if not is_active():
                    return
                self._decide()
                self.sim.schedule(self.config.epoch_cycles, tick)

            self.sim.schedule(self.config.epoch_cycles, tick)

    def on_kernel_boundary(self) -> None:
        """Kernel completed: account it and re-open the duel.

        Invoked by the memory hierarchy at the start of its kernel-boundary
        synchronization.  The next kernel may behave nothing like the last
        one, so a committed controller returns to exploration here; an
        exploring controller gets a decision point, so a swap decided here
        governs the next kernel's requests while the flush of the previous
        kernel's dirty data is still charged to the policy that created it.
        """
        self._c_kernels_under[self.engine.active_index].add()
        if self.config.pinned:
            return
        if not self.engine.exploring:
            self._explore()
        else:
            self._decide()

    def _on_phase_change(self, sample: PhaseSample) -> None:
        """A phase change re-opens a committed duel; mid-kernel swaps opt in.

        Re-opening is unconditional -- a committed controller would
        otherwise ride a stale winner through the new phase until the next
        kernel boundary, which single-kernel workloads never reach.  An
        *immediate* re-decision on an already-open duel is the optional
        ``mid_kernel_switching`` behaviour.
        """
        if self.config.pinned:
            return
        if not self.engine.exploring:
            self._explore()
        elif self.config.mid_kernel_switching:
            self._decide()

    # ------------------------------------------------------------------
    def _explore(self) -> None:
        """Re-open an exploration window (stale evidence is discarded)."""
        self.monitor.reset()
        self.monitor.enabled = True
        self.engine.set_exploring(True)
        self._stable_decisions = 0
        self._decisions_since_decay = 0
        self._c_explorations.add()
        if self.trace is not None:
            self.trace.adaptive_event("explore")

    def _commit(self) -> None:
        """Close the duel: the whole cache obeys the winner, overhead-free."""
        self.engine.set_exploring(False)
        self.monitor.enabled = False
        self._stable_decisions = 0
        self._c_commits.add()
        if self.trace is not None:
            self.trace.adaptive_event("commit")

    def _decide(self) -> None:
        """One duel evaluation: swap if a challenger clearly wins."""
        if self.config.pinned or not self.engine.exploring:
            return
        self._c_decisions.add()
        scores = self.monitor.scores()
        if all(s.accesses >= self.config.min_leader_accesses for s in scores):
            per_access = [s.cost_per_access for s in scores]
            active = self.engine.active_index
            best = min(range(len(per_access)), key=per_access.__getitem__)
            # the challenger must beat the incumbent by the hysteresis
            # margin; an incumbent with zero cost is unbeatable
            if best != active and per_access[best] < per_access[active] * (
                1.0 - self.config.hysteresis
            ):
                self._swap(best)
            else:
                self._stable_decisions += 1
                if (
                    self.config.commit_decisions
                    and self._stable_decisions >= self.config.commit_decisions
                ):
                    self._commit()
                    return
        self._decisions_since_decay += 1
        if self._decisions_since_decay >= DECAY_PERIOD:
            self._decisions_since_decay = 0
            self.monitor.decay()

    def _swap(self, index: int) -> None:
        self.engine.set_active(index)
        self._c_switches.add()
        self._stable_decisions = 0
        self.history.append((self.sim.now, self.engine.active_policy.name))
        if self.trace is not None:
            self.trace.policy_switch(self.engine.active_policy.name)

    # ------------------------------------------------------------------
    @property
    def switches(self) -> int:
        """Number of policy swaps performed so far."""
        return len(self.history) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicPolicyController(active={self.engine.active_policy.name}, "
            f"switches={self.switches})"
        )
