"""Set dueling: leader sets score competing policies at runtime.

Classic set dueling (Qureshi et al., DIP) dedicates a few *leader sets* in
the cache to each competing policy and lets the rest of the cache -- the
*follower sets* -- obey whichever leader is currently winning.  Here the
competitors are whole :class:`~repro.core.policies.PolicySpec`s rather than
insertion policies: a request that maps to a leader set is annotated with
that leader's caching decision regardless of the active policy, so every
candidate keeps producing fresh evidence even after the controller has
converged.

The score combines the two costs the paper's static characterization shows
separate the policies: *downstream memory traffic* (what bypassing pays)
and *allocation stall cycles* (what caching pays on throughput-sensitive
workloads -- a pure traffic score cannot tell Uncached from CacheR on a
streaming kernel, because both move every line downstream exactly once).
The denominator is *demand* accesses, counted when the policy engine
annotates a request -- not L2-observed accesses, which would erase exactly
the benefit being measured (a caching leader whose slice hits in the L1
never shows up at the L2 at all).  Traffic is counted in half-line units:

========================  =====================================  =======
observed event            downstream cost                        units
========================  =====================================  =======
hit (L1 or L2, or any     none                                   0
coalesced access)
load miss                 one line fetched from memory           2
write-combining store     one deferred writeback, amortized      1
allocate                  (the line may coalesce further stores)
bypass (load or store)    one line moved past the cache          2
========================  =====================================  =======

Stall cycles observed at a leader set (a blocked allocation) are converted
into the same units at :data:`STALL_HALFLINE_CYCLES` cycles per half-line --
roughly the data-bus occupancy a line transfer costs -- so one score,
``(traffic + stalls) / demand accesses``, ranks both failure modes and a
lower score wins.  All accounting goes through pre-bound
:class:`~repro.stats.counters.Counter` handles resolved once in
``__init__`` -- the PR-2 hot-path idiom -- so monitored runs never hash
counter names per access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.policies import PolicySpec
from repro.stats import StatsCollector

__all__ = ["DuelScore", "SetDuelingMonitor"]

#: downstream cost of a load miss or a bypass, in half-line units
COST_FETCH = 2
#: amortized downstream cost of a write-combining store allocate
COST_STORE_ALLOCATE = 1
#: stall-to-traffic conversion: this many blocked cycles at a leader set
#: cost as much as moving one half-line downstream
STALL_HALFLINE_CYCLES = 25
#: extra half-lines a *remote* (cross-fabric) access costs on top of its
#: traffic: the request crosses the inter-device fabric once regardless of
#: whether the home slice then hits, so remote and local traffic score
#: separately.  Only multi-device hierarchies ever record this.
COST_REMOTE_HOP = 1


@dataclass(frozen=True)
class DuelScore:
    """Windowed score of one candidate's leader sets."""

    policy: str
    accesses: int
    traffic: int
    stall_halflines: int = 0
    remote_halflines: int = 0

    @property
    def cost_per_access(self) -> float:
        """Half-lines of traffic-plus-stall-plus-fabric cost per demand
        access (lower wins).  ``remote_halflines`` is zero outside
        multi-device topologies, where local and remote traffic are scored
        separately because a remote line costs a fabric crossing on top of
        whatever the home slice then does with it."""
        if not self.accesses:
            return 0.0
        return (self.traffic + self.stall_halflines + self.remote_halflines) / self.accesses


class SetDuelingMonitor:
    """Assigns L2 leader sets to candidate policies and scores them.

    Args:
        candidates: the competing policies, in duel order.
        num_sets: number of sets in the monitored cache.
        stats: shared counter store (``adaptive.duel.*`` namespace).
        leader_sets_per_policy: leader sets dedicated to each candidate.
        writeback: whether the monitored cache holds dirty lines (store
            hits and allocates are then free at observation time, their
            writeback cost amortized by :data:`COST_STORE_ALLOCATE`).
    """

    def __init__(
        self,
        candidates: Sequence[PolicySpec],
        num_sets: int,
        stats: StatsCollector,
        leader_sets_per_policy: int,
        writeback: bool,
    ) -> None:
        if not candidates:
            raise ValueError("set dueling needs at least one candidate policy")
        if leader_sets_per_policy < 1:
            raise ValueError("leader_sets_per_policy must be at least 1")
        self.candidates = tuple(candidates)
        self.num_sets = num_sets
        self.writeback = writeback
        #: cost recording is active only during exploration windows; the
        #: controller disables it while committed, when "leader" sets obey
        #: the active policy and their traffic is not candidate evidence
        self.enabled = True
        if num_sets < 2 * len(self.candidates):
            raise ValueError(
                f"a {num_sets}-set cache cannot duel {len(self.candidates)} "
                "policies: follower sets must outnumber leader sets"
            )
        # leaders may never claim more than half the cache (small test
        # configurations clamp rather than fail)
        per_policy = max(1, min(leader_sets_per_policy, num_sets // (2 * len(self.candidates))))
        self.leader_sets_per_policy = per_policy
        num_leaders = len(self.candidates) * per_policy
        # leaders are grouped into constituencies of C *adjacent* sets, one
        # per candidate, spread across the index space.  Adjacency matters:
        # tensors sit on aligned boundaries, so hot lines (e.g. broadcast
        # per-channel parameters) cluster in a few consecutive sets -- a
        # strided assignment can hand all of them to one candidate, which
        # then wins the duel on address luck rather than policy merit.  The
        # candidate order also rotates per constituency so no candidate
        # always samples the first (hottest, tensor-base) set of a cluster.
        num_candidates = len(self.candidates)
        constituency_stride = num_sets // per_policy
        self._leader_of: dict[int, int] = {}
        for slot in range(per_policy):
            base = slot * constituency_stride
            for offset in range(num_candidates):
                self._leader_of[base + offset] = (offset + slot) % num_candidates

        # windowed accumulators plus cumulative report counters, all
        # resolved once (counter-handle idiom)
        self._accesses = [0] * len(self.candidates)
        self._traffic = [0] * len(self.candidates)
        self._stall_cycles = [0] * len(self.candidates)
        self._remote = [0] * len(self.candidates)
        counter = stats.counter
        self._c_accesses = [
            counter(f"adaptive.duel.{policy.name}.leader_accesses")
            for policy in self.candidates
        ]
        self._c_traffic = [
            counter(f"adaptive.duel.{policy.name}.leader_traffic")
            for policy in self.candidates
        ]
        self._c_stalls = [
            counter(f"adaptive.duel.{policy.name}.leader_stall_cycles")
            for policy in self.candidates
        ]
        self._c_remote = [
            counter(f"adaptive.duel.{policy.name}.leader_remote_traffic")
            for policy in self.candidates
        ]

    # ------------------------------------------------------------------
    # leader topology
    # ------------------------------------------------------------------
    def leader_index(self, set_index: int) -> Optional[int]:
        """Candidate index whose leader set this is, or ``None`` (follower)."""
        return self._leader_of.get(set_index)

    def leader_policies(self) -> dict[int, PolicySpec]:
        """Mapping of leader set index to the policy that set obeys."""
        return {
            set_index: self.candidates[candidate]
            for set_index, candidate in self._leader_of.items()
        }

    # ------------------------------------------------------------------
    # hot-path recording
    # ------------------------------------------------------------------
    def record_demand(self, candidate: int) -> None:
        """One GPU demand access annotated for leader ``candidate``.

        Called by the dynamic policy engine (which already resolved the
        leader during annotation), *before* any cache filtering: this is
        the score denominator, so a caching leader whose slice is absorbed
        by the L1 is rewarded rather than invisible.
        """
        self._accesses[candidate] += 1
        self._c_accesses[candidate].add()

    def record_miss(self, set_index: int, is_store: bool) -> None:
        if not self.enabled:
            return
        candidate = self._leader_of.get(set_index)
        if candidate is None:
            return
        cost = COST_STORE_ALLOCATE if (is_store and self.writeback) else COST_FETCH
        self._traffic[candidate] += cost
        self._c_traffic[candidate].add(cost)

    def record_bypass(self, set_index: int, is_store: bool) -> None:
        if not self.enabled:
            return
        candidate = self._leader_of.get(set_index)
        if candidate is None:
            return
        self._traffic[candidate] += COST_FETCH
        self._c_traffic[candidate].add(COST_FETCH)

    def record_remote(self, set_index: int) -> None:
        """One cross-fabric access arrived at a leader set's home slice.

        Called by the multi-device hierarchy when it routes a request to a
        remote L2 slice, keyed by the *local* set index the slice will
        use.  Remote traffic accumulates separately from the ordinary
        miss/bypass traffic so the duel can see that a caching candidate
        which keeps remote lines resident saves fabric crossings, not just
        DRAM accesses.  Never called in single-device systems.
        """
        if not self.enabled:
            return
        candidate = self._leader_of.get(set_index)
        if candidate is None:
            return
        self._remote[candidate] += COST_REMOTE_HOP
        self._c_remote[candidate].add(COST_REMOTE_HOP)

    def record_stall(self, set_index: int, cycles: int) -> None:
        """Charge a blocked allocation's wait to the set's leader (if any)."""
        if not self.enabled:
            return
        candidate = self._leader_of.get(set_index)
        if candidate is None or cycles <= 0:
            return
        self._stall_cycles[candidate] += cycles
        self._c_stalls[candidate].add(cycles)

    # ------------------------------------------------------------------
    # decision-time interface (called by the controller)
    # ------------------------------------------------------------------
    def scores(self) -> list[DuelScore]:
        """Current windowed score of every candidate, in duel order."""
        return [
            DuelScore(
                policy=policy.name,
                accesses=accesses,
                traffic=traffic,
                stall_halflines=stalls // STALL_HALFLINE_CYCLES,
                remote_halflines=remote,
            )
            for policy, accesses, traffic, stalls, remote in zip(
                self.candidates,
                self._accesses,
                self._traffic,
                self._stall_cycles,
                self._remote,
            )
        ]

    def decay(self) -> None:
        """Halve the windowed accumulators (exponential moving window).

        Called periodically by the controller so old evidence fades while
        short kernels still accumulate enough leader traffic to reach a
        verdict -- a hard reset would starve many-kernel workloads whose
        kernels individually touch only a few leader sets.
        """
        self._accesses = [value >> 1 for value in self._accesses]
        self._traffic = [value >> 1 for value in self._traffic]
        self._stall_cycles = [value >> 1 for value in self._stall_cycles]
        self._remote = [value >> 1 for value in self._remote]

    def reset(self) -> None:
        """Clear the windowed accumulators (start of an exploration window).

        Costs observed while the controller was committed (leader sets then
        obey the active policy, so their traffic is not evidence about
        their own candidate) must not leak into the next duel.
        """
        self._accesses = [0] * len(self.candidates)
        self._traffic = [0] * len(self.candidates)
        self._stall_cycles = [0] * len(self.candidates)
        self._remote = [0] * len(self.candidates)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ",".join(policy.name for policy in self.candidates)
        return f"SetDuelingMonitor([{names}], leaders={len(self._leader_of)})"
