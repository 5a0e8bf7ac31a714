"""Differential test of victim selection against the cache's old way scan.

Before replacement policies tracked way states, the cache found a victim
itself: the first invalid way, else the policy's pick among the ways not
pending a fill (``select_victim(set, candidates)``), else block.  The
reference below keeps that scan and the old policies, which were told only
about fills and hits.  Random sequences of fills, hits, misses and
invalidations over 16-way sets must give the same victim from
:meth:`ReplacementPolicy.victim` at every step.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Optional, Sequence

import pytest

from repro.memory.replacement import LruReplacement, RandomReplacement

ASSOC = 16
NUM_SETS = 3
STEPS = 600

_INVALID, _VALID, _PENDING = "invalid", "valid", "pending"


class _OldLru:
    """The stamp-per-way LRU policy as the old scan called it."""

    def __init__(self) -> None:
        self.stamps = [[-1] * ASSOC for _ in range(NUM_SETS)]

    def on_fill(self, set_index: int, way: int, cycle: int) -> None:
        self.stamps[set_index][way] = cycle

    on_access = on_fill

    def select_victim(self, set_index: int, candidates: Sequence[int]) -> int:
        return min(candidates, key=self.stamps[set_index].__getitem__)


class _OldRandom:
    """The xorshift policy as the old scan called it."""

    def __init__(self, seed: int) -> None:
        self.state = seed or 1

    def on_fill(self, set_index: int, way: int, cycle: int) -> None:
        return None

    on_access = on_fill

    def select_victim(self, set_index: int, candidates: Sequence[int]) -> int:
        x = self.state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self.state = x & 0xFFFFFFFF
        return candidates[self.state % len(candidates)]


def _old_scan(states: list[str], set_index: int, policy) -> Optional[int]:
    """The deleted ``Cache._find_victim``."""
    for way, state in enumerate(states):
        if state is _INVALID:
            return way
    candidates = [way for way, state in enumerate(states) if state is not _PENDING]
    if not candidates:
        return None
    return policy.select_victim(set_index, candidates)


def _drive(policy, reference, seed: int) -> Counter:
    """Run one random sequence; counts the steps by how the scan decided."""
    rng = random.Random(seed)
    states = [[_INVALID] * ASSOC for _ in range(NUM_SETS)]
    cycle = 0
    cases: Counter = Counter()
    for step in range(STEPS):
        # repeated cycles exercise the lowest-way tie break
        cycle += rng.choice((0, 0, 1, 3))
        set_index = rng.randrange(NUM_SETS)
        ways = states[set_index]
        expected = _old_scan(ways, set_index, reference)
        assert policy.victim(set_index) == expected, (seed, step)
        if _INVALID in ways:
            cases["invalid way"] += 1
        else:
            cases["blocked" if expected is None else "policy pick"] += 1
        op = rng.choice(("miss", "miss", "store", "fill", "fill", "hit", "invalidate"))
        if op in ("miss", "store"):
            if expected is None:
                continue
            if op == "miss":  # load miss: the victim waits for its fill
                ways[expected] = _PENDING
                policy.on_pending(set_index, expected)
            else:  # write-combining store: allocates and fills at once
                ways[expected] = _VALID
                policy.on_fill(set_index, expected, cycle)
                reference.on_fill(set_index, expected, cycle)
            continue
        wanted = _PENDING if op == "fill" else _VALID
        picks = [way for way, state in enumerate(ways) if state is wanted]
        if not picks:
            continue
        way = rng.choice(picks)
        if op == "fill":
            ways[way] = _VALID
            policy.on_fill(set_index, way, cycle)
            reference.on_fill(set_index, way, cycle)
        elif op == "hit":
            policy.on_access(set_index, way, cycle)
            reference.on_access(set_index, way, cycle)
        else:
            ways[way] = _INVALID
            policy.on_invalidate(set_index, way)
    return cases


@pytest.mark.parametrize("seed", range(12))
def test_lru_victim_matches_old_scan(seed):
    _drive(LruReplacement(NUM_SETS, ASSOC), _OldLru(), seed)


@pytest.mark.parametrize("seed", range(12))
def test_random_victim_matches_same_seed_old_scan(seed):
    policy_seed = 0x9E3779B9 + seed
    _drive(RandomReplacement(NUM_SETS, ASSOC, seed=policy_seed), _OldRandom(policy_seed), seed)


def test_sequences_cover_every_case():
    # the sequences must reach full and all-pending sets, not only sets
    # that still have an invalid way
    cases: Counter = Counter()
    for seed in range(12):
        cases += _drive(LruReplacement(NUM_SETS, ASSOC), _OldLru(), seed)
    assert set(cases) == {"invalid way", "policy pick", "blocked"}
