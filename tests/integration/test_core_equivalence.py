"""Golden-stats equivalence for the hot-path simulation core.

The PR-2 performance overhaul (pre-bound counter handles, tuple-heap event
queue, indexed cache tag lookup) is required to be *bit-identical*: same
counters, same cycles, same figures.  The fixture
``golden_core_equivalence.json`` was generated by the pre-optimization
core on five scenarios chosen to exercise every hot path:

* ``cacherw_lru`` -- MSHR exhaustion, allocation stalls, write-combining
  stores (DGEMM under CacheRW, LRU replacement).
* ``cacherw_random`` -- the same traffic under random replacement.
* ``cacher_writethrough_lru`` -- write-through stores and multi-kernel
  self-invalidation (FwLSTM under CacheR).
* ``optimized_predictor_dbi`` -- reuse predictor + dirty-block index
  attached (FwLSTM under CacheRW-PCby).
* ``tiny_l2_rinse`` -- dirty evictions, DBI row rinsing and allocation
  bypass forced by a 16 KB / 8-MSHR L2 (DGEMM under CacheRW-CR).

Every scenario must reproduce its golden ``RunReport.to_dict()``
counter-for-counter.  If a future PR changes simulator *behaviour* on
purpose, regenerate the fixture and say so in the commit; this test
exists so such changes can never happen silently.

The pinned-dynamic class replays the same scenarios through the adaptive
subsystem locked to a single candidate: a
:class:`~repro.adaptive.controller.DynamicPolicyController` with one
candidate must reproduce the static run bit-identically (same cycles, same
non-``adaptive.*`` counters), which proves the monitoring/decision
machinery is timing-neutral.

The pinned-topology class replays the same scenarios through the
multi-device topology subsystem with ``num_devices == 1`` (and
deliberately non-default fabric parameters, which a one-device system must
never consult): the partitioner, interleave and hierarchy wiring must
reduce to exactly the plain single-device system -- same cycles, same
counters, no ``topo.*`` accounting at all.

The pinned-stream class replays the same scenarios through the
multi-tenant serving subsystem as a one-stream mix: the stream scheduler,
address-space isolation (identity at offset 0), stream-scoped kernel
boundaries (every line is stream 0's) and per-stream accounting must
reduce to exactly the plain run -- same cycles, and every counter
identical apart from the additive ``stream0.*`` namespace.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.accel import SamplingConfig, ShardConfig
from repro.adaptive import AdaptiveConfig
from repro.config import SystemConfig, scaled_config
from repro.core.policies import CACHE_R, CACHE_RW, CACHE_RW_CR, CACHE_RW_PCBY, policy_by_name
from repro.memory.replacement import make_replacement
from repro.session import SimulationSession, simulate
from repro.streams import StreamConfig
from repro.topology import TopologyConfig
from repro.workloads.registry import get_workload

GOLDEN_PATH = Path(__file__).parent / "golden_core_equivalence.json"


def _tiny_l2_config() -> SystemConfig:
    """A 2-CU system with a 16 KB / 8-MSHR L2 to force evictions and rinses."""
    config = scaled_config(2)
    return replace(config, l2=replace(config.l2, size_bytes=16 * 1024, mshrs=8))


#: scenario name -> (workload, scale, policy name, replacement kind, config factory)
SCENARIOS = {
    # MSHR exhaustion, allocation stalls, write-combining store paths
    "cacherw_lru": ("DGEMM", 0.3, CACHE_RW.name, "lru", lambda: scaled_config(2)),
    # same traffic under random replacement
    "cacherw_random": ("DGEMM", 0.3, CACHE_RW.name, "random", lambda: scaled_config(2)),
    # write-through stores, multi-kernel self-invalidation
    "cacher_writethrough_lru": ("FwLSTM", 0.05, CACHE_R.name, "lru", lambda: scaled_config(2)),
    # reuse predictor + DBI attached (PC bypassing, sampler sets)
    "optimized_predictor_dbi": (
        "FwLSTM", 0.05, CACHE_RW_PCBY.name, "lru", lambda: scaled_config(2),
    ),
    # dirty evictions + DBI row rinsing + allocation bypass under a tiny L2
    "tiny_l2_rinse": ("DGEMM", 0.3, CACHE_RW_CR.name, "lru", _tiny_l2_config),
}


#: a one-device topology with loud, non-default fabric parameters: none of
#: them may ever matter without a second device to talk to
PINNED_TOPOLOGY = TopologyConfig(
    num_devices=1,
    interleave_lines=4,
    remote_latency_cycles=997,
    fabric_requests_per_cycle=0.125,
    replicate_weights=True,
)

#: a sampling config whose warmup no scenario's kernel repeats can outlast:
#: the sampler measures every launch and never fast-forwards one
UNSKIPPED_SAMPLING = SamplingConfig(warmup_instances=10**6, measure_instances=1)


def run_scenario(
    name: str,
    pinned_dynamic: bool = False,
    pinned_topology: bool = False,
    pinned_stream: bool = False,
    unskipped_sampling: bool = False,
) -> dict[str, object]:
    """Run one scenario and return its full ``RunReport.to_dict()``.

    With ``pinned_dynamic`` the scenario runs through the adaptive
    subsystem pinned to the scenario's policy (single candidate): the
    set-dueling monitor, phase detector and controller are all attached
    and ticking, but there is nothing to switch to.  With
    ``pinned_topology`` it runs through the topology subsystem with a
    one-device :data:`PINNED_TOPOLOGY`.  With ``pinned_stream`` it runs
    through the serving subsystem as a one-stream mix: the stream
    scheduler, scoped kernel boundaries and per-stream accounting are all
    active, with nobody to interfere with.  With ``unskipped_sampling`` the
    fast-forward sampler gates every launch under
    :data:`UNSKIPPED_SAMPLING`, so it measures but never skips.
    """
    workload_name, scale, policy_name, replacement, config_factory = SCENARIOS[name]
    policy = policy_by_name(policy_name)
    topology = PINNED_TOPOLOGY if pinned_topology else None
    streams = (
        (StreamConfig(workload=workload_name, scale=scale),) if pinned_stream else None
    )
    sampling = UNSKIPPED_SAMPLING if unskipped_sampling else None
    if pinned_dynamic:
        session = SimulationSession(
            adaptive=AdaptiveConfig(candidates=(policy,)),
            config=config_factory(),
            topology=topology,
            streams=streams,
            sampling=sampling,
        )
    else:
        session = SimulationSession(
            policy=policy,
            config=config_factory(),
            topology=topology,
            streams=streams,
            sampling=sampling,
        )
    if replacement != "lru":
        for cache in [session.hierarchy.l2, *session.hierarchy.l1s]:
            cache.replacement = make_replacement(
                replacement, cache.config.num_sets, cache.config.assoc
            )
    if pinned_stream:
        report = session.run()
    else:
        report = session.run(get_workload(workload_name, scale=scale))
    return report.to_dict()


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, object]]:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


class TestCoreEquivalence:
    def test_fixture_covers_every_scenario(self, golden):
        assert set(golden) == set(SCENARIOS)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_counters_bit_identical_to_golden(self, golden, name):
        report = run_scenario(name)
        expected = golden[name]
        assert report["cycles"] == expected["cycles"]
        got_counters = report["counters"]
        want_counters = expected["counters"]
        # compare with a readable diff before the blanket equality
        assert set(got_counters) == set(want_counters), (
            f"counter name set drifted: only-new="
            f"{sorted(set(got_counters) - set(want_counters))} "
            f"only-golden={sorted(set(want_counters) - set(got_counters))}"
        )
        diffs = {
            key: (got_counters[key], want_counters[key])
            for key in want_counters
            if got_counters[key] != want_counters[key]
        }
        assert not diffs, f"counter values drifted (got, want): {diffs}"
        assert report == expected

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_pinned_dynamic_controller_is_timing_neutral(self, golden, name):
        """A one-candidate dynamic controller reproduces the static run.

        The adaptive machinery (monitor hooks in the cache, the phase
        detector's periodic events, the kernel-boundary hook) must be
        *observers*: pinned to a single policy they may add ``adaptive.*``
        counters but must not move a single cycle or perturb any simulated
        counter.
        """
        report = run_scenario(name, pinned_dynamic=True)
        expected = golden[name]
        assert report["cycles"] == expected["cycles"]
        assert report["policy"] == "Dynamic"
        simulated_counters = {
            key: value
            for key, value in report["counters"].items()
            if not key.startswith("adaptive.")
        }
        diffs = {
            key: (simulated_counters.get(key), expected["counters"].get(key))
            for key in set(simulated_counters) | set(expected["counters"])
            if simulated_counters.get(key) != expected["counters"].get(key)
        }
        assert not diffs, f"pinned dynamic run drifted from static (got, want): {diffs}"

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_pinned_topology_is_bit_identical(self, golden, name):
        """A one-device ``TopologyConfig`` run reproduces the plain run.

        The topology subsystem's wiring must reduce exactly: identity
        partitioner, identity interleave, no fabric links, no re-
        addressing, no ``topo.*`` counters -- the report is counter-for-
        counter identical to the golden fixture, including the counter
        name set.
        """
        report = run_scenario(name, pinned_topology=True)
        expected = golden[name]
        assert report["cycles"] == expected["cycles"]
        got_counters = report["counters"]
        assert not any(key.startswith("topo.") for key in got_counters), (
            "a one-device topology must not produce NUMA accounting"
        )
        assert set(got_counters) == set(expected["counters"]), (
            f"counter name set drifted: only-new="
            f"{sorted(set(got_counters) - set(expected['counters']))} "
            f"only-golden={sorted(set(expected['counters']) - set(got_counters))}"
        )
        diffs = {
            key: (got_counters[key], expected["counters"][key])
            for key in expected["counters"]
            if got_counters[key] != expected["counters"][key]
        }
        assert not diffs, f"pinned topology run drifted (got, want): {diffs}"
        assert report == expected

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_pinned_topology_under_pinned_dynamic_is_timing_neutral(self, golden, name):
        """Topology and adaptive pins compose: still the golden timing."""
        report = run_scenario(name, pinned_dynamic=True, pinned_topology=True)
        expected = golden[name]
        assert report["cycles"] == expected["cycles"]
        simulated_counters = {
            key: value
            for key, value in report["counters"].items()
            if not key.startswith("adaptive.")
        }
        assert simulated_counters == expected["counters"]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_pinned_single_stream_is_bit_identical(self, golden, name):
        """A one-stream serving run reproduces the plain run.

        The stream scheduler's shared dispatch with one stream, the
        identity address-space rebase, the stream-scoped kernel boundary
        over lines that all carry stream 0, and the per-stream accounting
        must reduce exactly: same cycles, and every counter identical to
        the golden fixture apart from the additive ``stream0.*``
        namespace.
        """
        report = run_scenario(name, pinned_stream=True)
        expected = golden[name]
        assert report["cycles"] == expected["cycles"]
        stream_counters = {
            key for key in report["counters"] if key.startswith("stream")
        }
        assert stream_counters == {
            "stream0.mem_requests",
            "stream0.kernels_total",
            "stream0.kernels_launched",
            "stream0.kernels_completed",
            "stream0.launch_cycle",
            "stream0.finish_cycle",
            "stream0.cycles",
        }
        simulated_counters = {
            key: value
            for key, value in report["counters"].items()
            if key not in stream_counters
        }
        assert set(simulated_counters) == set(expected["counters"]), (
            f"counter name set drifted: only-new="
            f"{sorted(set(simulated_counters) - set(expected['counters']))} "
            f"only-golden={sorted(set(expected['counters']) - set(simulated_counters))}"
        )
        diffs = {
            key: (simulated_counters[key], expected["counters"][key])
            for key in expected["counters"]
            if simulated_counters[key] != expected["counters"][key]
        }
        assert not diffs, f"pinned single-stream run drifted (got, want): {diffs}"
        # the per-stream view is self-consistent with the global run
        assert report["counters"]["stream0.mem_requests"] == expected["counters"][
            "gpu.mem_requests"
        ]
        assert report["counters"]["stream0.finish_cycle"] == expected["cycles"]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_pinned_stream_composes_with_pinned_topology(self, golden, name):
        """Stream and topology pins compose: still the golden timing."""
        report = run_scenario(name, pinned_stream=True, pinned_topology=True)
        expected = golden[name]
        assert report["cycles"] == expected["cycles"]
        simulated_counters = {
            key: value
            for key, value in report["counters"].items()
            if not key.startswith("stream")
        }
        assert not any(key.startswith("topo.") for key in simulated_counters)
        assert simulated_counters == expected["counters"]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_pinned_stream_composes_with_pinned_dynamic(self, golden, name):
        """Stream and adaptive pins compose: still the golden timing."""
        report = run_scenario(name, pinned_stream=True, pinned_dynamic=True)
        expected = golden[name]
        assert report["cycles"] == expected["cycles"]
        simulated_counters = {
            key: value
            for key, value in report["counters"].items()
            if not (key.startswith("stream") or key.startswith("adaptive."))
        }
        assert simulated_counters == expected["counters"]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_pin_composes(self, golden, name):
        """Stream, topology and adaptive pins all at once: golden timing."""
        report = run_scenario(
            name, pinned_stream=True, pinned_topology=True, pinned_dynamic=True
        )
        expected = golden[name]
        assert report["cycles"] == expected["cycles"]
        simulated_counters = {
            key: value
            for key, value in report["counters"].items()
            if not (key.startswith("stream") or key.startswith("adaptive."))
        }
        assert not any(key.startswith("topo.") for key in simulated_counters)
        assert simulated_counters == expected["counters"]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_back_to_back_runs_are_bit_identical(self, golden, name):
        """A second run in the same process reproduces the first.

        Workload traces are cached per process; a run that mutated the
        cached trace or any module-level state would drift here.
        """
        first = run_scenario(name)
        second = run_scenario(name)
        assert first == second == golden[name]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_unskipped_sampling_is_bit_identical(self, golden, name):
        """A sampled run that skips nothing is the exact run.

        The sampler only reads counters between launches, so until it
        fast-forwards a kernel it must be a pure observer: every counter
        and the cycle count match the golden fixture, and the report only
        gains its ``sampling`` summary (no ``error_estimates``, because
        nothing was extrapolated).
        """
        report = run_scenario(name, unskipped_sampling=True)
        summary = report.pop("sampling")
        assert summary["skipped_kernels"] == 0 and summary["executed_kernels"] > 0
        assert "error_estimates" not in report
        assert report == golden[name]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_unskipped_sampling_composes_with_pinned_topology(self, golden, name):
        """Unskipped sampling + one-device topology: bit-identical."""
        report = run_scenario(name, unskipped_sampling=True, pinned_topology=True)
        assert report.pop("sampling")["skipped_kernels"] == 0
        assert "error_estimates" not in report
        assert report == golden[name]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_unskipped_sampling_composes_with_pinned_stream(self, golden, name):
        """Unskipped sampling + one-stream serving: golden timing."""
        report = run_scenario(name, unskipped_sampling=True, pinned_stream=True)
        expected = golden[name]
        assert report["sampling"]["skipped_kernels"] == 0
        assert report["cycles"] == expected["cycles"]
        simulated_counters = {
            key: value
            for key, value in report["counters"].items()
            if not key.startswith("stream")
        }
        assert simulated_counters == expected["counters"]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_unskipped_sampling_composes_with_every_pin(self, golden, name):
        """Unskipped sampling + stream and topology pins: golden timing.

        The adaptive pin is left out: sampling refuses to compose with
        adaptive control, whose controller must see every kernel boundary.
        """
        report = run_scenario(
            name, unskipped_sampling=True, pinned_stream=True, pinned_topology=True
        )
        expected = golden[name]
        assert report["sampling"]["skipped_kernels"] == 0
        assert "error_estimates" not in report
        assert report["cycles"] == expected["cycles"]
        simulated_counters = {
            key: value
            for key, value in report["counters"].items()
            if not key.startswith("stream")
        }
        assert simulated_counters == expected["counters"]

    @pytest.mark.parametrize(
        "name",
        sorted(n for n, spec in SCENARIOS.items() if spec[3] == "lru"),
    )
    def test_one_shard_config_is_bit_identical(self, golden, name):
        """``ShardConfig(num_shards=1)`` through ``simulate()`` is exact.

        One shard is the empty shard config: ``simulate`` must not
        dispatch to the multi-process coordinator at all, and the report
        must match the golden fixture byte-for-byte (the random-
        replacement scenario is excluded because ``simulate`` has no
        replacement-override hook -- sharding composes with the default
        replacement only in this pin).
        """
        workload_name, scale, policy_name, _, config_factory = SCENARIOS[name]
        report = simulate(
            get_workload(workload_name, scale=scale),
            policy_by_name(policy_name),
            config=config_factory(),
            shards=ShardConfig(num_shards=1),
        ).to_dict()
        assert "sampling" not in report and "error_estimates" not in report
        assert report == golden[name]

    def test_golden_scenarios_exercise_the_hot_paths(self, golden):
        """The fixture is only meaningful if the paths under test fire."""
        combined: dict[str, int] = {}
        for report in golden.values():
            for key, value in report["counters"].items():
                combined[key] = combined.get(key, 0) + value
        for key in (
            "l1.hits",
            "l2.hits",
            "l1.misses",
            "l2.misses",
            "l2.store_allocates",
            "l2.store_hits",
            "l1.blocked_mshr_full",
            "l1.stall_cycles_alloc",
            "l2.eviction_writebacks",
            "l2.rinse_writebacks",
            "l2.allocation_bypasses",
            "l2.predictor_bypasses",
            "l1.clean_evictions",
            "l1.self_invalidations",
            "l2.flush_writebacks",
            "l1.mshr_coalesced",
            "dram.row_hits",
            "dram.row_conflicts",
        ):
            assert combined.get(key, 0) > 0, f"golden scenarios never exercise {key}"
