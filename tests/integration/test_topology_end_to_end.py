"""End-to-end tests of the multi-device NUMA topology subsystem.

Covers the acceptance criteria of the topology PR beyond the golden
equivalence check (which lives in ``test_core_equivalence.py``):

* multi-device runs complete, produce remote/local traffic accounting and
  per-fabric-link counters, and respond to the fabric parameters;
* the scaling sweep runs through the runner's :class:`SweepExecutor` with
  fingerprinted topologies, and a warm repeat performs zero simulations;
* the adaptive subsystem composes with a topology (slices share the
  set-dueling monitor, remote traffic feeds the duel);
* the ``topology``, ``cache`` and ``list --json`` CLI surfaces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro import cli
from repro.config import scaled_config
from repro.adaptive import AdaptiveConfig
from repro.core.policies import CACHE_R, CACHE_RW, CACHE_RW_CR, STATIC_POLICIES, UNCACHED
from repro.experiments import ExperimentRunner, SCALING_COLUMNS, figure_scaling, summarize
from repro.experiments.jobs import JobSpec, SweepExecutor
from repro.experiments.store import ResultStore
from repro.session import SimulationSession, simulate
from repro.topology import TopologyConfig, topology_by_name
from repro.topology.partition import partition_trace
from repro.workloads.registry import get_workload

TINY = scaled_config(2)
DUAL = TopologyConfig(num_devices=2)
QUAD = TopologyConfig(num_devices=4)


def _run(policy, topology, workload="SGEMM", scale=0.1, **kwargs):
    return simulate(
        get_workload(workload, scale=scale),
        policy,
        config=TINY,
        topology=topology,
        **kwargs,
    )


class TestMultiDeviceRuns:
    def test_two_device_run_completes_with_numa_counters(self):
        report = _run(CACHE_RW, DUAL)
        assert report.cycles > 0
        assert report.local_requests > 0 and report.remote_requests > 0
        assert 0.0 < report.remote_fraction < 1.0
        # both directed fabric links carried traffic
        assert report.get("link.fabric.d0d1.transfers") > 0
        assert report.get("link.fabric.d1d0.transfers") > 0

    def test_single_device_reports_carry_no_topo_counters(self):
        report = _run(CACHE_RW, None)
        assert not any(key.startswith("topo.") for key in report.counters)
        assert report.remote_fraction == 0.0

    def test_four_devices_raise_remote_fraction(self):
        two = _run(UNCACHED, DUAL)
        four = _run(UNCACHED, QUAD)
        assert four.remote_fraction > two.remote_fraction

    def test_remote_latency_costs_cycles(self):
        fast = _run(UNCACHED, TopologyConfig(num_devices=2, remote_latency_cycles=10))
        slow = _run(UNCACHED, TopologyConfig(num_devices=2, remote_latency_cycles=400))
        assert slow.cycles > fast.cycles

    def test_weak_scaling_splits_the_work(self):
        """2 devices = 2x the CUs/L2/DRAM on a split workload: faster."""
        one = _run(CACHE_RW, None, workload="DGEMM", scale=0.3)
        two = _run(CACHE_RW, DUAL, workload="DGEMM", scale=0.3)
        assert two.cycles < one.cycles

    def test_replicated_weights_cut_remote_traffic(self):
        plain = _run(CACHE_RW, DUAL, workload="DGEMM", scale=0.3)
        replicated = _run(
            CACHE_RW,
            TopologyConfig(num_devices=2, replicate_weights=True),
            workload="DGEMM",
            scale=0.3,
        )
        assert replicated.remote_fraction < plain.remote_fraction

    def test_registered_topology_runs(self):
        report = _run(CACHE_R, topology_by_name("dual-gpu"))
        assert report.remote_requests > 0

    def test_session_exposes_per_device_components(self):
        session = SimulationSession(policy=CACHE_RW, config=TINY, topology=QUAD)
        assert len(session.hierarchy.l2s) == 4
        assert len(session.hierarchy.drams) == 4
        assert len(session.hierarchy.l1s) == 4 * TINY.gpu.num_cus
        assert len(session.gpu.cus) == 4 * TINY.gpu.num_cus
        description = session.hierarchy.describe()
        assert description["num_devices"] == 4
        assert description["cus_per_device"] == TINY.gpu.num_cus

    @pytest.mark.parametrize("devices", [1, 2])
    @pytest.mark.parametrize("policy", [CACHE_RW, CACHE_RW_CR])
    def test_each_l2_owns_its_dirty_block_index(self, policy, devices):
        topology = None if devices == 1 else TopologyConfig(num_devices=devices)
        session = SimulationSession(policy=policy, config=TINY, topology=topology)
        hierarchy = session.hierarchy
        assert len(hierarchy.l2s) == devices
        for l2, dram in zip(hierarchy.l2s, hierarchy.drams):
            if policy.cache_rinsing:
                # keyed by the slice's own DRAM rows, so rows never alias
                # across devices
                assert l2.dbi is not None and l2.dbi.row_of == dram.row_id
            else:
                assert l2.dbi is None

    def test_a_device_tagged_trace_is_rejected_on_one_device(self):
        trace = partition_trace(
            get_workload("SGEMM", scale=0.1).build_trace(),
            topology_by_name("dual-chiplet"),
        )
        session = SimulationSession(policy=CACHE_RW, config=TINY)
        with pytest.raises(ValueError, match="wavefront tagged for device 1"):
            session.run(trace)

    def test_multi_device_rinsing_is_pinned(self):
        """Per-slice cache rinsing on two devices: counts and report digest.

        A 16 KB L2 slice forces dirty evictions, so every rinse goes
        through a slice's own dirty-block index keyed by its own DRAM rows.
        """
        config = replace(TINY, l2=replace(TINY.l2, size_bytes=16 * 1024))
        report = simulate(
            get_workload("FwAct", scale=0.2),
            CACHE_RW_CR,
            config=config,
            topology=topology_by_name("dual-chiplet"),
        )
        assert report.cycles == 9306
        assert report.get("l2.rinse_writebacks") == 1307
        assert report.get("l2.eviction_writebacks") == 419
        encoded = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(encoded.encode("utf-8")).hexdigest() == (
            "12e71aac62df5ae3b3c4596276760b6c10e9b1c7af8de24aca32ed439f608c03"
        )


class TestAdaptiveOnTopology:
    def test_dynamic_policy_runs_on_two_devices(self):
        report = _run(None, DUAL, workload="FwLSTM", scale=0.05,
                      adaptive=AdaptiveConfig())
        assert report.policy == "Dynamic"
        assert report.remote_requests > 0
        assert report.get("adaptive.decisions") > 0
        # the duel saw remote traffic arriving at leader sets
        remote_evidence = sum(
            value
            for key, value in report.counters.items()
            if key.startswith("adaptive.duel.") and key.endswith(".leader_remote_traffic")
        )
        assert remote_evidence > 0


    def test_duel_attribution_keys_on_slice_local_sets(self):
        """Demand accounting must charge the leader the slice hooks charge.

        The L2 slices observe re-addressed local partition addresses, so
        the engine's annotate-time leader lookup must use the slice-local
        set index; keying it on the global address would attribute duel
        demand to a different candidate than the one whose leader set the
        home slice's miss/bypass/stall hooks charge.
        """
        from repro.adaptive.controller import DynamicPolicyEngine
        from repro.memory.address_mapping import DeviceInterleave
        from repro.memory.request import AccessType, MemoryRequest
        from repro.stats import StatsCollector

        l2 = TINY.l2
        interleave = DeviceInterleave(2, l2.line_bytes, chunk_lines=32)

        def to_set(address: int) -> int:
            return (interleave.to_local(address) // l2.line_bytes) % l2.num_sets

        engine = DynamicPolicyEngine(
            AdaptiveConfig(), l2_config=l2, stats=StatsCollector(),
            address_to_set=to_set,
        )
        monitor = engine.monitor
        checked = 0
        for line in range(8 * l2.num_sets):
            address = line * l2.line_bytes
            local_set = to_set(address)
            global_set = (address // l2.line_bytes) % l2.num_sets
            candidate = monitor.leader_index(local_set)
            if candidate is None or monitor.leader_index(global_set) == candidate:
                continue  # only addresses where the two keyings disagree
            before = monitor.scores()[candidate].accesses
            engine.annotate(MemoryRequest(access=AccessType.LOAD, address=address))
            assert monitor.scores()[candidate].accesses == before + 1
            checked += 1
        assert checked > 0, "no address distinguished local from global keying"


class TestScalingSweep:
    def test_figure_scaling_through_executor_and_warm_repeat(self, tmp_path):
        """The acceptance sweep: cold simulates every cell, warm loads all."""
        workloads = ("FwSoft", "SGEMM", "FwLSTM", "MHA")
        devices = (1, 2, 4)

        def build_runner():
            return ExperimentRunner(
                scale=0.05,
                config=TINY,
                workload_names=workloads,
                cache_dir=str(tmp_path),
            )

        cold = build_runner()
        figure = figure_scaling(
            cold, devices=devices, policies=STATIC_POLICIES, workload_names=workloads
        )
        cells = len(workloads) * len(STATIC_POLICIES) * len(devices)
        assert cold.runs_simulated == cells and cold.runs_loaded == 0

        warm = build_runner()
        repeat = figure_scaling(
            warm, devices=devices, policies=STATIC_POLICIES, workload_names=workloads
        )
        assert warm.runs_simulated == 0, "warm scaling repeat re-simulated cells"
        assert warm.runs_loaded == cells
        assert repeat == figure

        for workload, series in figure.items():
            for policy in STATIC_POLICIES:
                assert series[f"{policy.name}@1dev"]["speedup"] == pytest.approx(1.0)
                assert series[f"{policy.name}@1dev"]["remote_fraction"] == 0.0
                for count in (2, 4):
                    assert series[f"{policy.name}@{count}dev"]["remote_fraction"] > 0.0
        summary = summarize(figure, SCALING_COLUMNS)
        assert set(summary) == {
            f"{policy.name}@{count}dev"
            for policy in STATIC_POLICIES
            for count in devices
        }

    def test_topology_jobs_fingerprint_separately(self):
        job = lambda topology: JobSpec(
            workload="SGEMM", policy=CACHE_RW, scale=0.1, config=TINY, topology=topology
        )
        plain = job(None).fingerprint()
        single = job(TopologyConfig(num_devices=1)).fingerprint()
        dual = job(DUAL).fingerprint()
        assert len({plain, single, dual}) == 3

    def test_topology_job_summary_names_the_topology(self):
        spec = JobSpec(
            workload="SGEMM", policy=CACHE_RW, config=TINY,
            topology=topology_by_name("dual-chiplet"),
        )
        summary = spec.summary()
        assert summary["topology"] == "dual-chiplet"
        assert summary["num_devices"] == 2


class TestStoreLifecycle:
    def _populated(self, tmp_path) -> ResultStore:
        store = ResultStore(tmp_path)
        executor = SweepExecutor(store=store)
        executor.run(
            [JobSpec(workload="FwSoft", policy=UNCACHED, scale=0.05, config=TINY)]
        )
        return store

    def test_stats_reports_occupancy(self, tmp_path):
        store = self._populated(tmp_path)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["oldest_age_days"] is not None
        assert stats["stale_tmp"] == 0

    def test_prune_removes_only_old_entries(self, tmp_path):
        import os
        import time

        store = self._populated(tmp_path)
        (key,) = store.keys()
        fresh_path = store._path(key)
        stale_path = tmp_path / ("0" * 64 + ".json")
        stale_path.write_text(fresh_path.read_text())
        old = time.time() - 10 * 86400
        os.utime(stale_path, (old, old))
        assert store.prune(max_age_days=5) == 1
        assert not stale_path.exists() and fresh_path.exists()
        assert store.prune(max_age_days=0) == 1  # everything left is younger than now
        with pytest.raises(ValueError):
            store.prune(max_age_days=-1)

    def test_prune_sweeps_stale_tmp_litter(self, tmp_path):
        import os
        import time

        store = ResultStore(tmp_path)
        litter = tmp_path / ".tmp-crashed.json"
        litter.write_text("{")
        old = time.time() - 3 * 86400
        os.utime(litter, (old, old))
        stats = store.stats()
        assert stats["stale_tmp"] == 1
        # pathlib's "*.json" glob matches the dotted orphan too: it must
        # not leak into entries, keys() or len()
        assert stats["entries"] == 0
        assert list(store.keys()) == []
        assert len(store) == 0
        assert store.prune(max_age_days=1) == 1
        assert store.stats()["stale_tmp"] == 0


class TestCli:
    def test_topology_command_prints_and_records(self, capsys, tmp_path):
        out_file = tmp_path / "scaling.json"
        code = cli.main([
            "--scale", "0.05", "--cus", "2", "topology",
            "--devices", "1", "2",
            "--workloads", "FwSoft",
            "--policies", "Uncached", "CacheR",
            "--cache-dir", str(tmp_path / "store"),
            "--json-out", str(out_file),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Device scaling" in output and "remote traffic fraction" in output
        blob = json.loads(out_file.read_text())
        assert blob["schema"] == 1
        assert blob["figure_scaling"]["FwSoft"]["CacheR@2dev"]["remote_fraction"] > 0
        assert set(blob["fingerprints"]) == {"1", "2"}
        assert blob["fabric"]["num_devices"] == 1  # the sweep template

    def test_topology_command_requires_the_baseline(self, capsys):
        code = cli.main(["topology", "--devices", "2", "4", "--no-cache"])
        assert code == 2
        assert "1-device baseline" in capsys.readouterr().err

    def test_run_command_accepts_registered_topology(self, capsys):
        code = cli.main([
            "--scale", "0.05", "--cus", "2", "run", "--workload", "FwSoft",
            "--policy", "CacheR", "--topology", "dual-chiplet", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["remote_fraction"] > 0

    def test_list_json_enumerates_all_registries(self, capsys):
        assert cli.main(["list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {w["name"] for w in data["workloads"]} >= {"DGEMM", "MHA"}
        assert any(p["name"] == "CacheRW-PCby" for p in data["policies"])
        assert data["adaptive"]["default_candidates"] == [
            "Uncached", "CacheR", "CacheRW",
        ]
        assert data["topologies"]["quad-gpu"]["num_devices"] == 4

    def test_list_human_output_names_topologies(self, capsys):
        assert cli.main(["list"]) == 0
        output = capsys.readouterr().out
        assert "Topologies:" in output and "dual-chiplet" in output

    def test_cache_stats_clear_prune(self, capsys, tmp_path):
        store = ResultStore(tmp_path)
        executor = SweepExecutor(store=store)
        executor.run(
            [JobSpec(workload="FwSoft", policy=UNCACHED, scale=0.05, config=TINY)]
        )
        assert cli.main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1

        assert cli.main([
            "cache", "prune", "--cache-dir", str(tmp_path),
            "--max-age-days", "30", "--json",
        ]) == 0
        pruned = json.loads(capsys.readouterr().out)
        assert pruned["removed"] == 0  # nothing is a month old

        assert cli.main(["cache", "clear", "--cache-dir", str(tmp_path), "--json"]) == 0
        cleared = json.loads(capsys.readouterr().out)
        assert cleared["removed"] == 1
        assert len(store) == 0

    def test_cache_prune_requires_max_age(self, capsys, tmp_path):
        code = cli.main(["cache", "prune", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "--max-age-days" in capsys.readouterr().err

    def test_cache_prune_rejects_negative_age(self, capsys, tmp_path):
        code = cli.main([
            "cache", "prune", "--cache-dir", str(tmp_path), "--max-age-days", "-1",
        ])
        assert code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_cache_commands_do_not_create_missing_stores(self, capsys, tmp_path):
        missing = tmp_path / "typo" / "store"
        code = cli.main(["cache", "stats", "--cache-dir", str(missing)])
        assert code == 2
        assert "no result store" in capsys.readouterr().err
        assert not missing.exists(), "a read-only command created the store"
