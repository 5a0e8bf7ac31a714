"""Tests for the system configuration (paper Table 1)."""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.config import (
    CacheConfig,
    DramConfig,
    GpuConfig,
    SystemConfig,
    default_config,
    paper_config,
    scaled_config,
)
from repro.session import SimulationSession
from repro.workloads.registry import get_workload

#: the config sections a run reads
SECTIONS = ("gpu", "l1", "l2", "dram", "interconnect")

#: one changed value per config field; each moves a small CacheRW run
#: (FwAct at scale 0.1 on 2 CUs unless FIELD_RUNS names another)
FIELD_CHANGES = {
    "gpu.clock_ghz": 3.2,
    "gpu.num_cus": 1,
    "gpu.simd_per_cu": 2,
    "gpu.wavefront_size": 32,
    "gpu.max_waves_per_simd": 1,
    "gpu.issue_width": 2,
    "gpu.max_outstanding_mem_per_wave": 2,
    "gpu.kernel_launch_cycles": 600,
    "l1.size_bytes": 4096,
    "l1.line_bytes": 128,
    "l1.assoc": 4,
    "l1.hit_latency": 20,
    "l1.mshrs": 4,
    "l1.ports": 4,
    "l2.size_bytes": 32 * 1024,
    "l2.line_bytes": 128,
    "l2.assoc": 4,
    "l2.hit_latency": 20,
    "l2.mshrs": 16,
    "l2.ports": 8,
    "l2.writeback": False,
    "dram.channels": 1,
    "dram.banks_per_channel": 4,
    "dram.row_bytes": 512,
    "dram.row_hit_cycles": 20,
    "dram.row_miss_cycles": 200,
    "dram.row_conflict_cycles": 300,
    "dram.burst_cycles": 8,
    "dram.queue_depth": 2,
    "interconnect.l1_to_l2_cycles": 5,
    "interconnect.l2_to_dir_cycles": 5,
    "interconnect.dir_to_dram_cycles": 40,
    "interconnect.l2_banks": 1,
}

#: field -> (workload, CUs, scale) of the run its change moves
FIELD_RUNS = {
    # FwAct streams, so L1 associativity changes nothing there
    "l1.assoc": ("SGEMM", 2, 0.1),
    # MemoryHierarchy raises l2.ports to interconnect.l2_banks, so only a
    # value above the bank count counts, and it shows once enough CUs
    # contend for the L2's tag lookups
    "l2.ports": ("FwAct", 4, 0.2),
}

#: fields no run reads, each with the reason
UNREAD_FIELDS = {
    "l1.writeback": "PolicyEngine.stamp sends every store around the L1",
}


@functools.lru_cache(maxsize=None)
def run(config: SystemConfig, workload: str, scale: float) -> dict[str, object]:
    session = SimulationSession(policy="CacheRW", config=config)
    return session.run(get_workload(workload, scale=scale)).to_dict()


class TestGpuConfig:
    def test_paper_defaults_match_table1(self):
        gpu = GpuConfig()
        assert gpu.clock_ghz == pytest.approx(1.6)
        assert gpu.num_cus == 64
        assert gpu.simd_per_cu == 4
        assert gpu.max_waves_per_simd == 10
        assert gpu.wavefront_size == 64

    def test_max_waves_per_cu(self):
        gpu = GpuConfig(simd_per_cu=4, max_waves_per_simd=10)
        assert gpu.max_waves_per_cu == 40


class TestConfigFieldsAreRead:
    """Every GPU and memory config field reaches the simulated result.

    A field no model reads still splits store keys and changes no result.
    ``l1.writeback`` is the one such field; it stays a named exemption,
    with its reason, until the model reads it or drops it.
    """

    def test_every_field_has_a_changed_value_or_an_exemption(self):
        base = SystemConfig()
        fields = {
            f"{section}.{field.name}"
            for section in SECTIONS
            for field in dataclasses.fields(getattr(base, section))
        }
        assert set(FIELD_CHANGES) | set(UNREAD_FIELDS) == fields
        assert not set(FIELD_CHANGES) & set(UNREAD_FIELDS)
        assert set(UNREAD_FIELDS) == {"l1.writeback"}

    @pytest.mark.parametrize("name", sorted(FIELD_CHANGES))
    def test_changing_the_field_changes_the_report(self, name):
        workload, cus, scale = FIELD_RUNS.get(name, ("FwAct", 2, 0.1))
        section, field = name.split(".")
        base = scaled_config(cus)
        part = dataclasses.replace(getattr(base, section), **{field: FIELD_CHANGES[name]})
        changed = dataclasses.replace(base, **{section: part})
        assert getattr(part, field) != getattr(getattr(base, section), field)
        assert run(changed, workload, scale) != run(base, workload, scale)


class TestCacheConfig:
    def test_paper_l1_geometry(self):
        l1 = CacheConfig(size_bytes=16 * 1024, line_bytes=64, assoc=16)
        assert l1.num_lines == 256
        assert l1.num_sets == 16

    def test_set_index_wraps_over_sets(self):
        cfg = CacheConfig(size_bytes=16 * 1024, line_bytes=64, assoc=16)
        assert cfg.set_index(0) == 0
        assert cfg.set_index(64) == 1
        assert cfg.set_index(64 * cfg.num_sets) == 0

    def test_line_address_alignment(self):
        cfg = CacheConfig(size_bytes=1024)
        assert cfg.line_address(0) == 0
        assert cfg.line_address(63) == 0
        assert cfg.line_address(64) == 64
        assert cfg.line_address(130) == 128

    def test_single_set_cache(self):
        cfg = CacheConfig(size_bytes=1024, line_bytes=64, assoc=16)
        assert cfg.num_sets == 1
        assert cfg.set_index(12345) == 0


class TestDramConfig:
    def test_latency_ordering(self):
        dram = DramConfig()
        assert dram.row_hit_cycles < dram.row_miss_cycles < dram.row_conflict_cycles


class TestSystemConfig:
    def test_default_is_scaled_8_cu(self):
        cfg = default_config()
        assert cfg.gpu.num_cus == 8
        assert cfg.l2.size_bytes == 512 * 1024

    def test_paper_config_matches_table1(self):
        cfg = paper_config()
        assert cfg.gpu.num_cus == 64
        assert cfg.l1.size_bytes == 16 * 1024
        assert cfg.l2.size_bytes == 4 * 1024 * 1024
        assert cfg.dram.channels == 16

    def test_describe_contains_table1_rows(self):
        rows = paper_config().describe()
        assert rows["# of CUs"] == "64"
        assert "16 KB" in rows["GPU L1 D-cache per CU"]
        assert "MHz" in rows["GPU Clock"]

    def test_scaled_config_preserves_per_cu_l1(self):
        small = scaled_config(4)
        assert small.l1.size_bytes == paper_config().l1.size_bytes

    def test_scaled_config_scales_l2_and_channels(self):
        small = scaled_config(8)
        assert small.l2.size_bytes == 512 * 1024
        assert small.dram.channels == 2
        assert small.gpu.num_cus == 8

    def test_scaled_config_keeps_l2_mshrs(self):
        # the MSHR pool is deliberately not scaled down (see config.py)
        assert scaled_config(8).l2.mshrs == paper_config().l2.mshrs

    def test_scaled_config_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaled_config(0)

    def test_configs_are_frozen(self):
        cfg = default_config()
        with pytest.raises(Exception):
            cfg.gpu.num_cus = 3  # type: ignore[misc]
