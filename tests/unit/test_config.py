"""Tests for the system configuration (paper Table 1)."""

from __future__ import annotations

import dataclasses

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

#: one changed value per GpuConfig field; each moves the small run below
GPU_FIELD_CHANGES = {
    "clock_ghz": 3.2,
    "num_cus": 1,
    "simd_per_cu": 2,
    "wavefront_size": 32,
    "max_waves_per_simd": 1,
    "issue_width": 2,
    "max_outstanding_mem_per_wave": 2,
    "kernel_launch_cycles": 600,
}


def run_fwact(config: SystemConfig) -> dict[str, object]:
    session = SimulationSession(policy="CacheRW", config=config)
    return session.run(get_workload("FwAct", scale=0.1)).to_dict()


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


class TestGpuFieldsAreRead:
    """Every GpuConfig field reaches the simulated result.

    A field no model reads still splits store keys and changes no result.
    """

    def test_every_field_has_a_changed_value(self):
        assert set(GPU_FIELD_CHANGES) == {field.name for field in dataclasses.fields(GpuConfig)}

    @pytest.mark.parametrize("name", sorted(GPU_FIELD_CHANGES))
    def test_changing_the_field_changes_the_report(self, name):
        base = scaled_config(2)
        changed = dataclasses.replace(
            base, gpu=dataclasses.replace(base.gpu, **{name: GPU_FIELD_CHANGES[name]})
        )
        assert getattr(changed.gpu, name) != getattr(base.gpu, name)
        assert run_fwact(changed) != run_fwact(base)


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
