"""System configuration for the simulated APU (paper Table 1).

The paper simulates a coherent CPU-GPU system (an APU) with a 64-CU GPU,
per-CU write-through L1 data caches, a shared 4 MB L2, and HBM2 main memory.
This module defines the configuration dataclasses used throughout the
simulator and provides two ready-made configurations:

* :func:`paper_config` -- the parameters of Table 1 (64 CUs, 4 MB L2, 16
  channels of HBM2).  Faithful to the paper but slow to simulate in Python.
* :func:`default_config` -- a proportionally scaled-down system (8 CUs,
  512 KB L2, 4 DRAM channels) used by the test suite, the examples and the
  benchmark harness.  Scaling preserves per-CU cache capacity and the
  bandwidth-per-CU ratio, so policy-relative results keep the same shape.

All latencies are expressed in GPU core cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.fingerprint import fingerprint

__all__ = [
    "CacheConfig",
    "DramConfig",
    "GpuConfig",
    "InterconnectConfig",
    "SystemConfig",
    "default_config",
    "paper_config",
    "scaled_config",
]


@dataclass(frozen=True)
class GpuConfig:
    """Compute-side parameters of the simulated GPU.

    Attributes:
        clock_ghz: GPU core clock in GHz (paper: 1.6 GHz).
        num_cus: number of compute units.
        simd_per_cu: SIMD units per CU (paper: 4).
        wavefront_size: work items per wavefront (paper: 64).
        max_waves_per_simd: maximum resident wavefronts per SIMD unit
            (paper: 10).  Together with ``simd_per_cu`` this bounds the
            latency-hiding capability of a CU.
        issue_width: instructions a CU may issue per cycle across its SIMDs.
        max_outstanding_mem_per_wave: memory instructions a single wavefront
            may have in flight before it must stall waiting for responses.
        kernel_launch_cycles: fixed host-side cost of launching one kernel;
            visible mainly in the many-kernel RNN and Composed Model
            workloads.
    """

    clock_ghz: float = 1.6
    num_cus: int = 64
    simd_per_cu: int = 4
    wavefront_size: int = 64
    max_waves_per_simd: int = 10
    issue_width: int = 1
    max_outstanding_mem_per_wave: int = 4
    kernel_launch_cycles: int = 300

    @property
    def max_waves_per_cu(self) -> int:
        """Maximum wavefronts resident on one CU."""
        return self.simd_per_cu * self.max_waves_per_simd


@dataclass(frozen=True)
class CacheConfig:
    """Parameters of one cache level (GPU L1 or GPU L2).

    Attributes:
        size_bytes: total data capacity.
        line_bytes: cache line size (paper: 64 B).
        assoc: associativity (paper: 16-way for both levels).
        hit_latency: access latency for a hit, in GPU cycles.
        mshrs: number of miss-status holding registers.  Misses beyond this
            limit stall at the cache input (counted as cache stalls).
        ports: tag lookups accepted per cycle.
        writeback: whether dirty data may live in the cache (GPU L2 under the
            CacheRW policy); write-through caches never hold dirty lines.
    """

    size_bytes: int
    line_bytes: int = 64
    assoc: int = 16
    hit_latency: int = 50
    mshrs: int = 32
    ports: int = 1
    writeback: bool = False

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.assoc)

    def set_index(self, address: int) -> int:
        """Map a byte address to its set index."""
        return (address // self.line_bytes) % self.num_sets

    def line_address(self, address: int) -> int:
        """Align a byte address down to its cache-line address."""
        return address - (address % self.line_bytes)


@dataclass(frozen=True)
class DramConfig:
    """HBM-style main memory parameters.

    The model is an open-page, per-bank row buffer DRAM with a shared data
    bus per channel.  Timings are expressed in GPU cycles so they can be
    compared directly with cache latencies.

    Attributes:
        channels: independent channels (paper: 16).
        banks_per_channel: banks per channel (paper: 16).
        row_bytes: row-buffer (page) size per bank.
        row_hit_cycles: access latency when the target row is open.
        row_miss_cycles: latency when the bank row buffer is empty
            (activate + column access).
        row_conflict_cycles: latency when a different row is open
            (precharge + activate + column access).
        burst_cycles: data-bus occupancy per 64 B transfer; this bounds the
            per-channel bandwidth.
        queue_depth: per-bank request queue capacity.
    """

    channels: int = 16
    banks_per_channel: int = 16
    row_bytes: int = 2048
    row_hit_cycles: int = 50
    row_miss_cycles: int = 100
    row_conflict_cycles: int = 150
    burst_cycles: int = 4
    queue_depth: int = 16


@dataclass(frozen=True)
class InterconnectConfig:
    """Fixed-latency, finite-bandwidth links between hierarchy levels.

    Attributes:
        l1_to_l2_cycles: one-way latency between an L1 and the shared L2.
        l2_to_dir_cycles: latency from the GPU L2 to the host directory.
        dir_to_dram_cycles: latency from the directory to the DRAM
            controllers.
        l2_banks: number of address-interleaved L2 banks; each bank accepts
            one tag lookup per cycle.
    """

    l1_to_l2_cycles: int = 25
    l2_to_dir_cycles: int = 25
    dir_to_dram_cycles: int = 10
    l2_banks: int = 16


@dataclass(frozen=True)
class SystemConfig:
    """Full simulated-system configuration (paper Table 1).

    The default values reproduce the scaled configuration described in
    DESIGN.md.  Use :func:`paper_config` for the unscaled Table 1 values.
    """

    gpu: GpuConfig = field(default_factory=GpuConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=16 * 1024, hit_latency=50, mshrs=32)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=4 * 1024 * 1024, hit_latency=50, mshrs=128, writeback=True
        )
    )
    dram: DramConfig = field(default_factory=DramConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)

    def fingerprint(self) -> str:
        """Stable content hash of every simulated-system parameter.

        Two configurations with identical parameters produce the same
        fingerprint in any process; changing any field (even a nested one,
        e.g. an L2 MSHR count) changes it.  Store keys do not call it:
        :meth:`repro.spec.JobSpec.fingerprint` hashes the configuration's
        fields directly, with the same effect.
        """
        return fingerprint(self)

    def describe(self) -> dict[str, str]:
        """Render the configuration as the rows of the paper's Table 1."""
        gpu, l1, l2, dram = self.gpu, self.l1, self.l2, self.dram
        uncontested_l2 = l1.hit_latency + self.interconnect.l1_to_l2_cycles + l2.hit_latency - l1.hit_latency
        uncontested_mem = (
            self.interconnect.l1_to_l2_cycles
            + self.interconnect.l2_to_dir_cycles
            + self.interconnect.dir_to_dram_cycles
            + dram.row_hit_cycles
        )
        return {
            "GPU Clock": f"{int(gpu.clock_ghz * 1000)} MHz",
            "# of CUs": str(gpu.num_cus),
            "# SIMD units per CU": str(gpu.simd_per_cu),
            "Max # Wavefronts per SIMD unit": str(gpu.max_waves_per_simd),
            "GPU L1 D-cache per CU": (
                f"{l1.size_bytes // 1024} KB, {l1.line_bytes}B line, {l1.assoc}-way write-through"
            ),
            "GPU L2 cache": (
                f"{l2.size_bytes // 1024} KB, {l2.line_bytes}B line, {l2.assoc}-way "
                "write-through (write-back for R data)"
            ),
            "Main Memory": (
                f"HBM-style, {dram.channels} channels, {dram.banks_per_channel} banks/channel"
            ),
            "Approx. uncontested L1/L2/Memory latency": (
                f"{l1.hit_latency}/{uncontested_l2}/{l1.hit_latency + uncontested_mem} cycles"
            ),
        }


def paper_config() -> SystemConfig:
    """The unscaled system of the paper's Table 1 (64 CUs, 4 MB L2, HBM2)."""
    return SystemConfig(
        gpu=GpuConfig(num_cus=64),
        l1=CacheConfig(size_bytes=16 * 1024, hit_latency=50, mshrs=32),
        l2=CacheConfig(size_bytes=4 * 1024 * 1024, hit_latency=50, mshrs=256, writeback=True),
        dram=DramConfig(channels=16, banks_per_channel=16),
        interconnect=InterconnectConfig(l2_banks=16),
    )


def scaled_config(num_cus: int) -> SystemConfig:
    """Scale the paper configuration down to ``num_cus`` compute units.

    The L2 capacity, L2 bank count and DRAM channel count scale with the CU
    count so that per-CU shared-cache capacity and bandwidth-per-CU stay
    approximately constant.  Per-CU resources (L1, SIMDs, wavefront slots)
    are unchanged.
    """
    if num_cus < 1:
        raise ValueError(f"num_cus must be positive, got {num_cus}")
    ratio = num_cus / 64.0
    l2_size = max(64 * 1024, int(4 * 1024 * 1024 * ratio))
    channels = max(2, int(math.ceil(16 * ratio)))
    l2_banks = max(2, int(math.ceil(16 * ratio)))
    base = paper_config()
    # the L2 MSHR pool is not scaled down: hardware L2s provision miss
    # tracking per bank, and shrinking it would throttle cached configurations
    # far below what the bypass path can sustain, exaggerating cache stalls
    return SystemConfig(
        gpu=replace(base.gpu, num_cus=num_cus),
        l1=base.l1,
        l2=replace(base.l2, size_bytes=l2_size, mshrs=base.l2.mshrs),
        dram=replace(base.dram, channels=channels),
        interconnect=replace(base.interconnect, l2_banks=l2_banks),
    )


def default_config() -> SystemConfig:
    """The scaled 8-CU configuration used by tests, examples and benches."""
    return scaled_config(8)
