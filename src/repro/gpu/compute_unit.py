"""Compute unit model.

A CU owns an instruction-issue port (finite issue bandwidth shared by the
wavefronts resident on it), a SIMD pool (finite vector throughput), and a
set of resident-wavefront slots.  Its wavefronts send memory requests to
the CU's private L1 through the memory hierarchy.

The SIMD pool is modelled as a single throughput resource: with
``simd_per_cu`` SIMD units executing 64-wide wavefront operations over
``wavefront_size / simd_width`` cycles, the aggregate throughput is one
wavefront-wide vector operation per cycle, which is how GCN hardware
behaves (4 SIMDs x 16 lanes, 4-cycle cadence).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.config import GpuConfig
from repro.engine import Simulator, ThroughputResource
from repro.gpu.wavefront import Wavefront
from repro.stats import StatsCollector
from repro.workloads.trace import WavefrontProgram

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.hierarchy import MemoryHierarchy

__all__ = ["ComputeUnit"]


class ComputeUnit:
    """One GPU compute unit."""

    def __init__(
        self,
        cu_id: int,
        config: GpuConfig,
        sim: Simulator,
        stats: StatsCollector,
        hierarchy: "MemoryHierarchy",
        on_wavefront_finished: Callable[[int, int], None],
    ) -> None:
        self.cu_id = cu_id
        self.config = config
        self.sim = sim
        self.stats = stats
        self.hierarchy = hierarchy
        self.on_wavefront_finished = on_wavefront_finished

        self.issue_port = ThroughputResource(
            f"cu{cu_id}.issue", cycles_per_grant=1.0 / config.issue_width
        )
        # aggregate SIMD throughput: one wavefront-wide vector op per cycle
        simd_cycles_per_op = (config.wavefront_size / 16.0) / config.simd_per_cu
        self.simd_pool = ThroughputResource(
            f"cu{cu_id}.simd", cycles_per_grant=max(simd_cycles_per_op, 0.25)
        )
        self._cycles_per_vector_op = max(simd_cycles_per_op, 0.25)
        self.max_outstanding_mem = config.max_outstanding_mem_per_wave
        self._resident: dict[int, Wavefront] = {}
        # pre-bound handles shared with the wavefronts resident on this CU
        self._c_wavefronts_started = stats.counter("gpu.wavefronts_started")
        self._c_wavefronts_finished = stats.counter("gpu.wavefronts_finished")
        self._c_vector_ops = stats.counter("gpu.vector_ops")
        self._c_mem_instructions = stats.counter("gpu.mem_instructions")
        self._h_mem_latency = stats.histogram_handle("gpu.mem_latency")
        #: optional telemetry TraceRecorder (one None-test per wavefront
        #: start/finish, nothing on the per-instruction path)
        self.trace = None

    # ------------------------------------------------------------------
    @property
    def max_resident_wavefronts(self) -> int:
        return self.config.max_waves_per_cu

    @property
    def resident_wavefronts(self) -> int:
        return len(self._resident)

    @property
    def has_free_slot(self) -> bool:
        return self.resident_wavefronts < self.max_resident_wavefronts

    # ------------------------------------------------------------------
    def start_wavefront(
        self,
        wavefront_id: int,
        kernel_id: int,
        program: WavefrontProgram,
        stream_id: int = 0,
    ) -> None:
        """Place a wavefront on this CU and start executing it."""
        if not self.has_free_slot:
            raise RuntimeError(f"CU {self.cu_id} has no free wavefront slot")
        wavefront = Wavefront(
            wavefront_id=wavefront_id,
            kernel_id=kernel_id,
            program=program,
            cu=self,
            on_finished=self._wavefront_finished,
            stream_id=stream_id,
        )
        self._resident[wavefront_id] = wavefront
        self._c_wavefronts_started.add()
        if self.trace is not None:
            self.trace.wavefront_started(wavefront_id, self.cu_id, stream_id, kernel_id)
        wavefront.start()

    def _wavefront_finished(self, wavefront: Wavefront) -> None:
        del self._resident[wavefront.wavefront_id]
        self._c_wavefronts_finished.add()
        if self.trace is not None:
            self.trace.wavefront_finished(wavefront.wavefront_id)
        self.on_wavefront_finished(self.cu_id, wavefront.stream_id)

    # ------------------------------------------------------------------
    def book_compute(self, now: int, vector_ops: int) -> int:
        """Occupy the SIMD pool for ``vector_ops`` wavefront-wide operations."""
        return self.simd_pool.grant_duration(now, vector_ops * self._cycles_per_vector_op)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComputeUnit(id={self.cu_id}, resident={self.resident_wavefronts})"
