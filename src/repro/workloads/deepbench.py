"""DeepBench workloads: SGEMM, DGEMM and the RNN training/inference suites.

The GEMM workloads are large, heavily tiled matrix multiplies that are
compute bound on the GPU (the paper's "memory insensitive" class): caching
removes a large fraction of their DRAM traffic without changing execution
time.  The RNN workloads launch a long sequence of small kernels per
timestep (the paper reports 150 launches for inference and 363 for
training), have a tiny footprint and only moderate, intra-kernel reuse --
the paper's moderately reuse-sensitive class.
"""

from __future__ import annotations

from repro.core.classification import WorkloadCategory
from repro.workloads.base import Workload, WorkloadMetadata
from repro.workloads.layers.gemm import gemm_kernel
from repro.workloads.layers.rnn_cell import (
    rnn_backward_kernel,
    rnn_gate_kernel,
    rnn_pointwise_kernel,
)
from repro.workloads.tensor import AddressSpace
from repro.workloads.trace import WorkloadTrace

__all__ = [
    "Sgemm",
    "Dgemm",
    "RnnForward",
    "RnnForwardBackward",
]


class Sgemm(Workload):
    """SGEMM: single-precision GEMM, compute bound, large inter-tile reuse."""

    metadata = WorkloadMetadata(
        name="SGEMM",
        suite="DeepBench",
        paper_input="4Kx128x4K",
        unique_kernels=1,
        total_kernels=1,
        paper_footprint="68 MB",
        paper_category=WorkloadCategory.MEMORY_INSENSITIVE,
        description="Tiled matrix multiply; B tiles shared across every workgroup row.",
    )

    def __init__(self, scale: float = 1.0, wavefront_size: int = 64) -> None:
        super().__init__(scale=scale, wavefront_size=wavefront_size)
        self.m = self.scaled(512, minimum=128)
        self.n = 128
        self.k = 128

    def build_trace(self) -> WorkloadTrace:
        space = AddressSpace()
        a = space.allocate("A", self.m * self.k)
        b_t = space.allocate("Bt", self.n * self.k)
        c = space.allocate("C", self.m * self.n)
        trace = WorkloadTrace(name=self.name)
        trace.add_kernel(
            gemm_kernel(
                "rocblas_sgemm",
                a=a,
                b_t=b_t,
                c=c,
                m=self.m,
                n=self.n,
                k=self.k,
                tile_m=64,
                tile_n=64,
                waves_per_workgroup=4,
                wavefront_size=self.wavefront_size,
                macs_per_cycle_per_lane=0.15,
            )
        )
        return trace


class Dgemm(Workload):
    """DGEMM: double-precision GEMM, compute bound (half the FP32 rate)."""

    metadata = WorkloadMetadata(
        name="DGEMM",
        suite="DeepBench",
        paper_input="4Kx128x4K",
        unique_kernels=1,
        total_kernels=1,
        paper_footprint="132 MB",
        paper_category=WorkloadCategory.MEMORY_INSENSITIVE,
        description="Double-precision tiled matrix multiply; twice the bytes, slower math.",
    )

    def __init__(self, scale: float = 1.0, wavefront_size: int = 64) -> None:
        super().__init__(scale=scale, wavefront_size=wavefront_size)
        self.m = self.scaled(256, minimum=128)
        self.n = 128
        self.k = 128

    def build_trace(self) -> WorkloadTrace:
        space = AddressSpace()
        a = space.allocate("A", self.m * self.k, element_bytes=8)
        b_t = space.allocate("Bt", self.n * self.k, element_bytes=8)
        c = space.allocate("C", self.m * self.n, element_bytes=8)
        trace = WorkloadTrace(name=self.name)
        trace.add_kernel(
            gemm_kernel(
                "rocblas_dgemm",
                a=a,
                b_t=b_t,
                c=c,
                m=self.m,
                n=self.n,
                k=self.k,
                tile_m=64,
                tile_n=64,
                waves_per_workgroup=4,
                wavefront_size=self.wavefront_size,
                macs_per_cycle_per_lane=0.1,
            )
        )
        return trace


class RnnForward(Workload):
    """FwLSTM / FwGRU: RNN inference -- many small kernels, modest reuse."""

    metadata = WorkloadMetadata(
        name="FwLSTM",
        suite="DeepBench / MIOpen-benchmark",
        paper_input="Batch 1, sequence length 16, hidden layer 128",
        unique_kernels=4,
        total_kernels=150,
        paper_footprint="0.38 MB",
        paper_category=WorkloadCategory.REUSE_SENSITIVE,
        description="Per-timestep gate GEMV (streaming weights) plus pointwise state update.",
    )

    def __init__(
        self,
        cell: str = "lstm",
        scale: float = 1.0,
        wavefront_size: int = 64,
        sequence_length: int = 12,
        hidden: int = 32,
    ) -> None:
        super().__init__(scale=scale, wavefront_size=wavefront_size)
        cell = cell.lower()
        if cell not in ("lstm", "gru"):
            raise ValueError("cell must be 'lstm' or 'gru'")
        self.cell = cell
        self.num_gates = 4 if cell == "lstm" else 3
        self.sequence_length = max(2, int(round(sequence_length * scale)))
        self.hidden = hidden
        # present the right display name for the registry
        self.metadata = WorkloadMetadata(
            name="FwLSTM" if cell == "lstm" else "FwGRU",
            suite=self.metadata.suite,
            paper_input=self.metadata.paper_input + f", {cell.upper()}",
            unique_kernels=self.metadata.unique_kernels,
            total_kernels=self.metadata.total_kernels,
            paper_footprint=self.metadata.paper_footprint,
            paper_category=self.metadata.paper_category,
            description=self.metadata.description,
        )

    def build_trace(self) -> WorkloadTrace:
        space = AddressSpace()
        state_len = 2 * self.hidden
        weights = space.allocate("weights", self.num_gates * self.hidden * state_len)
        state = space.allocate("state", state_len)
        gates = space.allocate("gates", self.num_gates * self.hidden)
        cell_state = space.allocate("cell_state", self.hidden)
        hidden_state = space.allocate("hidden_state", self.hidden)
        trace = WorkloadTrace(name=self.name)
        # every timestep launches the same two kernels over the same
        # tensors, so build each program once and alias it per timestep;
        # traces are read-only after construction (the GPU never mutates
        # them, and partitioning copies), which makes aliasing safe and
        # keeps trace generation O(1) in sequence length
        gate = rnn_gate_kernel(
            f"miopen_rnn_{self.cell}_gemv",
            weights=weights,
            state=state,
            gates=gates,
            hidden=self.hidden,
            num_gates=self.num_gates,
            wavefront_size=self.wavefront_size,
        )
        pointwise = rnn_pointwise_kernel(
            f"miopen_rnn_{self.cell}_pointwise",
            gates=gates,
            cell_state=cell_state,
            hidden_state=hidden_state,
            hidden=self.hidden,
            num_gates=self.num_gates,
            wavefront_size=self.wavefront_size,
        )
        for _timestep in range(self.sequence_length):
            trace.add_kernel(gate)
            trace.add_kernel(pointwise)
        return trace


class RnnForwardBackward(RnnForward):
    """FwBwLSTM / FwBwGRU: RNN training -- adds backward kernels per timestep."""

    def __init__(
        self,
        cell: str = "lstm",
        scale: float = 1.0,
        wavefront_size: int = 64,
        sequence_length: int = 10,
        hidden: int = 32,
    ) -> None:
        super().__init__(
            cell=cell,
            scale=scale,
            wavefront_size=wavefront_size,
            sequence_length=sequence_length,
            hidden=hidden,
        )
        base = self.metadata
        self.metadata = WorkloadMetadata(
            name="FwBwLSTM" if self.cell == "lstm" else "FwBwGRU",
            suite=base.suite,
            paper_input=base.paper_input,
            unique_kernels=6,
            total_kernels=363,
            paper_footprint="0.48 MB",
            paper_category=WorkloadCategory.REUSE_SENSITIVE,
            description=base.description + " Training adds gradient kernels with dW coalescing.",
        )

    def build_trace(self) -> WorkloadTrace:
        trace = super().build_trace()
        trace.name = self.name
        space = AddressSpace(alignment=4096)
        state_len = 2 * self.hidden
        weights = space.allocate("weights_bw", self.num_gates * self.hidden * state_len)
        saved_gates = space.allocate("saved_gates", self.num_gates * self.hidden)
        grad_state = space.allocate("grad_state", state_len)
        grad_weights = space.allocate("grad_weights", 4 * self.wavefront_size)
        # like the forward kernels, every timestep's backward kernel is the
        # same program over the same tensors: build it once and alias it
        backward = rnn_backward_kernel(
            f"miopen_rnn_{self.cell}_bwd",
            weights=weights,
            saved_gates=saved_gates,
            grad_state=grad_state,
            grad_weights=grad_weights,
            hidden=self.hidden,
            num_gates=self.num_gates,
            wavefront_size=self.wavefront_size,
        )
        for _timestep in range(self.sequence_length):
            trace.add_kernel(backward)
        return trace
