"""DNNMark single-layer workloads and the Composed Model (paper Table 2).

Each class generates a scaled-down synthetic trace whose access *structure*
(streaming vs. reuse, read/write mix, footprint relative to the caches,
kernel count) matches the corresponding DNNMark benchmark; DESIGN.md
documents the substitution and the scaling.
"""

from __future__ import annotations

from repro.core.classification import WorkloadCategory
from repro.workloads.base import Workload, WorkloadMetadata
from repro.workloads.layers.elementwise import elementwise_kernel
from repro.workloads.layers.gemm import fully_connected_forward_kernel, gemm_kernel
from repro.workloads.layers.normalization import (
    batchnorm_backward_kernel,
    batchnorm_forward_kernel,
    lrn_forward_kernel,
)
from repro.workloads.layers.pooling import pool_backward_kernel, pool_forward_kernel
from repro.workloads.layers.softmax import softmax_backward_kernel, softmax_forward_kernel
from repro.workloads.tensor import AddressSpace
from repro.workloads.trace import WorkloadTrace

__all__ = [
    "ForwardActivation",
    "BackwardActivation",
    "ForwardLrn",
    "ForwardBatchNorm",
    "BackwardBatchNorm",
    "ForwardPooling",
    "BackwardPooling",
    "ForwardSoftmax",
    "BackwardSoftmax",
    "ForwardFullyConnected",
    "ComposedModel",
]


class ForwardActivation(Workload):
    """FwAct: forward ReLU over a large tensor -- pure streaming, no reuse."""

    metadata = WorkloadMetadata(
        name="FwAct",
        suite="DNNMark",
        paper_input="Batch size 100",
        unique_kernels=1,
        total_kernels=1,
        paper_footprint="1.6 GB",
        paper_category=WorkloadCategory.THROUGHPUT_SENSITIVE,
        description="Elementwise ReLU: one streaming read and one streaming write per element.",
    )

    def build_trace(self) -> WorkloadTrace:
        # sized so the write stream alone exceeds the scaled L2 capacity, as
        # the paper's multi-GB activation tensors dwarf the 4 MB L2
        elements = self.scaled(144 * 1024)
        space = AddressSpace()
        x = space.allocate("x", elements)
        y = space.allocate("y", elements)
        trace = WorkloadTrace(name=self.name)
        trace.add_kernel(
            elementwise_kernel(
                "miopen_relu_fwd",
                inputs=[x],
                outputs=[y],
                num_elements=elements,
                elements_per_wavefront=1152,
                wavefront_size=self.wavefront_size,
                ops_per_chunk=2,
            )
        )
        return trace


class BackwardActivation(Workload):
    """BwAct: backward ReLU -- two streaming reads, one streaming write."""

    metadata = WorkloadMetadata(
        name="BwAct",
        suite="DNNMark",
        paper_input="Batch size 100",
        unique_kernels=1,
        total_kernels=1,
        paper_footprint="2.4 GB",
        paper_category=WorkloadCategory.THROUGHPUT_SENSITIVE,
        description="Elementwise ReLU gradient: reads x and dy, writes dx, no reuse.",
    )

    def build_trace(self) -> WorkloadTrace:
        elements = self.scaled(96 * 1024)
        space = AddressSpace()
        x = space.allocate("x", elements)
        dy = space.allocate("dy", elements)
        dx = space.allocate("dx", elements)
        trace = WorkloadTrace(name=self.name)
        trace.add_kernel(
            elementwise_kernel(
                "miopen_relu_bwd",
                inputs=[x, dy],
                outputs=[dx],
                num_elements=elements,
                elements_per_wavefront=768,
                wavefront_size=self.wavefront_size,
                ops_per_chunk=2,
            )
        )
        return trace


class ForwardLrn(Workload):
    """FwLRN: local response normalization -- streaming with a heavy read mix."""

    metadata = WorkloadMetadata(
        name="FwLRN",
        suite="DNNMark",
        paper_input="Batch size 100",
        unique_kernels=1,
        total_kernels=1,
        paper_footprint="2.4 GB",
        paper_category=WorkloadCategory.THROUGHPUT_SENSITIVE,
        description="Sliding-window normalization: streaming reads of x and scale, one write.",
    )

    def build_trace(self) -> WorkloadTrace:
        elements = self.scaled(80 * 1024)
        space = AddressSpace()
        x = space.allocate("x", elements)
        scale = space.allocate("scale", elements)
        y = space.allocate("y", elements)
        trace = WorkloadTrace(name=self.name)
        trace.add_kernel(
            lrn_forward_kernel(
                "miopen_lrn_fwd",
                x=x,
                scale=scale,
                y=y,
                num_elements=elements,
                elements_per_wavefront=640,
                wavefront_size=self.wavefront_size,
                ops_per_chunk=4,
            )
        )
        return trace


class ForwardBatchNorm(Workload):
    """FwBN: forward batch normalization -- intra-kernel re-read of the input."""

    metadata = WorkloadMetadata(
        name="FwBN",
        suite="DNNMark",
        paper_input="Batch size 256",
        unique_kernels=1,
        total_kernels=1,
        paper_footprint="42 MB",
        paper_category=WorkloadCategory.REUSE_SENSITIVE,
        description="Statistics pass plus normalization pass over the same data within one kernel.",
    )

    def build_trace(self) -> WorkloadTrace:
        elements = self.scaled(80 * 1024)
        channels = 64
        space = AddressSpace()
        x = space.allocate("x", elements)
        y = space.allocate("y", elements)
        params = space.allocate("params", channels * 4)
        trace = WorkloadTrace(name=self.name)
        trace.add_kernel(
            batchnorm_forward_kernel(
                "miopen_bn_fwd_spatial",
                x=x,
                y=y,
                params=params,
                num_elements=elements,
                elements_per_wavefront=1024,
                channels=channels,
                wavefront_size=self.wavefront_size,
            )
        )
        return trace


class BackwardBatchNorm(Workload):
    """BwBN: backward batch normalization -- load reuse plus partial-sum coalescing."""

    metadata = WorkloadMetadata(
        name="BwBN",
        suite="DNNMark",
        paper_input="Batch size 512",
        unique_kernels=1,
        total_kernels=1,
        paper_footprint="5.88 MB",
        paper_category=WorkloadCategory.REUSE_SENSITIVE,
        description="Two passes over x/dy plus per-channel gradient accumulation into a tiny buffer.",
    )

    def build_trace(self) -> WorkloadTrace:
        elements = self.scaled(40 * 1024)
        channels = 32
        space = AddressSpace()
        x = space.allocate("x", elements)
        dy = space.allocate("dy", elements)
        dx = space.allocate("dx", elements)
        params = space.allocate("params", channels * 2)
        partials = space.allocate("partials", channels * 2)
        trace = WorkloadTrace(name=self.name)
        trace.add_kernel(
            batchnorm_backward_kernel(
                "miopen_bn_bwd_spatial",
                x=x,
                dy=dy,
                dx=dx,
                params=params,
                partials=partials,
                num_elements=elements,
                elements_per_wavefront=512,
                channels=channels,
                wavefront_size=self.wavefront_size,
            )
        )
        return trace


class ForwardPooling(Workload):
    """FwPool: 3x3/stride-2 max pooling -- window reuse between nearby rows."""

    metadata = WorkloadMetadata(
        name="FwPool",
        suite="DNNMark",
        paper_input="Batch size 256",
        unique_kernels=1,
        total_kernels=1,
        paper_footprint="480 MB",
        paper_category=WorkloadCategory.REUSE_SENSITIVE,
        description="Window reads with one-row overlap between adjacent output rows; few writes.",
    )

    def build_trace(self) -> WorkloadTrace:
        side = self.scaled(256, minimum=16)
        space = AddressSpace()
        x = space.allocate("x", side * side)
        out_side = (side - 3) // 2 + 1
        y = space.allocate("y", out_side * out_side)
        trace = WorkloadTrace(name=self.name)
        trace.add_kernel(
            pool_forward_kernel(
                "miopen_pool_fwd",
                x=x,
                y=y,
                in_width=side,
                in_height=side,
                window=3,
                stride=2,
                wavefront_size=self.wavefront_size,
            )
        )
        return trace


class BackwardPooling(Workload):
    """BwPool: scatter of gradients into overlapping windows -- write coalescing."""

    metadata = WorkloadMetadata(
        name="BwPool",
        suite="DNNMark",
        paper_input="Batch size 256",
        unique_kernels=1,
        total_kernels=1,
        paper_footprint="252 MB",
        paper_category=WorkloadCategory.REUSE_SENSITIVE,
        description="Reads small dy/mask tensors, scatters gradients into overlapping input lines.",
    )

    def build_trace(self) -> WorkloadTrace:
        side = self.scaled(256, minimum=16)
        out_side = (side - 3) // 2 + 1
        space = AddressSpace()
        dy = space.allocate("dy", out_side * out_side)
        mask = space.allocate("mask", out_side * out_side)
        dx = space.allocate("dx", side * side)
        trace = WorkloadTrace(name=self.name)
        trace.add_kernel(
            pool_backward_kernel(
                "miopen_pool_bwd",
                dy=dy,
                mask=mask,
                dx=dx,
                in_width=side,
                in_height=side,
                window=3,
                stride=2,
                wavefront_size=self.wavefront_size,
            )
        )
        return trace


class ForwardSoftmax(Workload):
    """FwSoft: small-footprint classifier output layer with three read passes."""

    metadata = WorkloadMetadata(
        name="FwSoft",
        suite="DNNMark",
        paper_input="Batch size 512",
        unique_kernels=1,
        total_kernels=1,
        paper_footprint="0.01 MB",
        paper_category=WorkloadCategory.REUSE_SENSITIVE,
        description="Max / sum-exp / normalize passes over a tiny per-sample class vector.",
    )

    def build_trace(self) -> WorkloadTrace:
        elements = self.scaled(32 * 1024)
        space = AddressSpace()
        x = space.allocate("x", elements)
        y = space.allocate("y", elements)
        trace = WorkloadTrace(name=self.name)
        trace.add_kernel(
            softmax_forward_kernel(
                "miopen_softmax_fwd",
                x=x,
                y=y,
                num_elements=elements,
                elements_per_wavefront=1024,
                wavefront_size=self.wavefront_size,
            )
        )
        return trace


class BackwardSoftmax(Workload):
    """BwSoft: softmax gradient with two read passes over y and dy."""

    metadata = WorkloadMetadata(
        name="BwSoft",
        suite="DNNMark",
        paper_input="Batch size 512",
        unique_kernels=1,
        total_kernels=1,
        paper_footprint="0.02 MB",
        paper_category=WorkloadCategory.REUSE_SENSITIVE,
        description="Dot-product pass plus update pass over the same small tensors.",
    )

    def build_trace(self) -> WorkloadTrace:
        elements = self.scaled(24 * 1024)
        space = AddressSpace()
        y = space.allocate("y", elements)
        dy = space.allocate("dy", elements)
        dx = space.allocate("dx", elements)
        trace = WorkloadTrace(name=self.name)
        trace.add_kernel(
            softmax_backward_kernel(
                "miopen_softmax_bwd",
                y=y,
                dy=dy,
                dx=dx,
                num_elements=elements,
                elements_per_wavefront=1024,
                wavefront_size=self.wavefront_size,
            )
        )
        return trace


class ForwardFullyConnected(Workload):
    """FwFc: fully connected layer -- weight reuse across the whole batch."""

    metadata = WorkloadMetadata(
        name="FwFc",
        suite="DNNMark",
        paper_input="Batch size 512",
        unique_kernels=1,
        total_kernels=1,
        paper_footprint="148.2 MB",
        paper_category=WorkloadCategory.REUSE_SENSITIVE,
        description="Batch-tiled GEMM that re-reads the weight matrix for every batch tile.",
    )

    def __init__(self, scale: float = 1.0, wavefront_size: int = 64) -> None:
        super().__init__(scale=scale, wavefront_size=wavefront_size)
        self.batch = self.scaled(256, minimum=64)
        self.in_features = 128
        self.out_features = 256

    def build_trace(self) -> WorkloadTrace:
        space = AddressSpace()
        x = space.allocate("x", self.batch * self.in_features)
        weights = space.allocate("weights", self.out_features * self.in_features)
        y = space.allocate("y", self.batch * self.out_features)
        trace = WorkloadTrace(name=self.name)
        trace.add_kernel(
            fully_connected_forward_kernel(
                "rocblas_fc_fwd",
                x=x,
                weights=weights,
                y=y,
                batch=self.batch,
                in_features=self.in_features,
                out_features=self.out_features,
                batch_tile=64,
                waves_per_workgroup=4,
                wavefront_size=self.wavefront_size,
                macs_per_cycle_per_lane=4.0,
            )
        )
        return trace


class ComposedModel(Workload):
    """CM: a small multi-layer network -- compute bound, many kernel launches."""

    metadata = WorkloadMetadata(
        name="CM",
        suite="DNNMark",
        paper_input="Batch size 64",
        unique_kernels=4,
        total_kernels=130,
        paper_footprint="12.1 MB",
        paper_category=WorkloadCategory.MEMORY_INSENSITIVE,
        description="Convolution (GEMM) + activation + pooling blocks chained over many kernels.",
    )

    def __init__(self, scale: float = 1.0, wavefront_size: int = 64, blocks: int = 4) -> None:
        super().__init__(scale=scale, wavefront_size=wavefront_size)
        self.blocks = max(1, int(round(blocks * min(scale, 1.0)))) if scale < 1.0 else blocks

    def build_trace(self) -> WorkloadTrace:
        trace = WorkloadTrace(name=self.name)
        space = AddressSpace()
        conv_m, conv_n, conv_k = 128, 64, 64
        act_elements = self.scaled(4 * 1024)
        pool_side = 64
        a = space.allocate("conv_in", conv_m * conv_k)
        b = space.allocate("conv_w", conv_n * conv_k)
        c = space.allocate("conv_out", conv_m * conv_n)
        act_out = space.allocate("act_out", act_elements)
        pool_out_side = (pool_side - 3) // 2 + 1
        pool_in = space.allocate("pool_in", pool_side * pool_side)
        pool_out = space.allocate("pool_out", pool_out_side * pool_out_side)
        for block in range(self.blocks):
            trace.add_kernel(
                gemm_kernel(
                    "miopen_conv_gemm",
                    a=a,
                    b_t=b,
                    c=c,
                    m=conv_m,
                    n=conv_n,
                    k=conv_k,
                    tile_m=64,
                    tile_n=64,
                    waves_per_workgroup=4,
                    wavefront_size=self.wavefront_size,
                    macs_per_cycle_per_lane=0.15,
                    pc_base=0x9000,
                )
            )
            trace.add_kernel(
                elementwise_kernel(
                    "miopen_relu_fwd",
                    inputs=[c],
                    outputs=[act_out],
                    num_elements=min(act_elements, c.num_elements),
                    elements_per_wavefront=512,
                    wavefront_size=self.wavefront_size,
                    ops_per_chunk=4,
                    pc_base=0x1000,
                )
            )
            trace.add_kernel(
                pool_forward_kernel(
                    "miopen_pool_fwd",
                    x=pool_in,
                    y=pool_out,
                    in_width=pool_side,
                    in_height=pool_side,
                    window=3,
                    stride=2,
                    wavefront_size=self.wavefront_size,
                    ops_per_output_chunk=6,
                    pc_base=0x5000,
                )
            )
        # final classifier layer
        fc_in, fc_out, fc_batch = 64, 64, 64
        x = space.allocate("fc_in", fc_batch * fc_in)
        weights = space.allocate("fc_w", fc_out * fc_in)
        y = space.allocate("fc_out", fc_batch * fc_out)
        trace.add_kernel(
            fully_connected_forward_kernel(
                "rocblas_fc_fwd",
                x=x,
                weights=weights,
                y=y,
                batch=fc_batch,
                in_features=fc_in,
                out_features=fc_out,
                batch_tile=64,
                waves_per_workgroup=2,
                wavefront_size=self.wavefront_size,
                macs_per_cycle_per_lane=1.0,
            )
        )
        return trace
