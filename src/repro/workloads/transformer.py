"""Transformer-era workload: multi-head attention (beyond the paper).

The paper's Table 2 predates the transformer takeover of MI workloads; the
adaptive-policy study (``experiments/adaptive.py``) wants at least one
kernel mix from that era.  :class:`MultiHeadAttention` models one
scaled-dot-product attention layer as MIOpen/rocBLAS would dispatch it: one
score GEMM and one context GEMM per head, a fused row softmax over all
heads, and the output projection -- ``2 x heads + 2`` kernel launches with
three distinct memory personalities (L2-reusable K/V and weight matrices,
short-reuse-distance softmax passes, streaming probability matrices).
"""

from __future__ import annotations

from repro.core.classification import WorkloadCategory
from repro.workloads.base import Workload, WorkloadMetadata
from repro.workloads.layers.attention import (
    attention_context_kernel,
    attention_projection_kernel,
    attention_score_kernel,
    attention_softmax_kernel,
)
from repro.workloads.tensor import AddressSpace
from repro.workloads.trace import WorkloadTrace

__all__ = ["MultiHeadAttention"]


class MultiHeadAttention(Workload):
    """MHA: per-head score/context GEMMs + fused softmax + projection."""

    metadata = WorkloadMetadata(
        name="MHA",
        suite="Transformer microbench",
        paper_input="Sequence 64, 4 heads, d_model 64",
        unique_kernels=4,
        total_kernels=10,
        paper_footprint="n/a (beyond the paper's Table 2)",
        paper_category=WorkloadCategory.REUSE_SENSITIVE,
        description=(
            "Scaled-dot-product attention: K/V and projection weights are "
            "re-read by every query tile (L2 reuse), softmax re-reads each "
            "score row three times, probabilities stream through once."
        ),
    )

    def __init__(
        self,
        scale: float = 1.0,
        wavefront_size: int = 64,
        num_heads: int = 4,
        head_dim: int = 16,
    ) -> None:
        super().__init__(scale=scale, wavefront_size=wavefront_size)
        if num_heads <= 0 or head_dim <= 0:
            raise ValueError("num_heads and head_dim must be positive")
        self.num_heads = num_heads
        self.head_dim = head_dim
        # the sequence length carries the scale factor; 8 keeps the tiny
        # test scales non-degenerate (at least a few cache lines per row)
        self.seq = self.scaled(64, minimum=8)

    @property
    def model_dim(self) -> int:
        return self.num_heads * self.head_dim

    # ------------------------------------------------------------------
    def build_trace(self) -> WorkloadTrace:
        seq, heads, head_dim = self.seq, self.num_heads, self.head_dim
        model_dim = self.model_dim
        space = AddressSpace()
        q = space.allocate("q", seq * model_dim)
        k = space.allocate("k", seq * model_dim)
        v_t = space.allocate("v_t", seq * model_dim)
        scores = space.allocate("scores", heads * seq * seq)
        probs = space.allocate("probs", heads * seq * seq)
        context = space.allocate("context", seq * model_dim)
        w_out_t = space.allocate("w_out_t", model_dim * model_dim)
        output = space.allocate("output", seq * model_dim)

        trace = WorkloadTrace(name=self.name)
        for head in range(heads):
            trace.add_kernel(
                attention_score_kernel(
                    "rocblas_attn_scores",
                    q=q,
                    k=k,
                    scores=scores,
                    head=head,
                    seq=seq,
                    head_dim=head_dim,
                    wavefront_size=self.wavefront_size,
                )
            )
        trace.add_kernel(
            attention_softmax_kernel(
                "miopen_attn_softmax",
                scores=scores,
                probs=probs,
                num_heads=heads,
                seq=seq,
                wavefront_size=self.wavefront_size,
            )
        )
        for head in range(heads):
            trace.add_kernel(
                attention_context_kernel(
                    "rocblas_attn_context",
                    probs=probs,
                    v_t=v_t,
                    context=context,
                    head=head,
                    seq=seq,
                    head_dim=head_dim,
                    wavefront_size=self.wavefront_size,
                )
            )
        trace.add_kernel(
            attention_projection_kernel(
                "rocblas_attn_proj",
                context=context,
                w_out_t=w_out_t,
                output=output,
                seq=seq,
                model_dim=model_dim,
                wavefront_size=self.wavefront_size,
            )
        )
        return trace
