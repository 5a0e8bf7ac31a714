"""Registry of the studied MI workloads (paper Table 2, plus extensions).

The registry maps the figure labels used throughout the paper (``FwAct``,
``BwPool``, ``FwBwLSTM``, ...) to workload factories, and exposes helpers
to build the whole suite at a chosen scale and to render the Table 2
metadata.  Beyond the paper's seventeen workloads it registers ``MHA``, a
transformer-era multi-head-attention layer used by the adaptive-policy
study.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.workloads.base import Workload

__all__ = [
    "WORKLOAD_NAMES",
    "WORKLOAD_FACTORIES",
    "get_workload",
    "standard_suite",
    "workload_metadata_table",
]


def _factory(module: str, cls: str, **fixed: object) -> Callable[..., Workload]:
    """A factory for ``repro.workloads.<module>.<cls>``.

    The generator module is imported when the factory is first called,
    so importing the registry (for its names) loads no generator.
    """

    def build(**kw: object) -> Workload:
        name = f"repro.workloads.{module}"
        __import__(name)  # the interpreter's import path: ``-X importtime`` sees it
        return getattr(sys.modules[name], cls)(**fixed, **kw)

    return build


#: factories keyed by the paper's figure labels
WORKLOAD_FACTORIES: dict[str, Callable[..., Workload]] = {
    "DGEMM": _factory("deepbench", "Dgemm"),
    "SGEMM": _factory("deepbench", "Sgemm"),
    "CM": _factory("dnnmark", "ComposedModel"),
    "FwBN": _factory("dnnmark", "ForwardBatchNorm"),
    "FwPool": _factory("dnnmark", "ForwardPooling"),
    "FwSoft": _factory("dnnmark", "ForwardSoftmax"),
    "BwSoft": _factory("dnnmark", "BackwardSoftmax"),
    "BwPool": _factory("dnnmark", "BackwardPooling"),
    "FwGRU": _factory("deepbench", "RnnForward", cell="gru"),
    "FwLSTM": _factory("deepbench", "RnnForward", cell="lstm"),
    "FwBwGRU": _factory("deepbench", "RnnForwardBackward", cell="gru"),
    "FwBwLSTM": _factory("deepbench", "RnnForwardBackward", cell="lstm"),
    "BwBN": _factory("dnnmark", "BackwardBatchNorm"),
    "FwFc": _factory("dnnmark", "ForwardFullyConnected"),
    "FwAct": _factory("dnnmark", "ForwardActivation"),
    "FwLRN": _factory("dnnmark", "ForwardLrn"),
    "BwAct": _factory("dnnmark", "BackwardActivation"),
    # beyond the paper: transformer-era attention for the adaptive study
    "MHA": _factory("transformer", "MultiHeadAttention"),
}

#: workload names: the paper's seventeen in figure order (insensitive,
#: then reuse sensitive, then throughput sensitive), then the
#: beyond-paper additions (MHA)
WORKLOAD_NAMES: tuple[str, ...] = tuple(WORKLOAD_FACTORIES.keys())


def get_workload(name: str, scale: float = 1.0, **kwargs) -> Workload:
    """Instantiate one workload by its figure label (case-insensitive)."""
    for known, factory in WORKLOAD_FACTORIES.items():
        if known.lower() == name.lower():
            return factory(scale=scale, **kwargs)
    raise KeyError(
        f"unknown workload {name!r}; known workloads: {', '.join(WORKLOAD_NAMES)}"
    )


def standard_suite(scale: float = 1.0, names: tuple[str, ...] | None = None) -> list[Workload]:
    """Build the full 17-workload suite (or the subset given by ``names``)."""
    selected = WORKLOAD_NAMES if names is None else names
    return [get_workload(name, scale=scale) for name in selected]


def workload_metadata_table(scale: float = 1.0) -> list[dict[str, object]]:
    """Render Table 2: paper metadata alongside the scaled trace statistics."""
    rows: list[dict[str, object]] = []
    for name in WORKLOAD_NAMES:
        workload = get_workload(name, scale=scale)
        trace = workload.build_trace()
        meta = workload.metadata
        rows.append(
            {
                "name": meta.name,
                "suite": meta.suite,
                "paper_input": meta.paper_input,
                "paper_unique_kernels": meta.unique_kernels,
                "paper_total_kernels": meta.total_kernels,
                "paper_footprint": meta.paper_footprint,
                "paper_category": str(meta.paper_category),
                "sim_kernels": trace.num_kernels,
                "sim_unique_kernels": len(trace.unique_kernel_names),
                "sim_line_requests": trace.line_requests,
                "sim_footprint_bytes": trace.footprint_bytes(),
            }
        )
    return rows
