"""Workload abstractions.

A :class:`Workload` is a generator of synthetic traces for one of the MI
benchmarks in the paper's Table 2.  It carries the paper's metadata (suite,
input configuration, kernel counts, GPU footprint) alongside the scaled
parameters actually used for trace generation.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

from repro.core.classification import WorkloadCategory
from repro.workloads.trace import WorkloadTrace

__all__ = ["WorkloadMetadata", "Workload"]


@dataclass(frozen=True)
class WorkloadMetadata:
    """Descriptive metadata straight from the paper's Table 2.

    Attributes:
        name: short name used in figures (e.g. ``"FwAct"``).
        suite: benchmark suite of origin (DNNMark, DeepBench, MIOpen-benchmark).
        paper_input: the input configuration used in the paper.
        unique_kernels: distinct GPU kernels in the paper's run.
        total_kernels: total kernel launches in the paper's run.
        paper_footprint: GPU memory footprint reported in Table 2 (text).
        paper_category: the caching-sensitivity class the paper reports.
        description: one-line description of the layer's access behaviour.
    """

    name: str
    suite: str
    paper_input: str
    unique_kernels: int
    total_kernels: int
    paper_footprint: str
    paper_category: WorkloadCategory
    description: str


class Workload(abc.ABC):
    """Base class for all trace-generating MI workloads.

    Args:
        scale: multiplier on the problem size (1.0 is the default scaled-down
            benchmark size described in DESIGN.md; the test suite uses
            smaller values for speed).
        wavefront_size: lanes per wavefront (64 for GCN).
    """

    #: subclasses must provide their Table 2 metadata
    metadata: WorkloadMetadata

    def __init__(self, scale: float = 1.0, wavefront_size: int = 64) -> None:
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"scale must be positive and finite, got {scale}")
        if wavefront_size <= 0:
            raise ValueError("wavefront_size must be positive")
        self.scale = scale
        self.wavefront_size = wavefront_size

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.metadata.name

    @abc.abstractmethod
    def build_trace(self) -> WorkloadTrace:
        """Generate the workload's kernel traces."""

    # ------------------------------------------------------------------
    def scaled(self, value: int, minimum: int = 1) -> int:
        """Scale an element/iteration count, keeping it at least ``minimum``."""
        return max(minimum, int(round(value * self.scale)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(scale={self.scale})"
