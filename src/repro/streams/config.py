"""Configuration of concurrent execution streams (multi-tenant serving).

The paper evaluates its cache policies one workload at a time, but a GPU
serving production inference traffic runs many tenants' kernels
concurrently, and the cache policy interacts with inter-stream
interference: co-running kernels thrash the shared L2 (CIAO,
arXiv:1805.07718), so a policy that wins solo can lose under contention.

A :class:`StreamConfig` describes one tenant: which workload it runs, at
what scale, when it arrives, and how it shares the compute units with the
other tenants.  A :class:`ServingMix` is a named bundle of streams -- the
registered mixes model the serving scenarios the interference study
sweeps.  Both are frozen dataclasses of primitives, so
:func:`repro.fingerprint.fingerprint` gives them stable content hashes and
serving runs key into the persistent result store exactly like static,
adaptive and topology runs.

A single-entry stream list is the degenerate mix: one tenant owning the
whole GPU, which -- enforced per golden scenario in
``tests/integration/test_core_equivalence.py`` -- is bit-identical to a
plain single-workload run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.fingerprint import fingerprint

__all__ = [
    "CU_SHARE_MODES",
    "StreamConfig",
    "ServingMix",
    "SERVING_MIXES",
    "MIX_NAMES",
    "mix_by_name",
]

#: how a mix's streams share the compute units:
#: ``"shared"`` round-robins every stream's wavefronts over all CUs;
#: ``"partitioned"`` statically splits the CUs into one contiguous block
#: per stream (per device, in a multi-device topology)
CU_SHARE_MODES = ("shared", "partitioned")


@dataclass(frozen=True)
class StreamConfig:
    """One tenant's execution stream.

    Attributes:
        workload: registry name of the tenant's workload (its kernel
            sequence; resolved via :func:`repro.workloads.registry
            .get_workload` when the stream is launched).
        scale: workload scale factor passed to the trace generator.
        launch_cycle: arrival time -- the cycle at which the stream's
            first kernel launch begins (0 = present at simulation start).
        cu_share: this stream's CU share policy, one of
            :data:`CU_SHARE_MODES`.  Every stream of a mix must agree on
            the mode (validated by :class:`ServingMix` and again by the
            stream scheduler).
        label: optional display name ("" falls back to the workload name);
            excluded from the fingerprint, like
            :attr:`~repro.topology.config.TopologyConfig.name`.
    """

    workload: str
    scale: float = 1.0
    launch_cycle: int = 0
    cu_share: str = "shared"
    label: str = ""

    def __post_init__(self) -> None:
        if not self.workload:
            raise ValueError("a stream needs a workload name")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.launch_cycle < 0:
            raise ValueError(
                f"launch_cycle must be non-negative, got {self.launch_cycle}"
            )
        if self.cu_share not in CU_SHARE_MODES:
            raise ValueError(
                f"unknown cu_share {self.cu_share!r}; "
                f"known modes: {', '.join(CU_SHARE_MODES)}"
            )

    @property
    def display(self) -> str:
        """Name shown in tables and per-tenant report rows."""
        return self.label or self.workload

    def describe(self) -> dict[str, object]:
        """Physical parameters only (what the fingerprint covers)."""
        return {
            "workload": self.workload,
            "scale": self.scale,
            "launch_cycle": self.launch_cycle,
            "cu_share": self.cu_share,
        }

    def fingerprint(self) -> str:
        """Stable content hash over the physical stream parameters."""
        return fingerprint(self.describe(), kind="StreamConfig")


@dataclass(frozen=True)
class ServingMix:
    """A named multi-tenant serving scenario: several concurrent streams.

    Attributes:
        name: registry/display name of the mix.
        streams: the tenants' stream configurations (>= 1; all must share
            one ``cu_share`` mode).
        description: one-line summary for ``list`` output.
    """

    name: str
    streams: tuple[StreamConfig, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a serving mix needs a name")
        if not self.streams:
            raise ValueError(f"serving mix {self.name!r} has no streams")
        modes = {stream.cu_share for stream in self.streams}
        if len(modes) > 1:
            raise ValueError(
                f"serving mix {self.name!r} mixes cu_share modes {sorted(modes)}; "
                "all streams of a mix must share one mode"
            )

    @property
    def num_streams(self) -> int:
        return len(self.streams)

    @property
    def cu_share(self) -> str:
        """The mix's (uniform) CU share mode."""
        return self.streams[0].cu_share

    def with_cu_share(self, mode: str) -> "ServingMix":
        """This mix with every stream re-tagged to ``mode``."""
        return replace(
            self, streams=tuple(replace(s, cu_share=mode) for s in self.streams)
        )

    def scaled(self, factor: float) -> "ServingMix":
        """This mix with every stream's workload scale multiplied by ``factor``."""
        if factor == 1.0:
            return self
        return replace(
            self,
            streams=tuple(replace(s, scale=s.scale * factor) for s in self.streams),
        )

    def tenant_labels(self) -> list[str]:
        """Unambiguous per-tenant labels, in stream order."""
        return [
            f"{index}:{stream.display}" for index, stream in enumerate(self.streams)
        ]

    def describe(self) -> dict[str, object]:
        """Primitive summary used by ``list --json`` and artifacts."""
        return {
            "description": self.description,
            "cu_share": self.cu_share,
            "streams": [stream.describe() for stream in self.streams],
        }

    def fingerprint(self) -> str:
        """Stable content hash over the streams (display name excluded)."""
        return fingerprint(
            [stream.describe() for stream in self.streams], kind="ServingMix"
        )


#: registered serving mixes: two-tenant phase contrast, bursty GEMM
#: arrivals, and a four-tenant inference consolidation scenario
SERVING_MIXES: dict[str, ServingMix] = {
    "mha+fwlstm": ServingMix(
        name="mha+fwlstm",
        description="attention tenant vs many-kernel RNN tenant (reuse contrast)",
        streams=(
            StreamConfig(workload="MHA"),
            StreamConfig(workload="FwLSTM"),
        ),
    ),
    "gemm-burst": ServingMix(
        name="gemm-burst",
        description="dense GEMM tenants arriving in a staggered burst",
        streams=(
            StreamConfig(workload="DGEMM"),
            StreamConfig(workload="SGEMM", launch_cycle=2_000),
        ),
    ),
    "inference-4tenant": ServingMix(
        name="inference-4tenant",
        description="four consolidated inference tenants with staggered arrivals",
        streams=(
            StreamConfig(workload="FwFc"),
            StreamConfig(workload="FwSoft", launch_cycle=1_000),
            StreamConfig(workload="FwAct", launch_cycle=2_000),
            StreamConfig(workload="MHA", launch_cycle=3_000),
        ),
    ),
}

MIX_NAMES: tuple[str, ...] = tuple(SERVING_MIXES)


def mix_by_name(name: str) -> ServingMix:
    """Look up a registered serving mix by name (case-insensitive)."""
    for known, mix in SERVING_MIXES.items():
        if known.lower() == name.lower():
            return mix
    raise KeyError(
        f"unknown serving mix {name!r}; known mixes: {', '.join(MIX_NAMES)}"
    )
