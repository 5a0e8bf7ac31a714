"""Configuration of multi-device NUMA topologies.

A :class:`TopologyConfig` describes how many devices (GPU chiplets or
discrete GPUs) a simulated system is composed of and what the inter-device
fabric between them looks like.  Each device owns one slice of the
distributed L2 and one partition of the DRAM system; cache lines are
interleaved across the partitions in fixed-size chunks, so every line has
exactly one *home* device and accesses from any other device pay the
fabric's latency/bandwidth penalty on the way to the home slice.

Like :class:`~repro.adaptive.config.AdaptiveConfig`, the topology is a
frozen dataclass of primitives: :func:`repro.fingerprint.fingerprint`
gives it a stable content hash, and topology runs key into the persistent
result store exactly like static and adaptive runs.

The workload partitioner (:mod:`repro.topology.partition`) has one mode:
each kernel's wavefronts are split across the devices data-parallel
style, so the mode is not a field; ``replicate_weights`` is its only
option.

``num_devices == 1`` is the degenerate topology: no fabric, no remote
accesses, and -- by construction, enforced per golden scenario in
``tests/integration/test_core_equivalence.py`` -- bit-identical behaviour
to a run without any topology at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.fingerprint import fingerprint

__all__ = [
    "TopologyConfig",
    "TOPOLOGIES",
    "TOPOLOGY_NAMES",
    "topology_by_name",
]

@dataclass(frozen=True)
class TopologyConfig:
    """One multi-device system topology.

    Attributes:
        num_devices: number of devices (chiplets or GPUs).  Each device
            owns ``SystemConfig.gpu.num_cus`` compute units, one L2 slice
            of ``SystemConfig.l2`` geometry and one DRAM partition of
            ``SystemConfig.dram`` geometry -- the system configuration is
            interpreted *per device*, so sweeping ``num_devices`` grows
            the hardware under a fixed workload (strong scaling).
        interleave_lines: cache lines per interleave chunk.  Consecutive
            chunks are homed on consecutive devices round-robin; a chunk of
            32 lines (2 KB, one default DRAM row) keeps whole DRAM rows on
            one device so interleaving never splits row locality.
        remote_latency_cycles: one-way latency a request pays to cross the
            fabric from its issuing device to a remote home slice (the
            response path is folded in, like every other link in the
            model).
        fabric_requests_per_cycle: bandwidth of each directed inter-device
            fabric link in requests per cycle; values below 1.0 model the
            narrower off-chip links of discrete multi-GPU systems.
        replicate_weights: enable the partitioner's replicated-weights
            mode: cache lines that are loaded by wavefronts of two or more
            devices and never stored anywhere in the workload (weight
            tensors, in the MI workloads studied) are given one private,
            locally-homed copy per device, trading footprint for locality
            exactly the way data-parallel training replicates weights.
        name: registry/display name ("" for ad-hoc configurations).
    """

    num_devices: int = 1
    interleave_lines: int = 32
    remote_latency_cycles: int = 100
    fabric_requests_per_cycle: float = 0.5
    replicate_weights: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError(f"num_devices must be positive, got {self.num_devices}")
        if self.interleave_lines < 1:
            raise ValueError(
                f"interleave_lines must be positive, got {self.interleave_lines}"
            )
        if self.remote_latency_cycles < 0:
            raise ValueError("remote_latency_cycles must be non-negative")
        if self.fabric_requests_per_cycle <= 0:
            raise ValueError("fabric_requests_per_cycle must be positive")

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Display name used in figures and CLI output."""
        return self.name or f"{self.num_devices}dev"

    def with_devices(self, num_devices: int) -> "TopologyConfig":
        """This topology's fabric parameters at a different device count.

        Used by the scaling sweep to hold the fabric fixed while the
        device count varies; the registry name is dropped because the
        result no longer matches the named entry.
        """
        return replace(self, num_devices=num_devices, name="")

    def fingerprint(self) -> str:
        """Stable content hash over every *physical* topology parameter.

        The hash covers :meth:`describe`, which leaves out the
        display-only ``name``.  The ``topology`` command records one per
        device count in its JSON artifact.  Store keys do not call it:
        :meth:`repro.spec.JobSpec.fingerprint` hashes the same
        :meth:`describe` payload directly, so runs differing in any knob
        (device count, fabric latency, interleave granularity, ...) never
        share a result-store entry, while a registered topology and an
        ad-hoc one with identical physics do.
        """
        return fingerprint(self.describe(), kind="TopologyConfig")

    def describe(self) -> dict[str, object]:
        """Primitive summary used by ``list --json`` and the CLI."""
        return {
            "num_devices": self.num_devices,
            "interleave_lines": self.interleave_lines,
            "remote_latency_cycles": self.remote_latency_cycles,
            "fabric_requests_per_cycle": self.fabric_requests_per_cycle,
            "replicate_weights": self.replicate_weights,
        }


#: registered topologies: chiplet fabrics are low-latency and wide (on-
#: package links); multi-GPU fabrics pay off-package latency and share
#: narrower links.  The CLI exposes these by name; the scaling sweep uses
#: ``with_devices`` to move along the device axis of either family.
TOPOLOGIES: dict[str, TopologyConfig] = {
    "single": TopologyConfig(num_devices=1, name="single"),
    "dual-chiplet": TopologyConfig(
        num_devices=2,
        remote_latency_cycles=60,
        fabric_requests_per_cycle=1.0,
        name="dual-chiplet",
    ),
    "quad-chiplet": TopologyConfig(
        num_devices=4,
        remote_latency_cycles=60,
        fabric_requests_per_cycle=1.0,
        name="quad-chiplet",
    ),
    "dual-gpu": TopologyConfig(
        num_devices=2,
        remote_latency_cycles=200,
        fabric_requests_per_cycle=0.25,
        name="dual-gpu",
    ),
    "quad-gpu": TopologyConfig(
        num_devices=4,
        remote_latency_cycles=200,
        fabric_requests_per_cycle=0.25,
        name="quad-gpu",
    ),
}

TOPOLOGY_NAMES: tuple[str, ...] = tuple(TOPOLOGIES)


def topology_by_name(name: str) -> TopologyConfig:
    """Look up a registered topology by name (case-insensitive)."""
    for known, topology in TOPOLOGIES.items():
        if known.lower() == name.lower():
            return topology
    raise KeyError(
        f"unknown topology {name!r}; known topologies: {', '.join(TOPOLOGY_NAMES)}"
    )
