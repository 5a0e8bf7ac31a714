"""One run, described once: :class:`JobSpec`.

Every result of the simulator is one (workload, policy, system) cell,
optionally extended along the run axes below.  :class:`JobSpec` is the
only place those axes are declared: it normalises the accepted input
forms, rejects incompatible combinations when it is built, and derives
the run's stable fingerprint (the result-store key and the ledger
identity).  :func:`repro.session.simulate`,
:class:`repro.session.SimulationSession`,
:func:`repro.accel.shard.run_sharded` and
:class:`repro.experiments.jobs.SweepExecutor` all consume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.config import SystemConfig, default_config
from repro.core.policies import PolicySpec, policy_by_name
from repro.fingerprint import fingerprint
from repro.streams.config import ServingMix, StreamConfig

if TYPE_CHECKING:
    from repro.accel.config import SamplingConfig, ShardConfig
    from repro.adaptive.config import AdaptiveConfig
    from repro.core.reuse_predictor import PredictorConfig
    from repro.topology.config import TopologyConfig

__all__ = ["JobSpec", "as_spec"]


@dataclass(frozen=True)
class JobSpec:
    """Complete, picklable description of one simulation run.

    Attributes:
        workload: registry name of the workload (paper figure label).  A
            session run given a workload object takes the name (and
            scale) from it instead.  For a serving mix this is the report's
            display label; it defaults to the mix name, or to the stream
            labels joined with ``+``.
        policy: the caching policy (a :class:`PolicySpec` or its name).
            Adaptive runs record the *initial* policy here (the default);
            the adaptive configuration's candidates govern the run.
        scale: workload scale factor passed to the trace generator.
        config: system configuration; defaults to the scaled 8-CU system.
            With a multi-device topology it describes *one device*: the
            hardware grows with the device count while the workload stays
            fixed (strong scaling).
        predictor_config: optional reuse-predictor geometry override.
        adaptive: when given, build the online adaptive subsystem instead
            of a static policy engine: a set-dueling monitor on the L2, a
            phase detector on the event queue, and a dynamic controller
            swapping the follower-set policy at kernel boundaries (and
            optionally mid-kernel).  The report's policy label is the
            adaptive configuration's display name.
        topology: when given (and ``num_devices > 1``), simulate a
            multi-device NUMA system: one L2 slice + DRAM partition per
            device joined by a fabric, address interleaving across the
            partitions, device-affine wavefront dispatch, and workload
            partitioning.  A one-device topology is bit-identical to no
            topology at all.  Only physical parameters are fingerprinted,
            so the display name never splits identical simulations.
        streams: when given (a :class:`~repro.streams.config.ServingMix`
            or a sequence of :class:`~repro.streams.config.StreamConfig`,
            stored as a tuple), run in multi-tenant serving mode: every
            stream's workload is resolved from the registry and executed
            concurrently under its CU share policy, kernel boundaries are
            stream-scoped, and per-stream counters are recorded.  The
            per-stream configs are fingerprinted; ``workload`` and
            ``scale`` are then not.  A single-entry stream list is
            bit-identical to the plain run of that workload (modulo the
            extra ``stream0.*`` counters).
        sampling: when given (a
            :class:`~repro.accel.config.SamplingConfig`), fast-forward
            steady-state kernel repeats: after a few measured instances
            per kernel signature the remaining repeats are skipped and
            their counters extrapolated with warmup correction, with
            per-counter error bounds on ``report.error_estimates`` and a
            summary on ``report.sampling``.  Sampled results are
            approximations, so the parameters are fingerprinted; exact
            mode is ``None``.
        shards: when given (and ``num_shards > 1``), a serving mix of
            partitioned streams runs as independent shards (one worker
            process per distinct shard, equal shards simulated once)
            whose reports are merged (:mod:`repro.accel.shard`).  Merged reports differ from
            monolithic ones (each shard simulates its own slice of the
            machine, plus a ``shard.count`` counter), so the shard count
            is fingerprinted; a single shard is stored as ``None``.

    Combinations the simulator cannot run raise :class:`ValueError` here,
    before any work is scheduled.
    """

    workload: str = ""
    policy: Optional[PolicySpec] = None
    scale: float = 1.0
    config: Optional[SystemConfig] = None
    predictor_config: Optional[PredictorConfig] = None
    adaptive: Optional[AdaptiveConfig] = None
    topology: Optional[TopologyConfig] = None
    streams: Optional[tuple[StreamConfig, ...]] = None
    sampling: Optional[SamplingConfig] = None
    shards: Optional[ShardConfig] = None

    def __post_init__(self) -> None:
        def put(name: str, value: object) -> None:
            object.__setattr__(self, name, value)

        if isinstance(self.policy, str):
            put("policy", policy_by_name(self.policy))
        if self.policy is None:
            if self.adaptive is None:
                raise ValueError("a run needs a policy or an adaptive configuration")
            put("policy", self.adaptive.initial_policy)
        if self.config is None:
            put("config", default_config())
        streams: Optional[Union[ServingMix, Sequence[StreamConfig]]] = self.streams
        if streams is not None:
            if isinstance(streams, ServingMix):
                label, streams = streams.name, streams.streams
            else:
                streams = tuple(streams)
                label = "+".join(stream.display for stream in streams)
            if not streams:
                raise ValueError("a serving run needs at least one stream")
            put("streams", streams)
            put("workload", self.workload or label)
        # a single shard is bit-identical to no shard config at all: store
        # it as None, so equal simulations compare (and memoize) equal and
        # fingerprint alike
        if self.shards is not None and self.shards.empty:
            put("shards", None)
        if self.sampling is not None:
            self._check_sampling()
        if self.shards is not None:
            self._check_shards()

    def _check_sampling(self) -> None:
        if self.adaptive is not None:
            raise ValueError(
                "phase-sampled fast-forward does not compose with adaptive "
                "policy control: the controller must observe every kernel "
                "boundary, and skipped kernels have none"
            )
        streams = self.streams
        if streams is not None and len(streams) > 1:
            if self.shards is None or self.shards.num_shards < len(streams):
                raise ValueError(
                    "phase-sampled fast-forward needs unambiguous per-kernel "
                    "counter attribution, so it supports at most one stream; "
                    "shard a multi-stream run into one shard per stream instead"
                )

    def _check_shards(self) -> None:
        assert self.shards is not None
        if self.adaptive is not None:
            raise ValueError(
                "sharded execution does not compose with adaptive policy "
                "control: the controller's duel state is global to the run"
            )
        if self.topology is not None:
            raise ValueError(
                "sharded execution does not compose with a multi-device "
                "topology: run the topology unsharded"
            )
        streams = self.streams
        if streams is None:
            raise ValueError(
                "nothing to shard along: sharding needs a serving mix (streams=...)"
            )
        if self.shards.num_shards > len(streams):
            raise ValueError(
                f"cannot split {len(streams)} stream(s) into {self.shards.num_shards} "
                "shards; each shard needs at least one stream"
            )
        if any(stream.cu_share != "partitioned" for stream in streams):
            raise ValueError(
                "streams-axis sharding requires cu_share='partitioned' on every "
                "stream: shared dispatch couples tenants through the CU "
                "scheduler, which a process boundary cannot reproduce"
            )
        assert self.config is not None
        if self.config.gpu.num_cus % len(streams):
            raise ValueError(
                f"{self.config.gpu.num_cus} CUs do not divide evenly among "
                f"{len(streams)} partitioned streams; sharding needs the exact "
                "per-stream share"
            )

    def fingerprint(self) -> str:
        """Stable key over every input that can affect the result.

        Same inputs always hash to the same key (across processes and
        sessions); changing the workload, scale, policy, system
        configuration or any optional override changes it.
        """
        return fingerprint(
            {
                # for serving jobs the per-stream configs are authoritative;
                # the workload label must not split identical mixes
                "workload": self.workload if self.streams is None else None,
                "scale": self.scale if self.streams is None else None,
                "policy": self.policy,
                "config": self.config,
                "predictor_config": self.predictor_config,
                "adaptive": self.adaptive,
                "topology": None if self.topology is None else self.topology.describe(),
                "streams": (
                    None
                    if self.streams is None
                    else [stream.describe() for stream in self.streams]
                ),
                "sampling": None if self.sampling is None else self.sampling.describe(),
                "shards": None if self.shards is None else self.shards.describe(),
            },
            kind="JobSpec",
        )

    def summary(self) -> dict[str, object]:
        """Human-readable inputs, stored next to cached blobs for auditing."""
        assert self.policy is not None and self.config is not None
        summary: dict[str, object] = {
            "workload": self.workload,
            "policy": self.policy.name,
            "scale": self.scale,
            "num_cus": self.config.gpu.num_cus,
        }
        if self.adaptive is not None:
            from repro.adaptive.config import DYNAMIC

            summary["adaptive"] = DYNAMIC
            summary["candidates"] = [p.name for p in self.adaptive.candidates]
        if self.topology is not None:
            summary["topology"] = self.topology.label
            summary["num_devices"] = self.topology.num_devices
        if self.streams is not None:
            summary["streams"] = [stream.describe() for stream in self.streams]
        if self.sampling is not None:
            summary["sampling"] = self.sampling.describe()
        if self.shards is not None:
            summary["shards"] = self.shards.describe()
        return summary


def as_spec(spec: Optional[JobSpec], axes: dict[str, object]) -> JobSpec:
    """The run a keyword-style call describes: ``spec``, or ``JobSpec(**axes)``.

    The one conversion behind the keyword forms of
    :func:`~repro.session.simulate` and
    :class:`~repro.session.SimulationSession`; the keywords are the
    :class:`JobSpec` field names.
    """
    if spec is None:
        return JobSpec(**axes)  # type: ignore[arg-type]
    if axes:
        raise TypeError(
            f"pass either a JobSpec or run keywords, not both (got {sorted(axes)})"
        )
    return spec
