"""The run description: :class:`repro.spec.JobSpec` normalises its inputs
and rejects runs the simulator cannot execute when it is built, before any
work is scheduled."""

from __future__ import annotations

import pytest

from repro.accel import SamplingConfig, ShardConfig
from repro.adaptive import AdaptiveConfig
from repro.config import default_config, scaled_config
from repro.core.policies import CACHE_RW, policy_by_name
from repro.experiments.jobs import JobSpec as ReExportedJobSpec
from repro.experiments.jobs import SweepExecutor
from repro.session import SimulationSession, simulate
from repro.spec import JobSpec
from repro.streams import StreamConfig, mix_by_name
from repro.topology import TOPOLOGIES
from repro.workloads.registry import get_workload

def _partitioned(count: int) -> tuple[StreamConfig, ...]:
    return tuple(
        StreamConfig(workload="CM", scale=0.1, cu_share="partitioned", label=f"s{i}")
        for i in range(count)
    )


class TestNormalisation:
    def test_jobs_module_reexports_the_spec(self):
        assert ReExportedJobSpec is JobSpec

    def test_policy_name_becomes_a_policy_spec(self):
        assert JobSpec(workload="FwSoft", policy="CacheRW") == JobSpec(
            workload="FwSoft", policy=CACHE_RW
        )

    def test_adaptive_run_records_its_initial_policy(self):
        adaptive = AdaptiveConfig()
        assert JobSpec(workload="FwSoft", adaptive=adaptive).policy == adaptive.initial_policy

    def test_missing_config_is_the_default_system(self):
        assert JobSpec(workload="FwSoft", policy=CACHE_RW).config == default_config()

    def test_serving_mix_becomes_streams_and_label(self):
        mix = mix_by_name("mha+fwlstm")
        spec = JobSpec(policy=CACHE_RW, streams=mix)
        assert spec.streams == mix.streams
        assert spec.workload == mix.name
        assert spec == JobSpec(workload=mix.name, policy=CACHE_RW, streams=list(mix.streams))

    def test_stream_list_is_labelled_by_its_tenants(self):
        spec = JobSpec(policy=CACHE_RW, streams=_partitioned(2))
        assert spec.streams == _partitioned(2)
        assert spec.workload == "s0+s1"

    @pytest.mark.parametrize(
        ("name", "empty"),
        [
            ("shards", ShardConfig(num_shards=1)),
        ],
    )
    def test_exact_mode_configs_are_stored_as_none(self, name, empty):
        spec = JobSpec(workload="FwSoft", policy=CACHE_RW, **{name: empty})
        assert getattr(spec, name) is None
        assert spec == JobSpec(workload="FwSoft", policy=CACHE_RW)
        assert spec.fingerprint() == JobSpec(workload="FwSoft", policy=CACHE_RW).fingerprint()


#: incompatible pairs, each rejected when the spec is built
INCOMPATIBLE = {
    "no policy": dict(workload="FwSoft"),
    "no streams": dict(policy=CACHE_RW, streams=()),
    "sampling+adaptive": dict(
        workload="FwSoft", adaptive=AdaptiveConfig(), sampling=SamplingConfig()
    ),
    "sampling+unsharded streams": dict(
        policy=CACHE_RW, streams=_partitioned(2), sampling=SamplingConfig()
    ),
    "sampling+two streams per shard": dict(
        policy=CACHE_RW,
        config=scaled_config(8),
        streams=_partitioned(4),
        sampling=SamplingConfig(),
        shards=ShardConfig(num_shards=2),
    ),
    "shards without streams": dict(
        workload="FwSoft", policy=CACHE_RW, shards=ShardConfig(num_shards=2)
    ),
    "shards+shared streams": dict(
        policy=CACHE_RW,
        streams=(StreamConfig(workload="CM"), StreamConfig(workload="FwSoft")),
        shards=ShardConfig(num_shards=2),
    ),
    "shards+topology": dict(
        policy=CACHE_RW,
        streams=_partitioned(2),
        topology=TOPOLOGIES["dual-chiplet"],
        shards=ShardConfig(num_shards=2),
    ),
    "shards+adaptive": dict(
        adaptive=AdaptiveConfig(), streams=_partitioned(2), shards=ShardConfig(num_shards=2)
    ),
    "more shards than streams": dict(
        policy=CACHE_RW, streams=_partitioned(2), shards=ShardConfig(num_shards=3)
    ),
    "indivisible CUs": dict(
        policy=CACHE_RW,
        config=scaled_config(8),
        streams=_partitioned(3),
        shards=ShardConfig(num_shards=3),
    ),
}


class TestConstructionTimeRejection:
    @pytest.mark.parametrize("name", sorted(INCOMPATIBLE))
    def test_incompatible_axes_raise_when_built(self, name):
        with pytest.raises(ValueError):
            JobSpec(**INCOMPATIBLE[name])

    @pytest.mark.parametrize("scale", [0.0, -0.5, float("nan"), float("inf")])
    def test_stream_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="positive and finite"):
            StreamConfig(workload="CM", scale=scale)

    def test_one_sharded_sample_per_stream_is_accepted(self):
        spec = JobSpec(
            policy=CACHE_RW,
            streams=_partitioned(2),
            sampling=SamplingConfig(),
            shards=ShardConfig(num_shards=2),
        )
        assert spec.shards is not None and spec.sampling is not None

    def test_a_sweep_with_one_bad_spec_dispatches_nothing(self):
        executor = SweepExecutor()
        good = dict(workload="FwSoft", policy=policy_by_name("CacheR"), scale=0.05)
        with pytest.raises(ValueError):
            executor.run(
                [
                    JobSpec(config=scaled_config(2), **good),
                    JobSpec(**INCOMPATIBLE["sampling+adaptive"]),
                ]
            )
        assert executor.stats.batches == 0
        assert executor.stats.runs_simulated == 0


class TestEntryPoints:
    def test_a_spec_and_run_keywords_do_not_mix(self):
        spec = JobSpec(workload="FwSoft", policy=CACHE_RW)
        with pytest.raises(TypeError, match="not both"):
            SimulationSession(spec, policy="CacheR")
        with pytest.raises(TypeError, match="not both"):
            simulate(spec, "CacheR")

    def test_a_session_refuses_a_sharded_spec(self):
        spec = JobSpec(
            policy=CACHE_RW, streams=_partitioned(2), shards=ShardConfig(num_shards=2)
        )
        with pytest.raises(ValueError, match="run_sharded"):
            SimulationSession(spec)

    def test_a_sharded_run_takes_no_workload(self):
        with pytest.raises(ValueError, match="no workload"):
            simulate(
                get_workload("CM"),
                policy=CACHE_RW,
                streams=_partitioned(2),
                shards=ShardConfig(num_shards=2),
            )
