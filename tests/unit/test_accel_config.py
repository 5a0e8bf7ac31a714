"""Validation and fingerprint semantics of the acceleration configs.

The load-bearing contract is the "exact mode hashes as None" idiom on
:meth:`repro.spec.JobSpec.fingerprint`: a job with no acceleration and a
job with a one-shard :class:`ShardConfig` must produce the identical
fingerprint (so exact results interchange in the store), while any
:class:`SamplingConfig` or real sharding must change it (so sampled
results can never be served where exact ones were asked for).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.accel import SHARD_AXES, SamplingConfig, ShardConfig
from repro.core.policies import CACHE_RW
from repro.experiments.jobs import JobSpec
from repro.streams import StreamConfig


class TestSamplingConfigValidation:
    def test_defaults_are_valid(self):
        config = SamplingConfig()
        assert (config.warmup_instances, config.measure_instances) == (1, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"warmup_instances": -1},
            {"measure_instances": 0},
            {"warmup_instances": 0, "measure_instances": 1},  # sum < 2
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplingConfig(**kwargs)

    def test_payload_names_exactly_the_live_fields(self):
        # no retired knob lingers in the identity and no new one is left out
        described = SamplingConfig().describe()
        assert set(described) == {
            field.name for field in dataclasses.fields(SamplingConfig)
        }


class TestShardConfigValidation:
    def test_one_shard_is_empty(self):
        assert ShardConfig(num_shards=1).empty
        assert not ShardConfig(num_shards=2).empty

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_shards": 0},
            {"axis": "bogus"},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ShardConfig(**kwargs)

    def test_every_registered_axis_constructs(self):
        for axis in SHARD_AXES:
            assert ShardConfig(num_shards=2, axis=axis).axis == axis

    def test_describe_is_the_shard_count(self):
        assert ShardConfig(num_shards=2, axis="streams").describe() == {"num_shards": 2}

    def test_axis_spellings_share_an_identity(self):
        """``auto`` and ``streams`` name the same seam."""
        assert (
            ShardConfig(num_shards=2, axis="auto").describe()
            == ShardConfig(num_shards=2, axis="streams").describe()
        )


class TestJobSpecAccelFingerprint:
    def _job(self, **kwargs) -> JobSpec:
        return JobSpec(workload="CM", policy=CACHE_RW, scale=0.2, **kwargs)

    def _mix(self, streams: int = 2, **kwargs) -> JobSpec:
        """A serving job of partitioned tenants, which shards can split."""
        return JobSpec(
            policy=CACHE_RW,
            streams=tuple(
                StreamConfig(workload="CM", scale=0.2, cu_share="partitioned")
                for _ in range(streams)
            ),
            **kwargs,
        )

    def test_exact_modes_hash_as_none(self):
        """No config and one shard hash identically."""
        plain = self._job().fingerprint()
        assert self._job(shards=ShardConfig(num_shards=1)).fingerprint() == plain

    def test_enabled_sampling_changes_the_fingerprint(self):
        plain = self._job().fingerprint()
        sampled = self._job(sampling=SamplingConfig()).fingerprint()
        assert sampled != plain

    def test_sharding_changes_the_fingerprint(self):
        plain = self._mix().fingerprint()
        sharded = self._mix(shards=ShardConfig(num_shards=2)).fingerprint()
        assert sharded != plain

    def test_sampling_parameters_are_load_bearing(self):
        a = self._job(sampling=SamplingConfig(warmup_instances=1)).fingerprint()
        b = self._job(sampling=SamplingConfig(warmup_instances=2)).fingerprint()
        assert a != b

    def test_shard_parameters_are_load_bearing(self):
        a = self._mix(4, shards=ShardConfig(num_shards=2)).fingerprint()
        b = self._mix(4, shards=ShardConfig(num_shards=3)).fingerprint()
        assert a != b

    def test_summary_mentions_acceleration_only_when_enabled(self):
        assert "sampling" not in self._job().summary()
        assert "shards" not in self._job().summary()
        accel = self._mix(
            sampling=SamplingConfig(), shards=ShardConfig(num_shards=2)
        ).summary()
        assert "sampling" in accel and "shards" in accel
