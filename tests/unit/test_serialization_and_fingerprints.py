"""RunReport round-trip and config/job fingerprint stability."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import replace

import pytest

from repro.accel.config import SamplingConfig, ShardConfig
from repro.adaptive import AdaptiveConfig
from repro.config import default_config, paper_config, scaled_config
from repro.core.policies import ALL_POLICIES, CACHE_R, CACHE_RW, UNCACHED, policy_by_name
from repro.core.reuse_predictor import PredictorConfig
from repro.experiments.jobs import JobSpec
from repro.fingerprint import canonical_payload, code_digest, fingerprint
from repro.stats.report import RunReport
from repro.streams import StreamConfig
from repro.topology import TOPOLOGIES


def make_report(**overrides) -> RunReport:
    fields = dict(
        workload="FwSoft",
        policy="CacheR",
        cycles=123456,
        counters={"dram.accesses": 42, "l1.hits": 7, "gpu.mem_requests": 99},
        clock_ghz=1.6,
        wavefront_size=64,
    )
    fields.update(overrides)
    return RunReport(**fields)


class TestRunReportRoundTrip:
    def test_to_from_dict_is_lossless(self):
        report = make_report()
        assert RunReport.from_dict(report.to_dict()) == report

    def test_round_trip_survives_json(self):
        report = make_report()
        revived = RunReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert revived == report
        # derived metrics are reproduced exactly, not approximately
        assert revived.as_dict() == report.as_dict()

    def test_round_trip_preserves_non_default_fields(self):
        report = make_report(clock_ghz=2.0, wavefront_size=32)
        revived = RunReport.from_dict(report.to_dict())
        assert revived.clock_ghz == 2.0
        assert revived.wavefront_size == 32

    def test_missing_required_key_raises(self):
        data = make_report().to_dict()
        del data["cycles"]
        with pytest.raises(ValueError, match="cycles"):
            RunReport.from_dict(data)

    def test_bad_counters_raise(self):
        data = make_report().to_dict()
        data["counters"] = ["not", "a", "mapping"]
        with pytest.raises(ValueError):
            RunReport.from_dict(data)

    def test_blob_with_retired_fault_counters_loads_to_the_current_payload(self):
        # blobs stored before the fault axis was removed may carry its
        # counters; they load, and the summary payload keeps today's keys
        data = make_report().to_dict()
        data["counters"] = {**data["counters"], "faults.injected": 1}
        revived = RunReport.from_dict(data)
        assert revived.counters["faults.injected"] == 1
        assert set(revived.as_dict()) == set(make_report().as_dict())

    def test_to_dict_copies_counters(self):
        report = make_report()
        report.to_dict()["counters"]["dram.accesses"] = -1  # type: ignore[index]
        assert report.counters["dram.accesses"] == 42


class TestConfigFingerprints:
    def test_same_inputs_same_fingerprint(self):
        assert default_config().fingerprint() == default_config().fingerprint()
        assert CACHE_RW.fingerprint() == replace(CACHE_RW).fingerprint()
        assert PredictorConfig().fingerprint() == PredictorConfig().fingerprint()

    def test_changed_config_changes_fingerprint(self):
        base = default_config()
        assert base.fingerprint() != paper_config().fingerprint()
        assert base.fingerprint() != scaled_config(4).fingerprint()
        bumped = replace(base, l2=replace(base.l2, mshrs=base.l2.mshrs + 1))
        assert bumped.fingerprint() != base.fingerprint()

    def test_policies_have_distinct_fingerprints(self):
        prints = {policy.fingerprint() for policy in ALL_POLICIES}
        assert len(prints) == len(ALL_POLICIES)

    def test_renamed_policy_changes_fingerprint(self):
        assert (
            replace(CACHE_RW, name="CacheRW-renamed").fingerprint()
            != CACHE_RW.fingerprint()
        )

    def test_fingerprint_rejects_unserializable_objects(self):
        with pytest.raises(TypeError):
            fingerprint({"bad": object()})

    def test_canonical_payload_tags_dataclasses(self):
        payload = canonical_payload(UNCACHED)
        assert payload["__kind__"] == "PolicySpec"

    def test_canonical_payload_tags_nested_dataclasses(self):
        payload = canonical_payload(default_config())
        assert payload["__kind__"] == "SystemConfig"
        assert payload["gpu"]["__kind__"] == "GpuConfig"
        assert payload["l1"]["__kind__"] == "CacheConfig"

    def test_code_digest_is_stable_hex(self):
        assert code_digest() == code_digest()
        assert len(code_digest()) == 64
        int(code_digest(), 16)


#: one changed input per JobSpec field (bar shards) for the key tests below
KEY_CHANGES = [
    {"workload": "FwAct"},
    {"policy": CACHE_RW},
    {"scale": 0.25},
    {"config": scaled_config(4)},
    {"predictor_config": PredictorConfig(table_entries=256)},
    {"adaptive": AdaptiveConfig()},
    {"topology": TOPOLOGIES["dual-chiplet"]},
    {"streams": (StreamConfig(workload="FwSoft", scale=0.5),)},
    {"sampling": SamplingConfig()},
]


class TestJobSpecFingerprints:
    def test_same_job_same_key(self):
        a = JobSpec(workload="FwSoft", policy=CACHE_R, scale=0.5, config=scaled_config(2))
        b = JobSpec(workload="FwSoft", policy=CACHE_R, scale=0.5, config=scaled_config(2))
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("change", KEY_CHANGES, ids=lambda change: next(iter(change)))
    def test_any_changed_input_changes_key(self, change):
        base = JobSpec(workload="FwSoft", policy=CACHE_R, scale=0.5, config=scaled_config(2))
        assert replace(base, **change).fingerprint() != base.fingerprint()

    def test_every_field_is_shown_to_move_the_key(self):
        # shards can only split a stream mix, so the axis test below covers it
        covered = {next(iter(change)) for change in KEY_CHANGES} | {"shards"}
        assert covered == {field.name for field in dataclasses.fields(JobSpec)}

    @pytest.mark.parametrize(
        "axis,empty,active,streams",
        [
            # only a mix of partitioned tenants can be sharded
            (
                "shards",
                ShardConfig(num_shards=1),
                ShardConfig(num_shards=2),
                (StreamConfig(workload="FwSoft", cu_share="partitioned"),) * 2,
            ),
        ],
    )
    def test_empty_axis_normalises_to_none(self, axis, empty, active, streams):
        base = JobSpec(
            workload="FwSoft", policy=CACHE_R, scale=0.5, config=scaled_config(2), streams=streams
        )
        normalised = replace(base, **{axis: empty})
        assert getattr(normalised, axis) is None
        assert normalised == base and hash(normalised) == hash(base)
        assert normalised.fingerprint() == base.fingerprint()
        assert normalised.summary() == base.summary()
        # a non-empty config of the same axis stays a distinct job
        assert replace(base, **{axis: active}) != base
        assert replace(base, **{axis: active}).fingerprint() != base.fingerprint()

    def test_key_is_hex_sha256(self):
        key = JobSpec(workload="FwSoft", policy=CACHE_R).fingerprint()
        assert len(key) == 64
        int(key, 16)  # raises if not hex


#: one job per run axis, for the store-key pins below
PINNED_JOBS = {
    "static": dict(workload="FwSoft", scale=0.2, policy=CACHE_RW),
    "adaptive": dict(workload="FwSoft", scale=0.2, adaptive=AdaptiveConfig()),
    "topology": dict(
        workload="FwSoft", scale=0.2, policy=CACHE_RW, topology=TOPOLOGIES["dual-chiplet"]
    ),
    "streams": dict(
        workload="soft+cm",
        policy=CACHE_R,
        streams=(
            StreamConfig(workload="FwSoft", scale=0.1, label="soft"),
            StreamConfig(workload="CM", scale=0.1, launch_cycle=500, label="cm"),
        ),
    ),
    "sampling": dict(workload="FwLSTM", scale=0.3, policy=CACHE_RW, sampling=SamplingConfig()),
    "shards": dict(
        workload="pair",
        policy=CACHE_RW,
        streams=(StreamConfig(workload="FwSoft", scale=0.1, cu_share="partitioned"),) * 2,
        shards=ShardConfig(num_shards=2),
    ),
    "predictor_config": dict(
        workload="FwAct",
        scale=0.2,
        policy=policy_by_name("CacheRW-PCby"),
        predictor_config=PredictorConfig(
            table_entries=16, counter_bits=2, bypass_threshold=2, initial_value=3
        ),
    ),
}

#: store keys under a fixed code digest; a change to any of them means a
#: job of that axis is now identified by different inputs
PINNED_KEYS = {
    "static": "f0b06865bc0fd0427273076f14e65242e0c70e09f2932912e39ab117da49742e",
    "adaptive": "8405e9875b095210d594339830acdd4de5b89b64073fcbc56fe81d14d4e7481c",
    "topology": "2cc784313c9a715e4f9d83a91acf97a60d6f30c1a9e1dfb28f5ea98d1858c001",
    "streams": "50eeafb7717ca3b7b9a128e4e059da9380f00ddf69de00bf13a85e0cacebd949",
    "sampling": "49ddda4ef02190edc776cec5bd17d2aedf715aada9b122abe81b47dbe8d1e974",
    "shards": "ed23396ca2ecda37725c3531f7eaa2fe7b4a160a6a976a625dcdf0c453e825fa",
    "predictor_config": "d7148ee5d287443dab197432334a4ecae7f5d6a5a5b37c8ace33f68572bc0ef1",
}


class TestPinnedStoreKeys:
    """Job identity under a fixed code digest.

    The code digest is pinned so only the job payload is under test: each
    key moves only when the inputs that identify a job change.  Any source
    edit already starts new keys in real stores (see
    :class:`TestCodeStaleness`), so these pins guard job identity, not
    store warmth across an edit.
    """

    @pytest.fixture(autouse=True)
    def fixed_code_digest(self, monkeypatch):
        import repro.fingerprint as fp

        monkeypatch.setattr(fp, "code_digest", lambda: "0" * 64)

    @pytest.mark.parametrize("axis", sorted(PINNED_JOBS))
    def test_job_fingerprint_is_pinned(self, axis):
        job = JobSpec(config=scaled_config(2), **PINNED_JOBS[axis])
        assert job.fingerprint() == PINNED_KEYS[axis]

    def test_payload_names_exactly_the_live_fields(self, monkeypatch):
        # no retired axis lingers in the key and no new field is left out
        import repro.spec

        payloads = []
        monkeypatch.setattr(
            repro.spec,
            "fingerprint",
            lambda payload, kind=None: payloads.append(payload) or "",
        )
        JobSpec(config=scaled_config(2), **PINNED_JOBS["static"]).fingerprint()
        (payload,) = payloads
        assert set(payload) == {field.name for field in dataclasses.fields(JobSpec)}


class TestCodeStaleness:
    """A simulator-source edit must change every job fingerprint.

    This is what lets the persistent result store survive hot-path rewrites
    of the core (like PR 2's): stored reports keyed under the old code
    digest become misses instead of being served stale.
    """

    def test_editing_a_source_file_changes_tree_digest(self, tmp_path):
        from repro.fingerprint import tree_digest

        package = tmp_path / "fakepkg"
        package.mkdir()
        (package / "a.py").write_text("X = 1\n")
        (package / "sub").mkdir()
        (package / "sub" / "b.py").write_text("Y = 2\n")
        before = tree_digest(package)
        assert before == tree_digest(package)  # deterministic
        (package / "sub" / "b.py").write_text("Y = 3\n")
        assert tree_digest(package) != before

    def test_adding_a_source_file_changes_tree_digest(self, tmp_path):
        from repro.fingerprint import tree_digest

        package = tmp_path / "fakepkg"
        package.mkdir()
        (package / "a.py").write_text("X = 1\n")
        before = tree_digest(package)
        (package / "new_module.py").write_text("")
        assert tree_digest(package) != before

    def test_code_digest_change_invalidates_job_fingerprints(self, monkeypatch):
        import repro.fingerprint as fp

        job = JobSpec(workload="FwSoft", policy=CACHE_R, scale=0.5, config=scaled_config(2))
        before = job.fingerprint()
        monkeypatch.setattr(fp, "code_digest", lambda: "0" * 64)
        after = job.fingerprint()
        assert after != before
        monkeypatch.undo()
        assert job.fingerprint() == before

    def test_code_digest_reflects_current_package_source(self):
        from pathlib import Path

        from repro.fingerprint import tree_digest

        package_root = Path(fingerprint.__code__.co_filename).resolve().parent
        # the cached digest must equal a fresh walk of the live source tree
        assert code_digest() == tree_digest(package_root)
