"""Tests for the workload registry and the generated workload traces."""

from __future__ import annotations

import pytest

from repro.core.classification import PAPER_CATEGORIES
from repro.workloads.base import Workload
from repro.workloads.registry import (
    WORKLOAD_NAMES,
    get_workload,
    standard_suite,
    workload_metadata_table,
)

#: small scale keeps trace generation fast in unit tests
TEST_SCALE = 0.2


class TestRegistry:
    def test_eighteen_workloads_registered(self):
        # the paper's seventeen plus the beyond-paper MHA layer
        assert len(WORKLOAD_NAMES) == 18

    def test_registry_matches_paper_category_table(self):
        assert set(WORKLOAD_NAMES) == set(PAPER_CATEGORIES)

    def test_lookup_is_case_insensitive(self):
        assert get_workload("fwact").name == "FwAct"
        assert get_workload("FWLSTM").name == "FwLSTM"

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            get_workload("FwTransformer")

    def test_standard_suite_builds_all(self):
        suite = standard_suite(scale=TEST_SCALE)
        assert len(suite) == 18
        assert all(isinstance(w, Workload) for w in suite)

    def test_standard_suite_subset(self):
        suite = standard_suite(scale=TEST_SCALE, names=("FwAct", "SGEMM"))
        assert [w.name for w in suite] == ["FwAct", "SGEMM"]

    def test_gru_and_lstm_have_distinct_names(self):
        assert get_workload("FwGRU").name == "FwGRU"
        assert get_workload("FwBwLSTM").name == "FwBwLSTM"

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            get_workload("FwAct", scale=0)

    @pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_non_positive_or_non_finite_scale_rejected(self, scale):
        # NaN and inf slip past a plain ``scale <= 0`` and used to fail only
        # later, converting the scaled element counts to int
        with pytest.raises(ValueError, match="positive and finite"):
            get_workload("FwAct", scale=scale)


class TestWorkloadMetadata:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_metadata_is_complete(self, name):
        workload = get_workload(name, scale=TEST_SCALE)
        meta = workload.metadata
        assert meta.name == name
        assert meta.suite
        assert meta.paper_input
        assert meta.unique_kernels >= 1
        assert meta.total_kernels >= meta.unique_kernels
        assert meta.paper_footprint
        assert meta.paper_category is PAPER_CATEGORIES[name]

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_profile_is_valid(self, name):
        # the profile is measured from the generated trace, not typed in
        trace = get_workload(name, scale=TEST_SCALE).build_trace()
        profile = trace.summary()
        assert profile["name"] == name
        assert 1 <= profile["unique_kernels"] <= profile["kernels"] <= profile["wavefronts"]
        assert profile["vector_ops"] > 0
        loads = sum(kernel.load_lines for kernel in trace.kernels)
        stores = sum(kernel.store_lines for kernel in trace.kernels)
        assert loads + stores == profile["line_requests"] > 0
        assert 0 < profile["footprint_bytes"] <= 64 * profile["line_requests"]
        assert profile["footprint_bytes"] % 64 == 0

    def test_metadata_table_has_one_row_per_workload(self):
        rows = workload_metadata_table(scale=TEST_SCALE)
        assert len(rows) == 18
        names = [row["name"] for row in rows]
        assert names == list(WORKLOAD_NAMES)
        for row in rows:
            assert row["sim_line_requests"] > 0
            assert row["sim_footprint_bytes"] > 0


class TestGeneratedTraces:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_trace_is_well_formed(self, name):
        workload = get_workload(name, scale=TEST_SCALE)
        trace = workload.build_trace()
        assert trace.name == name
        assert trace.num_kernels >= 1
        assert trace.line_requests > 0
        for kernel in trace.kernels:
            assert kernel.num_wavefronts >= 1
            for wave in kernel.wavefronts:
                assert len(wave.instructions) >= 1
                for instr in wave.memory_instructions:
                    for address in instr.line_addresses:
                        assert address % 64 == 0

    def test_multi_kernel_workloads_have_many_kernels(self):
        assert get_workload("FwLSTM", scale=TEST_SCALE).build_trace().num_kernels > 2
        assert get_workload("CM", scale=TEST_SCALE).build_trace().num_kernels > 2

    def test_single_kernel_workloads_have_one_kernel(self):
        for name in ("FwAct", "SGEMM", "FwFc", "FwSoft"):
            assert get_workload(name, scale=TEST_SCALE).build_trace().num_kernels == 1

    def test_scale_changes_trace_size(self):
        small = get_workload("FwAct", scale=0.1).build_trace().line_requests
        large = get_workload("FwAct", scale=0.4).build_trace().line_requests
        assert large > small

    def test_streaming_workloads_have_no_line_reuse(self):
        trace = get_workload("FwAct", scale=TEST_SCALE).build_trace()
        assert len(trace.kernels[0].touched_lines()) == trace.line_requests

    def test_softmax_rereads_its_lines(self):
        trace = get_workload("FwSoft", scale=TEST_SCALE).build_trace()
        kernel = trace.kernels[0]
        assert kernel.line_requests > len(kernel.touched_lines())

    def test_elementwise_loads_equal_stores(self):
        kernel = get_workload("FwAct", scale=TEST_SCALE).build_trace().kernels[0]
        assert kernel.load_lines == kernel.store_lines

    def test_backward_pool_is_store_dominated(self):
        kernel = get_workload("BwPool", scale=TEST_SCALE).build_trace().kernels[0]
        assert kernel.store_lines > kernel.load_lines

    def test_dgemm_uses_double_precision_footprint(self):
        sgemm = get_workload("SGEMM", scale=TEST_SCALE).build_trace()
        dgemm = get_workload("DGEMM", scale=TEST_SCALE).build_trace()
        # DGEMM moves 8-byte elements, so per-element footprint is larger
        assert dgemm.footprint_bytes() > 0 and sgemm.footprint_bytes() > 0

    def test_rnn_training_has_more_kernels_than_inference(self):
        fw = get_workload("FwLSTM", scale=0.5).build_trace().num_kernels
        fwbw = get_workload("FwBwLSTM", scale=0.5).build_trace().num_kernels
        assert fwbw > fw
