"""Tests for the coalescer, trace data model and tensors."""

from __future__ import annotations

import pytest

from repro.gpu.coalescer import coalesce_addresses, coalesced_lines_for_stride, strided_lane_addresses
from repro.memory.request import AccessType
from repro.workloads.tensor import AddressSpace, Tensor
from repro.workloads.trace import (
    ComputeInstr,
    KernelTrace,
    MemInstr,
    WavefrontProgram,
    WorkloadTrace,
)


class TestCoalescer:
    def test_unit_stride_float32_wavefront_touches_four_lines(self):
        addresses = strided_lane_addresses(base=0, element_bytes=4, stride_elements=1, lanes=64)
        lines = coalesce_addresses(addresses)
        assert lines == (0, 64, 128, 192)

    def test_same_line_accesses_merge_to_one(self):
        lines = coalesce_addresses([0, 4, 8, 60])
        assert lines == (0,)

    def test_divergent_accesses_keep_distinct_lines(self):
        addresses = [i * 4096 for i in range(16)]
        assert len(coalesce_addresses(addresses)) == 16

    def test_order_is_first_touch(self):
        assert coalesce_addresses([128, 0, 130, 64]) == (128, 0, 64)

    def test_stride_two_doubles_line_count(self):
        unit = coalesced_lines_for_stride(0, 4, 1, 64)
        strided = coalesced_lines_for_stride(0, 4, 2, 64)
        assert len(strided) == 2 * len(unit)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            coalesce_addresses([])

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            coalesce_addresses([-4])


class TestTensorAndAddressSpace:
    def test_address_of_is_linear(self):
        tensor = Tensor("x", num_elements=100, element_bytes=4, base_address=4096)
        assert tensor.address_of(0) == 4096
        assert tensor.address_of(10) == 4096 + 40

    def test_address_of_wraps(self):
        tensor = Tensor("x", num_elements=10, element_bytes=4, base_address=0)
        assert tensor.address_of(12) == tensor.address_of(2)

    def test_lines_rounds_up(self):
        tensor = Tensor("x", num_elements=17, element_bytes=4, base_address=0)
        assert tensor.lines(64) == 2

    def test_allocation_is_aligned_and_non_overlapping(self):
        space = AddressSpace(alignment=4096)
        a = space.allocate("a", 100)
        b = space.allocate("b", 200)
        assert a.base_address % 4096 == 0
        assert b.base_address % 4096 == 0
        assert b.base_address >= a.end_address
        assert space.overlapping() == []

    def test_invalid_tensor_rejected(self):
        with pytest.raises(ValueError):
            Tensor("bad", num_elements=0, element_bytes=4, base_address=0)


class TestTraceModel:
    def _program(self) -> WavefrontProgram:
        program = WavefrontProgram()
        program.append(MemInstr(AccessType.LOAD, (0, 64), pc=0x10))
        program.append(ComputeInstr(5))
        program.append(MemInstr(AccessType.STORE, (128,), pc=0x18))
        return program

    def test_program_accounting(self):
        program = self._program()
        assert len(program) == 3
        assert program.line_requests == 3
        assert program.vector_ops == 5
        assert len(program.memory_instructions) == 2

    def test_kernel_accounting(self):
        kernel = KernelTrace("k", [self._program(), self._program()])
        assert kernel.num_wavefronts == 2
        assert kernel.line_requests == 6
        assert kernel.load_lines == 4
        assert kernel.store_lines == 2
        assert kernel.touched_lines() == {0, 64, 128}

    def test_workload_footprint(self):
        trace = WorkloadTrace("w", [KernelTrace("k", [self._program()])])
        assert trace.footprint_bytes(64) == 3 * 64
        assert trace.num_kernels == 1
        assert trace.vector_ops == 5

    def test_unique_kernel_names_preserve_order(self):
        trace = WorkloadTrace("w")
        for name in ("gemm", "relu", "gemm", "pool"):
            trace.add_kernel(KernelTrace(name, [self._program()]))
        assert trace.unique_kernel_names == ["gemm", "relu", "pool"]

    def test_summary_fields(self):
        trace = WorkloadTrace("w", [KernelTrace("k", [self._program()])])
        summary = trace.summary()
        assert summary["name"] == "w"
        assert summary["kernels"] == 1
        assert summary["line_requests"] == 3

    def test_invalid_instructions_rejected(self):
        with pytest.raises(ValueError):
            ComputeInstr(0)
        with pytest.raises(ValueError):
            MemInstr(AccessType.LOAD, (), pc=0)
        with pytest.raises(ValueError):
            MemInstr(AccessType.LOAD, (0,), pc=-1)
