"""Tests for the layer trace builders and the ProgramBuilder utilities."""

from __future__ import annotations

import pytest

from repro.memory.request import AccessType
from repro.workloads.layers.common import PcAllocator, ProgramBuilder, chunks
from repro.workloads.layers.elementwise import elementwise_kernel
from repro.workloads.layers.gemm import fully_connected_forward_kernel, gemm_kernel
from repro.workloads.layers.normalization import (
    batchnorm_backward_kernel,
    batchnorm_forward_kernel,
    lrn_forward_kernel,
)
from repro.workloads.layers.pooling import pool_backward_kernel, pool_forward_kernel
from repro.workloads.layers.rnn_cell import (
    rnn_backward_kernel,
    rnn_gate_kernel,
    rnn_pointwise_kernel,
)
from repro.workloads.layers.softmax import softmax_forward_kernel
from repro.workloads.tensor import AddressSpace


class TestChunksAndPcs:
    def test_chunks_cover_range_exactly(self):
        pieces = list(chunks(130, 64))
        assert pieces == [(0, 64), (64, 64), (128, 2)]
        assert sum(count for _start, count in pieces) == 130

    def test_chunks_reject_bad_size(self):
        with pytest.raises(ValueError):
            list(chunks(10, 0))

    def test_pc_allocator_is_stable_per_site(self):
        pcs = PcAllocator(base=0x100)
        first = pcs.pc("load_x")
        second = pcs.pc("store_y")
        assert pcs.pc("load_x") == first
        assert second == first + 8
        assert set(pcs.sites()) == {"load_x", "store_y"}


class TestProgramBuilder:
    def test_load_coalesces_contiguous_elements(self):
        space = AddressSpace()
        x = space.allocate("x", 1024)
        builder = ProgramBuilder(PcAllocator())
        builder.load("load_x", x, 0, 64)
        program = builder.build()
        assert len(program.memory_instructions) == 1
        assert len(program.memory_instructions[0].line_addresses) == 4

    def test_counts_larger_than_wavefront_split(self):
        space = AddressSpace()
        x = space.allocate("x", 4096)
        builder = ProgramBuilder(PcAllocator())
        builder.load("load_x", x, 0, 200)
        program = builder.build()
        assert len(program.memory_instructions) == 4  # ceil(200/64)
        pcs = {instr.pc for instr in program.memory_instructions}
        assert len(pcs) == 1  # same static site

    def test_store_and_compute_emission(self):
        space = AddressSpace()
        y = space.allocate("y", 256)
        builder = ProgramBuilder(PcAllocator())
        builder.compute(7).store("store_y", y, 0, 64)
        program = builder.build()
        assert program.vector_ops == 7
        assert program.memory_instructions[0].is_store

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            ProgramBuilder(PcAllocator()).build()

    def test_zero_count_rejected(self):
        space = AddressSpace()
        x = space.allocate("x", 64)
        with pytest.raises(ValueError):
            ProgramBuilder(PcAllocator()).load("l", x, 0, 0)


class TestElementwiseKernel:
    def test_streaming_reads_and_writes_every_element_once(self):
        space = AddressSpace()
        x = space.allocate("x", 4096)
        y = space.allocate("y", 4096)
        kernel = elementwise_kernel("relu", [x], [y], 4096, elements_per_wavefront=512)
        assert kernel.num_wavefronts == 8
        assert kernel.load_lines == 4096 // 16
        assert kernel.store_lines == 4096 // 16
        # no element is touched twice
        assert len(kernel.touched_lines()) == kernel.line_requests

    def test_multiple_inputs_increase_read_ratio(self):
        space = AddressSpace()
        x = space.allocate("x", 1024)
        dy = space.allocate("dy", 1024)
        dx = space.allocate("dx", 1024)
        kernel = elementwise_kernel("relu_bwd", [x, dy], [dx], 1024, 512)
        assert kernel.load_lines == 2 * kernel.store_lines


class TestNormalizationKernels:
    def test_batchnorm_forward_reads_input_twice(self):
        space = AddressSpace()
        x = space.allocate("x", 2048)
        y = space.allocate("y", 2048)
        params = space.allocate("params", 64)
        kernel = batchnorm_forward_kernel("bn", x, y, params, 2048, 512, channels=16)
        # two passes over x plus the parameter loads
        assert kernel.load_lines > 2 * (2048 // 16)
        assert kernel.store_lines == 2048 // 16

    def test_batchnorm_backward_has_partial_sum_stores(self):
        space = AddressSpace()
        x = space.allocate("x", 2048)
        dy = space.allocate("dy", 2048)
        dx = space.allocate("dx", 2048)
        params = space.allocate("params", 64)
        partials = space.allocate("partials", 64)
        kernel = batchnorm_backward_kernel("bnb", x, dy, dx, params, partials, 2048, 512, 16)
        partial_lines = {
            addr
            for wave in kernel.wavefronts
            for instr in wave.memory_instructions
            if instr.is_store
            for addr in instr.line_addresses
            if partials.base_address <= addr < partials.end_address
        }
        partial_stores = sum(
            1
            for wave in kernel.wavefronts
            for instr in wave.memory_instructions
            if instr.is_store and instr.line_addresses[0] in partial_lines
        )
        # many stores target the same small set of partial-sum lines
        assert partial_stores > len(partial_lines)

    def test_lrn_is_pure_streaming(self):
        space = AddressSpace()
        x = space.allocate("x", 2048)
        scale = space.allocate("scale", 2048)
        y = space.allocate("y", 2048)
        kernel = lrn_forward_kernel("lrn", x, scale, y, 2048, 512)
        assert len(kernel.touched_lines()) == kernel.line_requests


class TestPoolingKernels:
    def test_forward_pool_has_vertical_window_reuse(self):
        space = AddressSpace()
        x = space.allocate("x", 64 * 64)
        y = space.allocate("y", 31 * 31)
        kernel = pool_forward_kernel("pool", x, y, 64, 64, rows_per_wavefront=4)
        # overlapping window rows mean some input lines are loaded twice
        assert kernel.load_lines > len(
            {a for w in kernel.wavefronts for i in w.memory_instructions if i.is_load for a in i.line_addresses}
        )

    def test_backward_pool_is_store_heavy_with_overlap(self):
        space = AddressSpace()
        out = 31 * 31
        dy = space.allocate("dy", out)
        mask = space.allocate("mask", out)
        dx = space.allocate("dx", 64 * 64)
        kernel = pool_backward_kernel("poolb", dy, mask, dx, 64, 64, rows_per_wavefront=4)
        assert kernel.store_lines > kernel.load_lines
        distinct_store_lines = {
            a for w in kernel.wavefronts for i in w.memory_instructions if i.is_store for a in i.line_addresses
        }
        assert kernel.store_lines > len(distinct_store_lines)

    def test_window_must_fit_plane(self):
        space = AddressSpace()
        x = space.allocate("x", 16)
        y = space.allocate("y", 16)
        with pytest.raises(ValueError):
            pool_forward_kernel("bad", x, y, in_width=2, in_height=2)


class TestSoftmaxKernel:
    def test_three_read_passes_one_write_pass(self):
        space = AddressSpace()
        x = space.allocate("x", 2048)
        y = space.allocate("y", 2048)
        kernel = softmax_forward_kernel("softmax", x, y, 2048, 1024)
        assert kernel.load_lines == 3 * (2048 // 16)
        assert kernel.store_lines == 2048 // 16


class TestGemmKernels:
    def test_gemm_covers_all_tiles(self):
        space = AddressSpace()
        m, n, k = 128, 128, 64
        a = space.allocate("A", m * k)
        b = space.allocate("Bt", n * k)
        c = space.allocate("C", m * n)
        kernel = gemm_kernel("gemm", a, b, c, m, n, k, tile_m=64, tile_n=64, waves_per_workgroup=2)
        assert kernel.num_wavefronts == 4 * 2  # 2x2 tiles, 2 waves each
        assert kernel.store_lines == m * n // 16

    def test_gemm_shares_b_tiles_across_workgroup_rows(self):
        space = AddressSpace()
        m, n, k = 256, 64, 64
        a = space.allocate("A", m * k)
        b = space.allocate("Bt", n * k)
        c = space.allocate("C", m * n)
        kernel = gemm_kernel("gemm", a, b, c, m, n, k)
        b_lines = {
            addr
            for w in kernel.wavefronts
            for i in w.memory_instructions
            if i.is_load
            for addr in i.line_addresses
            if b.base_address <= addr < b.end_address
        }
        b_loads = sum(
            sum(1 for addr in i.line_addresses if b.base_address <= addr < b.end_address)
            for w in kernel.wavefronts
            for i in w.memory_instructions
            if i.is_load
        )
        assert b_loads > len(b_lines)  # the B tile is re-read by later tile rows

    def test_gemm_validates_tensor_sizes(self):
        space = AddressSpace()
        a = space.allocate("A", 16)
        b = space.allocate("Bt", 16)
        c = space.allocate("C", 16)
        with pytest.raises(ValueError):
            gemm_kernel("bad", a, b, c, m=64, n=64, k=64)

    def test_fully_connected_rereads_weights_per_batch_tile(self):
        space = AddressSpace()
        batch, in_f, out_f = 128, 64, 64
        x = space.allocate("x", batch * in_f)
        w = space.allocate("w", out_f * in_f)
        y = space.allocate("y", batch * out_f)
        kernel = fully_connected_forward_kernel("fc", x, w, y, batch, in_f, out_f, batch_tile=64)
        weight_loads = sum(
            sum(1 for addr in i.line_addresses if w.base_address <= addr < w.end_address)
            for wave in kernel.wavefronts
            for i in wave.memory_instructions
            if i.is_load
        )
        assert weight_loads >= 2 * (out_f * in_f * 4 // 64)  # read once per batch tile


class TestRnnKernels:
    def test_gate_kernel_streams_weights_and_shares_state(self):
        space = AddressSpace()
        hidden, gates = 32, 4
        weights = space.allocate("w", gates * hidden * 2 * hidden)
        state = space.allocate("state", 2 * hidden)
        gate_out = space.allocate("gates", gates * hidden)
        kernel = rnn_gate_kernel("gemv", weights, state, gate_out, hidden, gates)
        assert kernel.num_wavefronts == (gates * hidden + 63) // 64
        state_lines = {
            addr
            for w in kernel.wavefronts
            for i in w.memory_instructions
            for addr in i.line_addresses
            if state.base_address <= addr < state.end_address
        }
        assert state_lines  # every wavefront reads the shared state

    def test_pointwise_kernel_rereads_gates(self):
        space = AddressSpace()
        hidden, gates = 64, 4
        gate_t = space.allocate("gates", gates * hidden)
        cell = space.allocate("cell", hidden)
        hidden_t = space.allocate("hidden", hidden)
        kernel = rnn_pointwise_kernel("pw", gate_t, cell, hidden_t, hidden, gates, gate_passes=3)
        distinct = {
            a for w in kernel.wavefronts for i in w.memory_instructions if i.is_load for a in i.line_addresses
        }
        assert kernel.load_lines > len(distinct)

    def test_backward_kernel_accumulates_weight_gradients(self):
        space = AddressSpace()
        hidden, gates = 32, 4
        weights = space.allocate("w", gates * hidden * 2 * hidden)
        saved = space.allocate("saved", gates * hidden)
        grad_state = space.allocate("gs", 2 * hidden)
        grad_w = space.allocate("gw", 256)
        kernel = rnn_backward_kernel("bwd", weights, saved, grad_state, grad_w, hidden, gates)
        assert kernel.store_lines > 0
        assert kernel.load_lines > kernel.store_lines
