"""Property tests: arithmetic line emission equals per-lane coalescing.

Trace builders emit each strided memory instruction's line tuple
arithmetically (:func:`coalesced_lines_for_stride`) instead of computing
and coalescing one address per lane.  These properties pin that shortcut to
the per-lane definition it replaces: the same lines in the same first-touch
order, and the same ``ValueError`` wherever the per-lane path raises.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu.coalescer import (
    coalesce_addresses,
    coalesced_lines_for_stride,
    strided_lane_addresses,
)
from repro.memory.request import AccessType
from repro.workloads.layers.common import PcAllocator, ProgramBuilder, chunks
from repro.workloads.tensor import Tensor
from repro.workloads.trace import MemInstr

PROPERTY = settings(max_examples=400, deadline=None)

ELEMENT_BYTES = st.sampled_from([1, 2, 4, 8, 12])
STRIDES = st.integers(min_value=-3, max_value=70)
LINE_BYTES = st.sampled_from([32, 64, 128])


def per_lane_lines(base, element_bytes, stride, lanes, line_bytes):
    """The per-lane definition: every lane's address, then coalesce."""
    return coalesce_addresses(
        strided_lane_addresses(base, element_bytes, stride, lanes), line_bytes
    )


def outcome(function, *args):
    """``("ok", result)`` or ``("error", message)`` of ``function(*args)``."""
    try:
        return ("ok", function(*args))
    except ValueError as error:
        return ("error", str(error))


class TestCoalescedLinesForStride:
    @PROPERTY
    @given(
        base=st.integers(min_value=-600, max_value=1 << 20),
        element_bytes=ELEMENT_BYTES,
        stride=STRIDES,
        lanes=st.integers(min_value=1, max_value=64),
        line_bytes=LINE_BYTES,
    )
    @example(base=0, element_bytes=4, stride=0, lanes=64, line_bytes=64)
    @example(base=100, element_bytes=8, stride=-3, lanes=5, line_bytes=32)
    @example(base=100, element_bytes=8, stride=-3, lanes=6, line_bytes=32)
    @example(base=-1, element_bytes=1, stride=1, lanes=1, line_bytes=64)
    @example(base=60, element_bytes=12, stride=5, lanes=64, line_bytes=64)
    def test_matches_per_lane_coalescing(self, base, element_bytes, stride, lanes, line_bytes):
        args = (base, element_bytes, stride, lanes, line_bytes)
        assert outcome(coalesced_lines_for_stride, *args) == outcome(per_lane_lines, *args)

    @pytest.mark.parametrize(
        "args",
        [
            (0, 0, 1, 64, 64),  # element_bytes
            (0, -4, 1, 64, 64),
            (0, 4, 1, 0, 64),  # lanes
            (0, 4, 1, -1, 64),
            (0, 4, 1, 64, 0),  # line_bytes
            (0, 4, 1, 64, -64),
            (8, 4, -1, 4, 64),  # last lane below zero
        ],
    )
    def test_rejects_what_per_lane_rejects(self, args):
        expected = outcome(per_lane_lines, *args)
        assert expected[0] == "error"
        assert outcome(coalesced_lines_for_stride, *args) == expected


def per_lane_access(builder, site, access, tensor, start, count, stride):
    """The per-lane reference for :meth:`ProgramBuilder.access`."""
    pc = builder.pcs.pc(site)
    for offset, lanes in chunks(count, builder.wavefront_size):
        addresses = [
            tensor.address_of(start + (offset + lane) * stride) for lane in range(lanes)
        ]
        lines = coalesce_addresses(addresses, builder.line_bytes)
        builder.program.append(MemInstr(access=access, line_addresses=lines, pc=pc))


class TestProgramBuilderAccess:
    @PROPERTY
    @given(
        num_elements=st.integers(min_value=1, max_value=400),
        element_bytes=ELEMENT_BYTES,
        base_address=st.integers(min_value=0, max_value=1 << 16),
        start=st.integers(min_value=-500, max_value=1500),
        count=st.integers(min_value=1, max_value=300),
        stride=STRIDES,
        wavefront_size=st.sampled_from([16, 32, 64]),
        line_bytes=LINE_BYTES,
        access=st.sampled_from([AccessType.LOAD, AccessType.STORE]),
    )
    # chunks that wrap past the tensor's end, forwards and backwards
    @example(
        num_elements=100, element_bytes=4, base_address=4096, start=90, count=20,
        stride=1, wavefront_size=64, line_bytes=64, access=AccessType.LOAD,
    )
    @example(
        num_elements=100, element_bytes=4, base_address=4096, start=5, count=20,
        stride=-1, wavefront_size=64, line_bytes=64, access=AccessType.STORE,
    )
    # a chunk lying wholly in a later pass over the tensor
    @example(
        num_elements=64, element_bytes=8, base_address=0, start=200, count=40,
        stride=1, wavefront_size=32, line_bytes=128, access=AccessType.LOAD,
    )
    def test_matches_per_lane_reference(
        self, num_elements, element_bytes, base_address, start, count, stride,
        wavefront_size, line_bytes, access,
    ):
        tensor = Tensor("t", num_elements, element_bytes, base_address)
        fast = ProgramBuilder(PcAllocator(), wavefront_size=wavefront_size, line_bytes=line_bytes)
        reference = ProgramBuilder(
            PcAllocator(), wavefront_size=wavefront_size, line_bytes=line_bytes
        )
        fast.access("site", access, tensor, start, count, stride)
        per_lane_access(reference, "site", access, tensor, start, count, stride)
        assert fast.program.instructions == reference.program.instructions
