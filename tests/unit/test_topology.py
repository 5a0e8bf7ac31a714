"""Unit tests for the multi-device topology subsystem.

The property tests here are the acceptance checks of the address
interleaving layer: every cache-line address has exactly one home device,
the (device, local address) mapping is a bijection that round-trips
through the per-device :class:`~repro.memory.address_mapping
.AddressMapping`, and the one-device mapping is the identity of current
behaviour.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import DramConfig
from repro.memory.address_mapping import AddressMapping, DeviceInterleave
from repro.topology import (
    TOPOLOGIES,
    TopologyConfig,
    device_wavefront_counts,
    partition_trace,
    shared_read_only_lines,
    topology_by_name,
)
from repro.workloads.registry import get_workload
from repro.workloads.trace import (
    AccessType,
    KernelTrace,
    MemInstr,
    WavefrontProgram,
    WorkloadTrace,
)

LINE = 64


def _addresses(limit_lines: int = 4096, stride: int = 7):
    """A spread of line-aligned and unaligned byte addresses."""
    for line in range(0, limit_lines, stride):
        yield line * LINE
        yield line * LINE + 17  # unaligned offsets stay within the line


class TestDeviceInterleave:
    @pytest.mark.parametrize("num_devices", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("chunk_lines", [1, 4, 32])
    def test_every_line_has_exactly_one_home(self, num_devices, chunk_lines):
        interleave = DeviceInterleave(num_devices, LINE, chunk_lines)
        for address in _addresses():
            device = interleave.device_of(address)
            assert 0 <= device < num_devices
            # the whole cache line shares the home of its first byte
            line_start = address - address % LINE
            assert interleave.device_of(line_start) == device
            assert interleave.device_of(line_start + LINE - 1) == device

    @pytest.mark.parametrize("num_devices", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("chunk_lines", [1, 4, 32])
    def test_partition_mapping_is_a_bijection(self, num_devices, chunk_lines):
        interleave = DeviceInterleave(num_devices, LINE, chunk_lines)
        seen: set[tuple[int, int]] = set()
        for address in _addresses():
            device = interleave.device_of(address)
            local = interleave.to_local(address)
            assert interleave.to_global(device, local) == address
            if address % LINE == 0:
                pair = (device, local)
                assert pair not in seen, "two lines collapsed onto one partition slot"
                seen.add(pair)

    def test_local_space_is_dense_per_device(self):
        """Each partition's chunks pack densely from local address zero."""
        interleave = DeviceInterleave(4, LINE, chunk_lines=2)
        chunk_bytes = 2 * LINE
        for device in range(4):
            locals_seen = sorted(
                {
                    interleave.to_local(interleave.to_global(device, slot * chunk_bytes))
                    for slot in range(16)
                }
            )
            assert locals_seen == [slot * chunk_bytes for slot in range(16)]

    @pytest.mark.parametrize("chunk_lines", [1, 32])
    def test_round_trips_with_dram_address_mapping(self, chunk_lines):
        """Local addresses land on valid per-device DRAM coordinates and back."""
        config = DramConfig(channels=4, banks_per_channel=4)
        mapping = AddressMapping(config, line_bytes=LINE)
        interleave = DeviceInterleave(2, LINE, chunk_lines)
        for address in range(0, 2048 * LINE, 13 * LINE):
            local = interleave.to_local(address)
            coordinates = mapping.locate(local)
            assert mapping.address_of(coordinates) == local - local % LINE
            device = interleave.device_of(address)
            assert interleave.to_global(device, mapping.address_of(coordinates)) == address

    def test_single_device_mapping_is_the_identity(self):
        interleave = DeviceInterleave(1, LINE, 32)
        for address in _addresses():
            assert interleave.device_of(address) == 0
            assert interleave.to_local(address) == address
            assert interleave.to_global(0, address) == address

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DeviceInterleave(0)
        with pytest.raises(ValueError):
            DeviceInterleave(2, chunk_lines=0)
        interleave = DeviceInterleave(2)
        with pytest.raises(ValueError):
            interleave.device_of(-1)
        with pytest.raises(ValueError):
            interleave.to_global(2, 0)
        with pytest.raises(ValueError):
            interleave.to_global(0, -64)


class TestAddressMappingInverse:
    def test_address_of_inverts_locate(self):
        config = DramConfig(channels=4, banks_per_channel=8)
        mapping = AddressMapping(config, line_bytes=LINE)
        for line in range(0, 5000, 11):
            address = line * LINE
            assert mapping.address_of(mapping.locate(address)) == address

    def test_address_of_rejects_out_of_range_coordinates(self):
        config = DramConfig(channels=2, banks_per_channel=2)
        mapping = AddressMapping(config, line_bytes=LINE)
        good = mapping.locate(0)
        from dataclasses import replace

        with pytest.raises(ValueError):
            mapping.address_of(replace(good, channel=2))
        with pytest.raises(ValueError):
            mapping.address_of(replace(good, bank=2))
        with pytest.raises(ValueError):
            mapping.address_of(replace(good, column=mapping.lines_per_row))


class TestTopologyConfig:
    def test_registry_names_resolve_case_insensitively(self):
        for name in TOPOLOGIES:
            assert topology_by_name(name.upper()).name == name

    def test_unknown_topology_raises(self):
        with pytest.raises(KeyError):
            topology_by_name("hyper-torus")

    def test_fingerprint_ignores_the_display_name(self):
        """A registered topology and ad-hoc identical physics share cells."""
        named = topology_by_name("dual-chiplet")
        anonymous = TopologyConfig(
            num_devices=2, remote_latency_cycles=60, fabric_requests_per_cycle=1.0
        )
        assert named.fingerprint() == anonymous.fingerprint()
        assert named.with_devices(2).fingerprint() == named.fingerprint()

    def test_fingerprint_changes_with_any_knob(self):
        base = TopologyConfig(num_devices=2)
        assert base.fingerprint() == TopologyConfig(num_devices=2).fingerprint()
        for changed in (
            TopologyConfig(num_devices=4),
            TopologyConfig(num_devices=2, interleave_lines=8),
            TopologyConfig(num_devices=2, remote_latency_cycles=42),
            TopologyConfig(num_devices=2, fabric_requests_per_cycle=2.0),
            TopologyConfig(num_devices=2, replicate_weights=True),
        ):
            assert changed.fingerprint() != base.fingerprint()

    def test_payload_names_exactly_the_live_fields(self):
        # no retired knob lingers in the identity and no new one is left
        # out; the display-only name stays out of it
        described = TopologyConfig(num_devices=2).describe()
        assert set(described) == {
            field.name for field in dataclasses.fields(TopologyConfig)
        } - {"name"}

    def test_validation(self):
        with pytest.raises(ValueError):
            TopologyConfig(num_devices=0)
        with pytest.raises(ValueError):
            TopologyConfig(interleave_lines=0)
        with pytest.raises(ValueError):
            TopologyConfig(remote_latency_cycles=-1)
        with pytest.raises(ValueError):
            TopologyConfig(fabric_requests_per_cycle=0.0)

    def test_with_devices_keeps_fabric_and_drops_name(self):
        quad = topology_by_name("quad-gpu").with_devices(2)
        assert quad.num_devices == 2
        assert quad.remote_latency_cycles == 200
        assert quad.name == ""
        assert quad.label == "2dev"


def _trace_with(programs_per_kernel: list[int]) -> WorkloadTrace:
    trace = WorkloadTrace(name="synthetic")
    pc = 0
    for count in programs_per_kernel:
        kernel = KernelTrace(name="k")
        for wavefront in range(count):
            program = WavefrontProgram(workgroup_id=wavefront)
            program.append(
                MemInstr(
                    access=AccessType.LOAD,
                    line_addresses=(wavefront * LINE,),
                    pc=pc,
                )
            )
            pc += 4
            kernel.add_wavefront(program)
        trace.add_kernel(kernel)
    return trace


class TestPartitioner:
    def test_single_device_partition_is_identity(self):
        trace = get_workload("FwSoft", scale=0.05).build_trace()
        assert partition_trace(trace, TopologyConfig(num_devices=1)) is trace

    def test_wavefronts_split_into_balanced_tagged_blocks(self):
        trace = _trace_with([10, 7])
        split = partition_trace(trace, TopologyConfig(num_devices=4))
        assert split.num_kernels == 2
        counts = device_wavefront_counts(split)
        assert counts == {0: 3 + 2, 1: 3 + 2, 2: 2 + 2, 3: 2 + 1}
        # per-kernel blocks are contiguous and in device order
        for kernel in split.kernels:
            devices = [program.device for program in kernel.wavefronts]
            assert devices == sorted(devices)

    def test_partition_preserves_instruction_totals(self):
        trace = get_workload("SGEMM", scale=0.1).build_trace()
        split = partition_trace(trace, TopologyConfig(num_devices=2))
        assert split.line_requests == trace.line_requests
        assert split.vector_ops == trace.vector_ops
        assert split.num_kernels == trace.num_kernels

    def test_shared_read_only_lines_excludes_stored_lines(self):
        trace = WorkloadTrace(name="s")
        kernel = KernelTrace(name="k")
        # two wavefronts (one per device) load line 0; the second also
        # stores line 64, and both load line 64 -> only line 0 is weightish
        w0 = WavefrontProgram()
        w0.append(MemInstr(AccessType.LOAD, (0, 64), pc=0))
        w1 = WavefrontProgram()
        w1.append(MemInstr(AccessType.LOAD, (0, 64), pc=4))
        w1.append(MemInstr(AccessType.STORE, (64,), pc=8))
        kernel.add_wavefront(w0)
        kernel.add_wavefront(w1)
        trace.add_kernel(kernel)
        assert shared_read_only_lines(trace, num_devices=2) == {0}

    def test_replicated_weights_localize_shared_lines(self):
        topology = TopologyConfig(num_devices=2, replicate_weights=True, interleave_lines=1)
        trace = WorkloadTrace(name="r")
        kernel = KernelTrace(name="k")
        for _ in range(2):
            program = WavefrontProgram()
            program.append(MemInstr(AccessType.LOAD, (0,), pc=0))
            kernel.add_wavefront(program)
        trace.add_kernel(kernel)
        split = partition_trace(trace, topology)
        interleave = DeviceInterleave(2, LINE, 1)
        for program in split.kernels[0].wavefronts:
            (instr,) = program.memory_instructions
            (address,) = instr.line_addresses
            assert address != 0, "shared read-only line was not replicated"
            assert interleave.device_of(address) == program.device

    def test_replicas_do_not_collide_with_trace_addresses(self):
        topology = TopologyConfig(num_devices=2, replicate_weights=True)
        trace = get_workload("DGEMM", scale=0.2).build_trace()
        original = {
            address
            for kernel in trace.kernels
            for program in kernel.wavefronts
            for instr in program.memory_instructions
            for address in instr.line_addresses
        }
        split = partition_trace(trace, topology)
        shared = shared_read_only_lines(trace, 2)
        replicas = {
            address
            for kernel in split.kernels
            for program in kernel.wavefronts
            for instr in program.memory_instructions
            for address in instr.line_addresses
        } - original
        if shared:  # DGEMM reuses its weight matrix across wavefronts
            assert replicas, "replication mode produced no replica addresses"
        assert not replicas & original
