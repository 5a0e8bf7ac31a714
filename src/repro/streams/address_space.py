"""Per-tenant address-space isolation for serving runs.

Workload trace generators each allocate addresses from the bottom of a
private address space, so two independently generated traces overlap
almost completely.  Run concurrently as tenants, they would alias the same
cache lines and *warm each other's caches* -- the opposite of the
interference a serving study measures.  Real tenants live in disjoint
(virtual) address spaces, so before launch every stream's trace is rebased
onto its own aligned region: stream 0 keeps its addresses, stream 1 starts
past stream 0's footprint, and so on.

The rebase offset is aligned to ``alignment`` bytes.  Serving sessions
pass the device-interleave period (``interleave_lines * line_bytes *
num_devices``, or one line outside topology runs), so rebasing never
changes which device a line is homed on relative to its neighbours, and
the one-stream case -- offset 0, trace returned untouched -- stays
bit-identical to a plain run.

Program counters are rebased as well (one disjoint PC region per stream):
the PC-indexed reuse predictor is shared hardware, and unrelated tenants
whose generators happen to emit the same PCs would otherwise train each
other's predictions.  The per-stream stride is a large *odd* constant
rather than a power of two: the predictor folds PCs into a small table
with xor-shifts, and a power-of-two offset collapses to almost nothing
under that fold (streams of equal index parity would alias exactly), so
the stride is chosen to scatter each stream's PCs into a distinct fold
pattern -- residual cross-stream collisions are then incidental table
collisions, like any finite predictor, not systematic identity.
"""

from __future__ import annotations

from typing import Sequence

from repro.workloads.trace import (
    KernelTrace,
    MemInstr,
    WavefrontProgram,
    WorkloadTrace,
)

__all__ = ["isolate_traces", "rebase_trace", "PC_REGION_STRIDE"]

#: per-stream program-counter offset stride (Knuth's multiplicative hash
#: constant: odd, bit-dense, far larger than any generator-emitted PC)
PC_REGION_STRIDE = 2_654_435_761


def _max_line_address(trace: WorkloadTrace) -> int:
    """Highest line address the trace touches (-1 for a pure-compute trace)."""
    highest = -1
    for kernel in trace.kernels:
        for program in kernel.wavefronts:
            for instr in program.memory_instructions:
                top = max(instr.line_addresses)
                if top > highest:
                    highest = top
    return highest


def rebase_trace(trace: WorkloadTrace, offset: int, pc_offset: int = 0) -> WorkloadTrace:
    """``trace`` with every address shifted by ``offset`` (PCs by ``pc_offset``).

    Offsets of zero return the input object unchanged -- the identity that
    keeps single-stream serving runs bit-identical to plain runs.  Device
    tags and workgroup ids survive the rebase untouched.
    """
    if offset == 0 and pc_offset == 0:
        return trace
    if offset < 0 or pc_offset < 0:
        raise ValueError("rebase offsets must be non-negative")
    rebased = WorkloadTrace(name=trace.name)
    for kernel in trace.kernels:
        new_kernel = KernelTrace(name=kernel.name)
        for program in kernel.wavefronts:
            instructions = [
                MemInstr(
                    access=instr.access,
                    line_addresses=tuple(
                        address + offset for address in instr.line_addresses
                    ),
                    pc=instr.pc + pc_offset,
                )
                if isinstance(instr, MemInstr)
                else instr
                for instr in program.instructions
            ]
            new_kernel.add_wavefront(
                WavefrontProgram(
                    instructions=instructions,
                    workgroup_id=program.workgroup_id,
                    device=program.device,
                )
            )
        rebased.add_kernel(new_kernel)
    return rebased


def isolate_traces(
    traces: Sequence[WorkloadTrace], alignment: int
) -> list[WorkloadTrace]:
    """Rebase ``traces`` onto disjoint, ``alignment``-aligned address regions.

    Stream 0 keeps its addresses (offset 0); each later stream starts at
    the first aligned boundary past the previous streams' footprints.
    """
    if alignment < 1:
        raise ValueError(f"alignment must be positive, got {alignment}")
    isolated: list[WorkloadTrace] = []
    next_free = 0
    last = len(traces) - 1
    for index, trace in enumerate(traces):
        offset = -(-next_free // alignment) * alignment if index else 0
        rebased = rebase_trace(trace, offset, pc_offset=index * PC_REGION_STRIDE)
        isolated.append(rebased)
        if index == last:
            # the footprint only places the next stream; the last has none
            break
        top = _max_line_address(rebased)
        if top >= next_free:
            next_free = top + 1
    return isolated
