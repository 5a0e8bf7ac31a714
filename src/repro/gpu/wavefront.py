"""Wavefront execution state machine.

A wavefront walks its :class:`~repro.workloads.trace.WavefrontProgram` in
order.  Compute instructions occupy the CU's SIMD resource; memory
instructions issue line requests into the memory hierarchy.  A wavefront may
keep a bounded number of memory instructions in flight
(``max_outstanding_mem_per_wave``); past that it stalls until responses
return -- this is the mechanism by which memory latency that cannot be
hidden turns into lost issue slots and, ultimately, execution time.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.memory.request import MemoryRequest
from repro.workloads.trace import ComputeInstr, MemInstr, WavefrontProgram

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.compute_unit import ComputeUnit

__all__ = ["Wavefront"]


class Wavefront:
    """Runtime state of one wavefront resident on a CU."""

    __slots__ = (
        "wavefront_id",
        "stream_id",
        "program",
        "cu",
        "on_finished",
        "_next_instr",
        "_inflight_mem",
        "_pending_lines",
        "_blocked",
        "_finished",
        "_queue",
        "_at",
        "_instructions",
    )

    def __init__(
        self,
        wavefront_id: int,
        program: WavefrontProgram,
        cu: "ComputeUnit",
        on_finished: Callable[["Wavefront"], None],
        stream_id: int = 0,
    ) -> None:
        self.wavefront_id = wavefront_id
        self.stream_id = stream_id
        self.program = program
        self.cu = cu
        self.on_finished = on_finished
        self._next_instr = 0
        self._inflight_mem = 0
        self._pending_lines: dict[int, int] = {}  # mem-instr index -> lines outstanding
        self._blocked = False
        self._finished = False
        queue = cu.sim.queue
        self._queue = queue
        self._at = queue.at
        self._instructions = program.instructions

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin executing at the current simulation time."""
        self._at[self._queue.now].append(self._issue_next)

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._finished

    def _issue_next(self) -> None:
        if self._finished:
            return
        instructions = self._instructions
        if self._next_instr >= len(instructions):
            self._maybe_finish()
            return
        cu = self.cu
        if self._inflight_mem >= cu.max_outstanding_mem:
            self._blocked = True
            return
        grant = cu.issue_port.grant(self._queue.now)
        instruction = instructions[self._next_instr]
        self._next_instr += 1
        if isinstance(instruction, ComputeInstr):
            self._at[grant].append(partial(self._execute_compute, instruction))
        else:
            self._at[grant].append(partial(self._execute_memory, instruction))

    def _execute_compute(self, instruction: ComputeInstr) -> None:
        cu = self.cu
        now = self._queue.now
        vector_ops = instruction.vector_ops
        end = cu.book_compute(now, vector_ops)
        cu._c_vector_ops.add(vector_ops)
        self._at[end if end > now else now].append(self._issue_next)

    def _execute_memory(self, instruction: MemInstr) -> None:
        cu = self.cu
        now = self._queue.now
        index = self._next_instr - 1
        line_addresses = instruction.line_addresses
        self._pending_lines[index] = len(line_addresses)
        self._inflight_mem += 1
        cu._c_mem_instructions.value += 1
        access = instruction.access
        pc = instruction.pc
        cu_id = cu.cu_id
        stream_id = self.stream_id
        hierarchy_access = cu.hierarchy.access
        # one response callback serves every line of this instruction
        on_response = partial(self._on_response, index)
        for address in line_addresses:
            hierarchy_access(
                cu_id, MemoryRequest(access, address, pc, stream_id, now), on_response
            )
        # keep issuing unless the in-flight window is now full
        if self._inflight_mem < cu.max_outstanding_mem:
            self._at[now + 1].append(self._issue_next)
        else:
            self._blocked = True

    def _on_response(self, index: int, request: MemoryRequest) -> None:
        remaining = self._pending_lines.get(index)
        if remaining is None:
            raise RuntimeError(
                f"wavefront {self.wavefront_id} got a response for an unknown "
                f"memory instruction (index {index})"
            )
        if remaining <= 1:
            del self._pending_lines[index]
            self._inflight_mem -= 1
        else:
            self._pending_lines[index] = remaining - 1
        cu = self.cu
        cu._h_mem_latency[self._queue.now - request.issue_cycle] += 1
        if self._blocked and self._inflight_mem < cu.max_outstanding_mem:
            self._blocked = False
            self._at[self._queue.now].append(self._issue_next)
        elif self._next_instr >= len(self._instructions):
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._finished or self._next_instr < len(self._instructions) or self._inflight_mem > 0:
            return
        self._finished = True
        self.on_finished(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Wavefront(id={self.wavefront_id}, "
            f"instr={self._next_instr}/{len(self._instructions)}, "
            f"inflight={self._inflight_mem})"
        )
