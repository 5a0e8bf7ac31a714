"""Memory request primitives.

A :class:`MemoryRequest` is the unit of traffic in the hierarchy: one
cache-line-sized access produced by the per-wavefront coalescer.  Requests
carry the issuing PC (needed by the PC-based reuse predictor) and the
issuing stream (needed to tag the lines a stream dirties).  Responses do
not travel on the request: every level answers through the ``on_done``
callback it was handed with the request.

Requests are allocated once per line access and touched by every level of
the hierarchy, so the class is slotted (no per-instance ``__dict__``) and
the load/store flags are computed once at construction instead of going
through the :class:`AccessType` enum on every check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["AccessType", "MemoryRequest"]


class AccessType(enum.Enum):
    """Kind of memory access."""

    LOAD = "load"
    STORE = "store"


@dataclass(slots=True, init=False, eq=False)
class MemoryRequest:
    """A single cache-line access travelling through the hierarchy.

    Attributes:
        access: load or store.
        address: byte address of the access (line-aligned by the caches).
        pc: program counter of the memory instruction that produced the
            request; used by the PC-based L2 bypass predictor.
        stream_id: execution stream (tenant) the request belongs to; cache
            lines are tagged with it so kernel-boundary synchronization can
            be scoped to the finishing stream.  Always 0 outside
            multi-stream serving runs.
        issue_cycle: cycle at which the CU issued the request; the CU's
            memory-latency histogram reads it when the response arrives.
        bypass_l1 / bypass_l2: set by the policy engine; a bypassed request
            is forwarded without allocating in that cache.
        is_load / is_store: derived from ``access`` at construction time so
            hot paths branch on a plain attribute instead of comparing the
            enum on every check.
    """

    access: AccessType
    address: int
    pc: int
    stream_id: int
    issue_cycle: int
    bypass_l1: bool
    bypass_l2: bool
    is_load: bool
    is_store: bool

    # Hand-written rather than generated: requests are built once per line
    # access, and a generated initializer would need a __post_init__ call
    # on every construction to derive the load/store flags.
    def __init__(
        self,
        access: AccessType,
        address: int,
        pc: int = 0,
        stream_id: int = 0,
        issue_cycle: int = 0,
        bypass_l1: bool = False,
        bypass_l2: bool = False,
    ) -> None:
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        self.access = access
        self.address = address
        self.pc = pc
        self.stream_id = stream_id
        self.issue_cycle = issue_cycle
        self.bypass_l1 = bypass_l1
        self.bypass_l2 = bypass_l2
        self.is_load = is_load = access is AccessType.LOAD
        self.is_store = not is_load

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryRequest({self.access.value}, addr=0x{self.address:x}, "
            f"pc=0x{self.pc:x}, stream={self.stream_id})"
        )
