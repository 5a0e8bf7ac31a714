"""Memory request primitives.

A :class:`MemoryRequest` is the unit of traffic in the hierarchy: one
cache-line-sized access produced by the per-wavefront coalescer.  Requests
carry the issuing PC (needed by the PC-based reuse predictor), the issuing
CU and wavefront (needed to route the response), and the kernel id (needed
to attribute accesses to synchronization epochs).

Requests are allocated once per line access and touched by every level of
the hierarchy, so the class is slotted (no per-instance ``__dict__``) and
the load/store flags are computed once at construction instead of going
through the :class:`AccessType` enum on every check.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["AccessType", "MemoryRequest"]

_request_ids = itertools.count()


class AccessType(enum.Enum):
    """Kind of memory access."""

    LOAD = "load"
    STORE = "store"

    @property
    def is_load(self) -> bool:
        return self is AccessType.LOAD

    @property
    def is_store(self) -> bool:
        return self is AccessType.STORE


@dataclass(slots=True, init=False)
class MemoryRequest:
    """A single cache-line access travelling through the hierarchy.

    Attributes:
        access: load or store.
        address: byte address of the access (line-aligned by the caches).
        pc: program counter of the memory instruction that produced the
            request; used by the PC-based L2 bypass predictor.
        cu_id: compute unit that issued the request.
        wavefront_id: issuing wavefront (unique across the simulation).
        kernel_id: kernel (synchronization epoch) the request belongs to.
        stream_id: execution stream (tenant) the request belongs to; cache
            lines are tagged with it so kernel-boundary synchronization can
            be scoped to the finishing stream.  Always 0 outside
            multi-stream serving runs.
        issue_cycle: cycle at which the CU issued the request.
        bypass_l1 / bypass_l2: set by the policy engine; a bypassed request
            is forwarded without allocating in that cache.
        converted_bypass: True when the allocation-bypass optimization turned
            a cached request into a bypass request because allocation would
            have blocked.
        on_complete: callback invoked exactly once when the data returns to
            the CU (loads) or the store is accepted by its destination.
        complete_cycle: filled in when the request completes.
        is_load / is_store: derived from ``access`` at construction time so
            hot paths branch on a plain attribute instead of two property
            hops through the enum.
    """

    access: AccessType
    address: int
    pc: int = 0
    cu_id: int = 0
    wavefront_id: int = 0
    kernel_id: int = 0
    stream_id: int = 0
    issue_cycle: int = 0
    size: int = 64
    bypass_l1: bool = False
    bypass_l2: bool = False
    converted_bypass: bool = False
    on_complete: Optional[Callable[["MemoryRequest"], None]] = None
    complete_cycle: Optional[int] = None
    #: unique per request; drawn from a process-wide counter when not given
    req_id: int = -1
    is_load: bool = field(init=False, repr=False, compare=False)
    is_store: bool = field(init=False, repr=False, compare=False)
    #: per-cache completion callbacks keyed by cache name (coalesced
    #: requests each get their own response); a real slot rather than an
    #: ad-hoc attribute so the class stays ``__dict__``-free
    _cache_callbacks: Optional[dict[str, Callable[["MemoryRequest"], None]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # Hand-written rather than generated: requests are built once per line
    # access, and the generated initializer would add a __post_init__ call
    # and a default-factory call to every construction.
    def __init__(
        self,
        access: AccessType,
        address: int,
        pc: int = 0,
        cu_id: int = 0,
        wavefront_id: int = 0,
        kernel_id: int = 0,
        stream_id: int = 0,
        issue_cycle: int = 0,
        size: int = 64,
        bypass_l1: bool = False,
        bypass_l2: bool = False,
        converted_bypass: bool = False,
        on_complete: Optional[Callable[["MemoryRequest"], None]] = None,
        complete_cycle: Optional[int] = None,
        req_id: Optional[int] = None,
    ) -> None:
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.access = access
        self.address = address
        self.pc = pc
        self.cu_id = cu_id
        self.wavefront_id = wavefront_id
        self.kernel_id = kernel_id
        self.stream_id = stream_id
        self.issue_cycle = issue_cycle
        self.size = size
        self.bypass_l1 = bypass_l1
        self.bypass_l2 = bypass_l2
        self.converted_bypass = converted_bypass
        self.on_complete = on_complete
        self.complete_cycle = complete_cycle
        self.req_id = next(_request_ids) if req_id is None else req_id
        self.is_load = is_load = access is AccessType.LOAD
        self.is_store = not is_load
        self._cache_callbacks = None

    def line_address(self, line_bytes: int) -> int:
        """Address of the cache line containing this access."""
        return self.address - (self.address % line_bytes)

    def complete(self, cycle: int) -> None:
        """Mark the request complete and fire its callback (once)."""
        if self.complete_cycle is not None:
            raise RuntimeError(f"request {self.req_id} completed twice")
        self.complete_cycle = cycle
        if self.on_complete is not None:
            self.on_complete(self)

    @property
    def latency(self) -> Optional[int]:
        """Observed round-trip latency in cycles, if completed."""
        if self.complete_cycle is None:
            return None
        return self.complete_cycle - self.issue_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryRequest(id={self.req_id}, {self.access.value}, "
            f"addr=0x{self.address:x}, pc=0x{self.pc:x}, cu={self.cu_id}, "
            f"wf={self.wavefront_id}, k={self.kernel_id})"
        )
