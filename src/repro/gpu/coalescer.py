"""Per-wavefront memory coalescing.

A GPU wavefront executes one memory instruction across all of its lanes at
once; the coalescer merges the per-lane byte addresses into the minimal set
of cache-line requests.  A unit-stride float32 access by a 64-lane wavefront
touches 256 contiguous bytes and therefore coalesces into 4 line requests; a
fully divergent gather touches up to 64 distinct lines.

Workload generators run the coalescer at trace-generation time so the
timing model only ever sees line-level requests -- this both matches how
the real hardware presents traffic to the L1 and keeps simulation fast.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["coalesce_addresses", "strided_lane_addresses", "coalesced_lines_for_stride"]


def coalesce_addresses(lane_addresses: Iterable[int], line_bytes: int = 64) -> tuple[int, ...]:
    """Merge per-lane byte addresses into ordered, distinct line addresses.

    The result preserves first-touch order (the order in which lanes would
    be serviced), which keeps generated DRAM streams deterministic.
    """
    if line_bytes <= 0:
        raise ValueError("line_bytes must be positive")
    seen: dict[int, None] = {}
    for address in lane_addresses:
        if address < 0:
            raise ValueError("lane addresses must be non-negative")
        # dict insertion keeps first-touch order; re-assigning an existing
        # key does not move it, so no membership test is needed
        seen[address - (address % line_bytes)] = None
    if not seen:
        raise ValueError("cannot coalesce an empty address list")
    return tuple(seen)


def strided_lane_addresses(
    base: int, element_bytes: int, stride_elements: int, lanes: int
) -> list[int]:
    """Byte addresses generated by ``lanes`` consecutive work items.

    Lane *i* accesses ``base + i * stride_elements * element_bytes`` -- the
    canonical pattern for elementwise kernels (stride 1) and strided tensor
    walks (stride > 1).
    """
    if element_bytes <= 0 or lanes <= 0:
        raise ValueError("element_bytes and lanes must be positive")
    step = stride_elements * element_bytes
    return [base + i * step for i in range(lanes)]


def coalesced_lines_for_stride(
    base: int,
    element_bytes: int,
    stride_elements: int,
    lanes: int,
    line_bytes: int = 64,
) -> tuple[int, ...]:
    """Lines of a strided run, computed without visiting each lane.

    Equal to ``coalesce_addresses(strided_lane_addresses(...), line_bytes)``
    -- same lines, same first-touch order, same errors.  Consecutive lanes
    move ``step = stride_elements * element_bytes`` bytes, so the lane
    addresses are monotonic: when ``|step| <= line_bytes`` no line in
    between is skipped and the result is every line from the first lane's
    to the last lane's; otherwise every lane lands on a line of its own.
    """
    if element_bytes <= 0 or lanes <= 0:
        raise ValueError("element_bytes and lanes must be positive")
    if line_bytes <= 0:
        raise ValueError("line_bytes must be positive")
    step = stride_elements * element_bytes
    last = base + (lanes - 1) * step
    if min(base, last) < 0:
        raise ValueError("lane addresses must be non-negative")
    if -line_bytes <= step <= line_bytes:
        direction = line_bytes if step > 0 else -line_bytes
        return tuple(
            range(base - base % line_bytes, last - last % line_bytes + direction, direction)
        )
    return tuple(address - address % line_bytes for address in range(base, last + step, step))
