"""Tensor layout and address-space allocation for trace generation.

Workload generators describe their data as :class:`Tensor` objects placed in
a shared :class:`AddressSpace`.  Tensors are laid out contiguously (row
major) and aligned to DRAM row boundaries so that distinct tensors never
share a DRAM row -- which keeps the row-locality behaviour of the generated
streams interpretable (interleaving between tensors is a property of the
access schedule, not of accidental layout overlap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = ["Tensor", "AddressSpace"]


@dataclass
class Tensor:
    """A contiguous array of fixed-size elements at a base address."""

    name: str
    num_elements: int
    element_bytes: int
    base_address: int

    def __post_init__(self) -> None:
        if self.num_elements <= 0:
            raise ValueError(f"tensor {self.name!r} must have a positive element count")
        if self.element_bytes <= 0:
            raise ValueError(f"tensor {self.name!r} must have positive element size")
        if self.base_address < 0:
            raise ValueError(f"tensor {self.name!r} must have a non-negative base address")

    @property
    def size_bytes(self) -> int:
        return self.num_elements * self.element_bytes

    @property
    def end_address(self) -> int:
        return self.base_address + self.size_bytes

    def address_of(self, index: int) -> int:
        """Byte address of element ``index`` (supports wrap-around indexing)."""
        wrapped = index % self.num_elements
        return self.base_address + wrapped * self.element_bytes

    def view(self, start_element: int, num_elements: int, name: str | None = None) -> "Tensor":
        """A sub-tensor aliasing ``num_elements`` elements from ``start_element``.

        Used by multi-head layers to address one head's slice of a packed
        tensor (the view shares the parent's storage; no new allocation).
        """
        if start_element < 0 or num_elements <= 0:
            raise ValueError("view bounds must be positive and within the tensor")
        if start_element + num_elements > self.num_elements:
            raise ValueError(
                f"view [{start_element}, {start_element + num_elements}) exceeds "
                f"tensor {self.name!r} of {self.num_elements} elements"
            )
        return Tensor(
            name=name or f"{self.name}[{start_element}:{start_element + num_elements}]",
            num_elements=num_elements,
            element_bytes=self.element_bytes,
            base_address=self.base_address + start_element * self.element_bytes,
        )

    def lines(self, line_bytes: int = 64) -> int:
        """Number of cache lines this tensor spans."""
        return (self.size_bytes + line_bytes - 1) // line_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tensor({self.name!r}, {self.num_elements}x{self.element_bytes}B "
            f"@0x{self.base_address:x})"
        )


@dataclass
class AddressSpace:
    """Bump allocator that places tensors on aligned, non-overlapping ranges."""

    alignment: int = 4096
    _cursor: int = 0
    tensors: list[Tensor] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.alignment <= 0:
            raise ValueError("alignment must be positive")

    def allocate(self, name: str, num_elements: int, element_bytes: int = 4) -> Tensor:
        """Allocate a new tensor after the previously allocated ones."""
        base = self._align(self._cursor)
        tensor = Tensor(
            name=name,
            num_elements=num_elements,
            element_bytes=element_bytes,
            base_address=base,
        )
        self._cursor = tensor.end_address
        self.tensors.append(tensor)
        return tensor

    def total_bytes(self) -> int:
        """Total bytes spanned by all allocations (footprint upper bound)."""
        return sum(t.size_bytes for t in self.tensors)

    def overlapping(self) -> list[tuple[str, str]]:
        """Pairs of tensors whose address ranges overlap (should be empty)."""
        conflicts: list[tuple[str, str]] = []
        ordered = sorted(self.tensors, key=lambda t: t.base_address)
        for first, second in zip(ordered, ordered[1:]):
            if first.end_address > second.base_address:
                conflicts.append((first.name, second.name))
        return conflicts

    def _align(self, address: int) -> int:
        remainder = address % self.alignment
        if remainder == 0:
            return address
        return address + (self.alignment - remainder)
