"""Physical address to DRAM coordinate mapping.

The mapping interleaves consecutive cache lines across channels first (to
spread bandwidth), then fills the columns of one row within a bank, then
moves to the next bank.  This is the standard GPU/HBM style mapping: a
sequential stream of lines touches every channel, stays within one row per
bank for ``lines_per_row`` lines, and therefore enjoys high row-buffer
locality -- exactly the property that the paper observes caching can
disrupt.

For multi-device topologies (:mod:`repro.topology`) a second layer sits on
top: :class:`DeviceInterleave` shards the global line space across device
DRAM partitions in fixed-size chunks.  Every global address has exactly
one home device and one *local* address within that device's partition;
the local address is what the device's own :class:`AddressMapping` (and
its L2 slice) operates on.  The mapping is a bijection --
``to_global(device_of(a), to_local(a)) == a`` for every address -- and
with one device it degenerates to the identity, which is what keeps the
one-device topology bit-identical to the plain hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DramConfig

__all__ = ["DramCoordinates", "AddressMapping", "DeviceInterleave"]


@dataclass(frozen=True)
class DramCoordinates:
    """Location of one cache line in the DRAM system."""

    channel: int
    bank: int
    row: int
    column: int

    def global_bank(self, banks_per_channel: int) -> int:
        """Bank id unique across channels."""
        return self.channel * banks_per_channel + self.bank


class AddressMapping:
    """Maps byte addresses to (channel, bank, row, column) coordinates."""

    def __init__(self, config: DramConfig, line_bytes: int = 64) -> None:
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        if config.row_bytes % line_bytes != 0:
            raise ValueError("row_bytes must be a multiple of line_bytes")
        self.config = config
        self.line_bytes = line_bytes
        self.lines_per_row = config.row_bytes // line_bytes
        self._channels = config.channels
        self._banks = config.banks_per_channel

    def split(self, address: int) -> tuple[int, int, int, int]:
        """``(channel, bank, row, column)`` of the line containing ``address``.

        The same arithmetic as :meth:`locate` as a plain tuple: the DRAM
        access path calls this once per request and has no use for a
        frozen coordinates object.
        """
        if address < 0:
            raise ValueError("address must be non-negative")
        channels = self._channels
        banks = self._banks
        lines_per_row = self.lines_per_row
        line_index = address // self.line_bytes
        rest = line_index // channels
        bank_row = rest // lines_per_row
        return line_index % channels, bank_row % banks, bank_row // banks, rest % lines_per_row

    def locate(self, address: int) -> DramCoordinates:
        """Coordinates of the line containing ``address``."""
        return DramCoordinates(*self.split(address))

    def address_of(self, coordinates: DramCoordinates) -> int:
        """Line address at ``coordinates`` (the inverse of :meth:`locate`).

        ``locate(address_of(c)) == c`` for any in-range coordinates, and
        ``address_of(locate(a))`` recovers the line address of ``a``.  The
        topology property tests use this to prove that the device
        partition mapping round-trips through the DRAM mapping.
        """
        for field_name in ("channel", "bank", "column"):
            if getattr(coordinates, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
        if coordinates.channel >= self.config.channels:
            raise ValueError(f"channel {coordinates.channel} out of range")
        if coordinates.bank >= self.config.banks_per_channel:
            raise ValueError(f"bank {coordinates.bank} out of range")
        if coordinates.column >= self.lines_per_row:
            raise ValueError(f"column {coordinates.column} out of range")
        if coordinates.row < 0:
            raise ValueError("row must be non-negative")
        rest = (
            coordinates.row * self.config.banks_per_channel + coordinates.bank
        ) * self.lines_per_row + coordinates.column
        return (rest * self.config.channels + coordinates.channel) * self.line_bytes

    def row_id(self, address: int) -> int:
        """A globally unique identifier for the DRAM row holding ``address``.

        Used by the dirty-block index: two line addresses share a row id if
        and only if they live in the same row of the same bank of the same
        channel, so rinsing them together produces consecutive row hits.
        """
        channel, bank, row, _column = self.split(address)
        return (row * self._banks + bank) * self._channels + channel


class DeviceInterleave:
    """Shards the global line address space across device DRAM partitions.

    Consecutive chunks of ``chunk_lines`` cache lines are homed on
    consecutive devices round-robin; within its home partition a chunk
    occupies the next free chunk slot, so each device sees a dense local
    address space starting at zero.  All three operations are O(1)
    arithmetic and the mapping is a bijection between global addresses and
    (device, local address) pairs.

    Args:
        num_devices: number of DRAM partitions.
        line_bytes: cache line size.
        chunk_lines: cache lines per interleave chunk
            (:attr:`repro.topology.config.TopologyConfig.interleave_lines`).
    """

    __slots__ = ("num_devices", "line_bytes", "chunk_lines", "_chunk_bytes")

    def __init__(self, num_devices: int, line_bytes: int = 64, chunk_lines: int = 32) -> None:
        if num_devices < 1:
            raise ValueError(f"num_devices must be positive, got {num_devices}")
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        if chunk_lines < 1:
            raise ValueError("chunk_lines must be positive")
        self.num_devices = num_devices
        self.line_bytes = line_bytes
        self.chunk_lines = chunk_lines
        self._chunk_bytes = line_bytes * chunk_lines

    def device_of(self, address: int) -> int:
        """Home device of the cache line containing ``address``."""
        if address < 0:
            raise ValueError("address must be non-negative")
        return (address // self._chunk_bytes) % self.num_devices

    def to_local(self, address: int) -> int:
        """Address of ``address`` within its home device's partition."""
        if address < 0:
            raise ValueError("address must be non-negative")
        chunk, offset = divmod(address, self._chunk_bytes)
        return (chunk // self.num_devices) * self._chunk_bytes + offset

    def to_global(self, device: int, local_address: int) -> int:
        """Global address of ``local_address`` in ``device``'s partition."""
        if not (0 <= device < self.num_devices):
            raise ValueError(f"device {device} out of range (have {self.num_devices})")
        if local_address < 0:
            raise ValueError("local_address must be non-negative")
        chunk, offset = divmod(local_address, self._chunk_bytes)
        return (chunk * self.num_devices + device) * self._chunk_bytes + offset

    def global_row_id(self, mapping: AddressMapping, address: int) -> int:
        """Globally-unique DRAM row id of a *global* address.

        Resolves ``address`` to its home partition, takes the local row id
        under that partition's ``mapping`` (partitions share one geometry),
        and tags it with the device so rows on different devices never
        collide.  The single definition of the multi-device row formula --
        used by both the hierarchy and the session-level policy engine.
        """
        device = self.device_of(address)
        return mapping.row_id(self.to_local(address)) * self.num_devices + device

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceInterleave(devices={self.num_devices}, "
            f"chunk={self.chunk_lines}x{self.line_bytes}B)"
        )
