"""Assembly of the GPU memory hierarchy.

``MemoryHierarchy`` wires the per-CU L1 data caches, the shared banked GPU
L2, the host directory and the DRAM system together according to a
:class:`~repro.core.policy_engine.PolicyEngine`, and provides the two
operations the GPU model needs:

* :meth:`access` -- issue one coalesced line request from a CU.
* :meth:`kernel_boundary` -- perform the synchronization actions the paper's
  coherence protocol requires at kernel boundaries: self-invalidate valid
  (clean) data in the GPU caches and flush dirty L2 data to memory before
  the next kernel may start.  In a multi-tenant serving run the boundary
  is *stream-scoped*: cache lines are tagged with the execution stream
  that allocated them, and only the finishing stream's lines are
  invalidated/flushed, so tenant A's kernel boundary never evicts tenant
  B's working set.

With a multi-device :class:`~repro.topology.config.TopologyConfig` the
same class assembles a NUMA system instead: every device owns one L2
slice, one directory and one DRAM partition, cache lines are interleaved
across the partitions (:class:`~repro.memory.address_mapping
.DeviceInterleave`), and a request whose home slice is on another device
crosses a directed fabric link that adds the topology's remote latency and
contends for its bandwidth.  L2 slices operate on *local* partition
addresses (so slice sets and DRAM coordinates stay dense per device);
requests are re-addressed once at the L1-to-slice boundary.  Under a
rinsing policy every slice owns its dirty-block index, keyed by its own
DRAM partition's rows, so row ids never alias across devices.  The
one-device topology takes the exact wiring of the plain hierarchy --
same component names, same callbacks, no fabric, no re-addressing -- which
is what makes it bit-identical (enforced by
``tests/integration/test_core_equivalence.py``).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.config import SystemConfig
from repro.core.dirty_block_index import DirtyBlockIndex
from repro.engine import Simulator
from repro.memory.address_mapping import DeviceInterleave
from repro.memory.cache import Cache
from repro.memory.directory import Directory
from repro.memory.dram import DramSystem
from repro.memory.interconnect import Link
from repro.memory.request import MemoryRequest
from repro.stats import StatsCollector
from repro.topology.config import TopologyConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.policy_engine import PolicyEngine

__all__ = ["MemoryHierarchy"]


class MemoryHierarchy:
    """The GPU-side cache hierarchy plus the path to memory.

    Args:
        config: the *per-device* system configuration.
        sim / stats / policy_engine: shared simulation infrastructure.
        topology: optional multi-device topology; ``None`` (or a
            one-device topology) assembles the plain single-device
            hierarchy.
    """

    def __init__(
        self,
        config: SystemConfig,
        sim: Simulator,
        stats: StatsCollector,
        policy_engine: "PolicyEngine",
        topology: Optional[TopologyConfig] = None,
    ) -> None:
        self.config = config
        self.sim = sim
        self.stats = stats
        self.policy_engine = policy_engine
        self.topology = topology
        self.num_devices = topology.num_devices if topology is not None else 1
        self.cus_per_device = config.gpu.num_cus
        self.total_cus = self.num_devices * self.cus_per_device
        #: callbacks invoked at the start of every kernel-boundary
        #: synchronization (the adaptive controller registers here so a
        #: policy swap governs the next kernel's requests)
        self._kernel_boundary_hooks: list[Callable[[], None]] = []
        self._c_mem_requests = stats.counter("gpu.mem_requests")
        self._c_load_requests = stats.counter("gpu.load_requests")
        self._c_store_requests = stats.counter("gpu.store_requests")
        self._c_kernel_boundaries = stats.counter("gpu.kernel_boundaries")
        #: optional telemetry TraceRecorder (one None-test per kernel
        #: boundary, never on the per-access path)
        self.trace = None
        #: per-stream request counters, indexed by stream id; resolved only
        #: when a serving session enables them, so single-stream runs keep
        #: exactly the plain counter set
        self._c_stream_requests: Optional[list] = None

        # the L2 is banked: model aggregate tag bandwidth as extra ports
        l2_config = config.l2
        if l2_config.ports < config.interconnect.l2_banks:
            from dataclasses import replace as dc_replace

            l2_config = dc_replace(l2_config, ports=config.interconnect.l2_banks)

        single = self.num_devices == 1
        self._interleave: Optional[DeviceInterleave] = (
            None
            if single
            else DeviceInterleave(
                self.num_devices,
                line_bytes=config.l2.line_bytes,
                chunk_lines=topology.interleave_lines,
            )
        )

        # per-device memory side: DRAM partition, directory, slice link,
        # L2 slice.  Counter namespaces ("dram.*", "directory.*", "l2.*")
        # are shared across devices, so reports aggregate over the system
        # exactly as they aggregate over L2 banks and CUs today.
        self.drams: list[DramSystem] = []
        self.directories: list[Directory] = []
        self._l2_dir_links: list[Link] = []
        self.l2s: list[Cache] = []
        rinsing = policy_engine.policy.cache_rinsing
        for device in range(self.num_devices):
            dram = DramSystem(config.dram, sim, stats, line_bytes=config.l2.line_bytes)
            directory = Directory(
                sim, stats, dram, dram_latency=config.interconnect.dir_to_dram_cycles
            )
            link = Link(
                "l2_dir" if single else f"l2_dir.dev{device}",
                sim, stats, latency=config.interconnect.l2_to_dir_cycles,
                requests_per_cycle=float(config.interconnect.l2_banks),
            )
            self.drams.append(dram)
            self.directories.append(directory)
            self._l2_dir_links.append(link)
            self.l2s.append(
                Cache(
                    name="l2" if single else f"l2.dev{device}",
                    config=l2_config,
                    sim=sim,
                    stats=stats,
                    downstream=self._make_slice_downstream(device),
                    stat_prefix="l2",
                    allocation_bypass=policy_engine.allocation_bypass,
                    reuse_predictor=policy_engine.reuse_predictor,
                    dirty_block_index=DirtyBlockIndex(dram.row_id) if rinsing else None,
                )
            )
        self.dram = self.drams[0]
        self.l2 = self.l2s[0]

        # directed inter-device fabric links (multi-device only)
        self._fabric: dict[tuple[int, int], Link] = {}
        if not single:
            for src in range(self.num_devices):
                for dst in range(self.num_devices):
                    if src != dst:
                        self._fabric[(src, dst)] = Link(
                            f"fabric.d{src}d{dst}", sim, stats,
                            latency=topology.remote_latency_cycles,
                            requests_per_cycle=topology.fabric_requests_per_cycle,
                        )
            # local/remote accounting exists only in multi-device runs, so
            # one-device reports keep exactly the plain hierarchy's counters
            self._c_local_requests = stats.counter("topo.local_requests")
            self._c_remote_requests = stats.counter("topo.remote_requests")

        self._l1_l2_links = [
            Link(
                f"l1_l2.cu{cu}", sim, stats,
                latency=config.interconnect.l1_to_l2_cycles,
                requests_per_cycle=1.0,
            )
            for cu in range(self.total_cus)
        ]
        self.l1s = [
            Cache(
                name=f"l1.cu{cu}",
                config=config.l1,
                sim=sim,
                stats=stats,
                downstream=self._make_l1_downstream(cu),
                stat_prefix="l1",
                allocation_bypass=policy_engine.allocation_bypass,
            )
            for cu in range(self.total_cus)
        ]

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------
    def _make_l1_downstream(self, cu: int):
        """The L1's downstream: its link, delivering to the home L2 slice."""
        link = self._l1_l2_links[cu]
        if self.num_devices == 1:
            return partial(link.send, self.l2.access)

        device = cu // self.cus_per_device
        interleave = self._interleave
        line_bytes = self.config.l2.line_bytes
        num_sets = self.l2.config.num_sets
        l2s = self.l2s
        c_local = self._c_local_requests
        c_remote = self._c_remote_requests
        # the far-side handler per home slice: the local slice's access, or
        # a fabric link's send bound to the remote slice's access
        routes = [
            l2.access if home == device
            else partial(self._fabric[(device, home)].send, l2.access)
            for home, l2 in enumerate(l2s)
        ]

        def forward(request: MemoryRequest, on_done: Callable[[MemoryRequest], None]) -> None:
            address = request.address
            home = interleave.device_of(address)
            # slices run on dense local partition addresses; the request is
            # re-addressed once here, and the response path always answers
            # with the requester's original request object
            clone = MemoryRequest(
                request.access,
                interleave.to_local(address),
                request.pc,
                request.stream_id,
                request.issue_cycle,
                request.bypass_l1,
                request.bypass_l2,
            )
            if home == device:
                c_local.value += 1
            else:
                c_remote.value += 1
                monitor = l2s[home].set_monitor
                if monitor is not None:
                    monitor.record_remote((clone.address // line_bytes) % num_sets)
            link.send(routes[home], clone, partial(_answer_original, on_done, request))

        return forward

    def _make_slice_downstream(self, device: int):
        """The L2 slice's downstream: its link, delivering to its directory."""
        return partial(self._l2_dir_links[device].send, self.directories[device].access)

    # ------------------------------------------------------------------
    # GPU-facing interface
    # ------------------------------------------------------------------
    def access(
        self,
        cu_id: int,
        request: MemoryRequest,
        on_done: Callable[[MemoryRequest], None],
    ) -> None:
        """Issue one coalesced line request from CU ``cu_id``."""
        if not (0 <= cu_id < self.total_cus):
            raise IndexError(f"cu_id {cu_id} out of range (have {self.total_cus} CUs)")
        self.policy_engine.annotate(request)
        self._c_mem_requests.value += 1
        if request.is_load:
            self._c_load_requests.value += 1
        else:
            self._c_store_requests.value += 1
        stream_counters = self._c_stream_requests
        if stream_counters is not None:
            stream_counters[request.stream_id].value += 1
        self.l1s[cu_id].access(request, on_done)

    def enable_stream_accounting(self, num_streams: int) -> None:
        """Attribute every request to its stream (``stream<i>.mem_requests``).

        Serving sessions call this before the streams launch; outside them
        the per-stream counters are never resolved, so single-stream
        reports keep exactly the plain counter set.
        """
        if num_streams < 1:
            raise ValueError(f"num_streams must be positive, got {num_streams}")
        self._c_stream_requests = [
            self.stats.counter(f"stream{index}.mem_requests")
            for index in range(num_streams)
        ]

    def kernel_boundary(
        self, on_complete: Callable[[], None], stream_id: Optional[int] = None
    ) -> None:
        """Apply release/acquire synchronization at a kernel boundary.

        The per-CU L1s self-invalidate their valid data (acquire), and the
        L2 writes back dirty data (system-scope release, required because
        the host may consume kernel outputs between launches);
        ``on_complete`` fires once every writeback has been accepted by
        memory.  Clean data in the shared L2 persists across kernel
        boundaries -- in the gem5 APU (VIPER-style) protocol the L2 is the
        coherence point with the system directory and is not self-
        invalidated on acquire, which is what allows the many-kernel RNN
        workloads to retain weight reuse across timesteps.  Under the
        write-through policies the flush is a no-op and ``on_complete``
        fires on the next cycle.  In a multi-device system every slice
        flushes concurrently and ``on_complete`` fires when the last one
        drains.

        Args:
            stream_id: in a multi-tenant serving run, the execution stream
                whose kernel just finished.  The synchronization is then
                *stream-scoped*: only cache lines tagged with that stream
                are self-invalidated and flushed, so one tenant's boundary
                never evicts a co-running tenant's working set (the
                interference mechanism CIAO's partitioning targets).
                ``None`` -- every single-stream run -- keeps the global
                walk, which is bit-identical to the pre-stream behaviour.
        """
        self._c_kernel_boundaries.value += 1
        if self.trace is not None:
            self.trace.kernel_boundary(stream_id)
        if self._kernel_boundary_hooks:
            for hook in self._kernel_boundary_hooks:
                hook()
        for l1 in self.l1s:
            l1.invalidate_clean(stream_id)
        if self.num_devices == 1:
            self.l2.flush_dirty(on_complete, stream_id=stream_id)
            return
        outstanding = self.num_devices

        def slice_flushed() -> None:
            nonlocal outstanding
            outstanding -= 1
            if outstanding == 0:
                on_complete()

        for l2 in self.l2s:
            l2.flush_dirty(slice_flushed, stream_id=stream_id)

    def add_kernel_boundary_hook(self, hook: Callable[[], None]) -> None:
        """Register ``hook`` to run at the start of every kernel boundary."""
        self._kernel_boundary_hooks.append(hook)

    # ------------------------------------------------------------------
    def device_of(self, address: int) -> int:
        """Home device of a (global) address (0 for single-device systems)."""
        if self._interleave is None:
            return 0
        return self._interleave.device_of(address)

    def describe(self) -> dict[str, object]:
        """Human-readable summary used by the CLI and examples."""
        # aggregate like num_cus: the system totals, with per-device
        # breakdowns only when there is more than one device
        dbis = [l2.dbi for l2 in self.l2s if l2.dbi is not None]
        summary: dict[str, object] = {
            "policy": self.policy_engine.policy.name,
            "num_cus": self.total_cus,
            "l1_kb_per_cu": self.config.l1.size_bytes // 1024,
            "l2_kb": self.num_devices * self.config.l2.size_bytes // 1024,
            "dram_channels": self.num_devices * self.config.dram.channels,
            # rows the rinsing slices' dirty-block indices track (None
            # when the policy does not rinse)
            "dbi_tracked_rows": sum(len(dbi) for dbi in dbis) if dbis else None,
        }
        if self.num_devices > 1:
            summary["num_devices"] = self.num_devices
            summary["cus_per_device"] = self.cus_per_device
            summary["l2_kb_per_device"] = self.config.l2.size_bytes // 1024
            summary["remote_latency_cycles"] = self.topology.remote_latency_cycles
            if dbis:
                summary["dbi_tracked_rows_per_device"] = [len(dbi) for dbi in dbis]
        return summary


def _answer_original(
    on_done: Callable[[MemoryRequest], None],
    request: MemoryRequest,
    _response: MemoryRequest,
) -> None:
    """Answer a re-addressed slice request with the requester's original."""
    on_done(request)
