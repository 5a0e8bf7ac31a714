"""Stream scheduling and the top-level GPU model.

The :class:`Gpu` executes one or more concurrent *execution streams*, each
an independent :class:`~repro.workloads.trace.WorkloadTrace` kernel
sequence with its own in-flight wavefronts -- the multi-tenant serving
model where several users' kernels are co-resident on one GPU.  A plain
single-workload run (:meth:`run_workload`) is the degenerate one-stream
case and reduces exactly to the historical kernel-by-kernel dispatch.

Within each stream, kernels execute in order.  A kernel's wavefronts are
dispatched to CUs as slots free up, under the mix's CU share policy:

* ``"shared"`` -- all streams' wavefronts round-robin over the full CU
  array (round-robin across streams as well, so no tenant starves);
* ``"partitioned"`` -- the CU array is statically split into one
  contiguous block per stream, and each stream round-robins only inside
  its own block (spatial isolation, CIAO-style).

Both modes compose with multi-device topologies: the dispatcher honours
the device-affinity tags the workload partitioner stamped on the
wavefront programs (a tagged wavefront runs only on its device's CU
block), and a partitioned mix subdivides each *device's* block among the
streams.

When the last wavefront of a stream's kernel completes, the GPU applies
the kernel-boundary synchronization required by the coherence protocol --
self-invalidation of valid data and a flush of dirty L2 data, scoped to
the finishing stream's cache lines in multi-stream runs (see
:meth:`repro.memory.hierarchy.MemoryHierarchy.kernel_boundary`) -- waits
for the flush to drain, pays the kernel-launch overhead, and starts the
stream's next kernel.  Other streams keep executing throughout.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Optional, Sequence

from repro.config import SystemConfig
from repro.engine import Simulator
from repro.gpu.compute_unit import ComputeUnit
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import StatsCollector
from repro.streams.config import CU_SHARE_MODES, StreamConfig
from repro.workloads.trace import KernelTrace, WorkloadTrace

__all__ = ["Gpu"]


class _StreamState:
    """Runtime state of one execution stream on the GPU."""

    __slots__ = (
        "stream_id",
        "kernels",
        "kernel_index",
        "outstanding",
        "pending",
        "active",
        "launch_cycle",
        "cu_ranges",
        "next_cu_in_range",
    )

    def __init__(self, stream_id: int, num_devices: int, launch_cycle: int) -> None:
        self.stream_id = stream_id
        self.kernels: deque[KernelTrace] = deque()
        self.kernel_index = -1
        self.outstanding = 0
        #: queued (wavefront_id, kernel_index, program) per device
        self.pending: list[deque] = [deque() for _ in range(num_devices)]
        self.active = True
        self.launch_cycle = launch_cycle
        #: static CU partition, per device: (base, count); None when shared
        self.cu_ranges: Optional[list[tuple[int, int]]] = None
        self.next_cu_in_range: Optional[list[int]] = None

    def has_pending(self) -> bool:
        for queue in self.pending:
            if queue:
                return True
        return False


class Gpu:
    """The GPU: a set of CUs plus the stream-aware kernel dispatcher."""

    def __init__(
        self,
        config: SystemConfig,
        sim: Simulator,
        stats: StatsCollector,
        hierarchy: MemoryHierarchy,
    ) -> None:
        """``config`` is the *per-device* configuration: each of the
        hierarchy's devices gets ``config.gpu.num_cus`` CUs, and CU block
        ``[d*cus_per_device, (d+1)*cus_per_device)`` belongs to device
        ``d`` and runs only the wavefronts tagged for it (untagged ones are
        spread round-robin over the devices).  A single-device system is
        the one-block case: the plain global round-robin."""
        self.config = config
        self.sim = sim
        self.stats = stats
        self.hierarchy = hierarchy
        self.cus_per_device = config.gpu.num_cus
        self._num_devices = hierarchy.num_devices
        self.cus = [
            ComputeUnit(
                cu_id=cu,
                config=config.gpu,
                sim=sim,
                stats=stats,
                hierarchy=hierarchy,
                on_wavefront_finished=self._on_wavefront_finished,
            )
            for cu in range(hierarchy.total_cus)
        ]
        self._wavefront_ids = itertools.count()
        self._streams: list[_StreamState] = []
        self._running = False
        self._partitioned = False
        #: stream-scoped kernel boundaries + per-stream counters; enabled
        #: by the serving API, off for legacy single-workload runs
        self._serving = False
        # round-robin pointers of the shared dispatch mode: one CU pointer
        # and one stream pointer per device
        self._next_cu_of_device = [0] * self._num_devices
        self._next_stream_of_device = [0] * self._num_devices
        self._on_workload_complete: Optional[Callable[[], None]] = None
        #: when set (by tests), every dispatch appends
        #: ``(stream_id, cu_id, wavefront_id)`` -- one None-test per
        #: wavefront start, nothing on the per-event hot path
        self.dispatch_log: Optional[list[tuple[int, int, int]]] = None
        #: optional telemetry TraceRecorder (same None-test pattern as the
        #: dispatch log: per kernel launch/completion, never per event)
        self.trace = None
        #: optional fast-forward gate: called once per kernel launch with
        #: ``(stream_id, kernel)``; returning False skips the kernel (the
        #: sampler extrapolates its counters at finalize).  Same one
        #: None-test per launch as the dispatch log, nothing per event.
        self.kernel_filter: Optional[Callable[[int, object], bool]] = None

    def attach_trace(self, recorder) -> None:
        """Attach a telemetry trace recorder to the GPU and its CUs."""
        self.trace = recorder
        recorder.set_topology(self._num_devices, self.cus_per_device)
        for cu in self.cus:
            cu.trace = recorder

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def run_workload(
        self, workload: WorkloadTrace, on_complete: Optional[Callable[[], None]] = None
    ) -> None:
        """Schedule ``workload`` for execution starting at the current cycle.

        The legacy single-stream entry point: one stream, global (shared)
        dispatch, unscoped kernel boundaries -- bit-identical to the
        pre-stream GPU model.
        """
        self._start(
            [(workload, StreamConfig(workload=workload.name or "workload"))],
            on_complete=on_complete,
            serving=False,
        )

    def run_streams(
        self,
        traces: Sequence[WorkloadTrace],
        configs: Sequence[StreamConfig],
        on_complete: Optional[Callable[[], None]] = None,
    ) -> None:
        """Schedule one execution stream per (trace, config) pair.

        Streams launch at their configured arrival cycles, share or
        partition the CUs according to the (uniform) ``cu_share`` mode,
        and synchronize their kernel boundaries independently, scoped to
        their own cache lines.  ``on_complete`` fires when the last
        stream finishes.
        """
        if len(traces) != len(configs):
            raise ValueError(
                f"got {len(traces)} traces but {len(configs)} stream configs"
            )
        if not traces:
            raise ValueError("a serving run needs at least one stream")
        self._start(list(zip(traces, configs)), on_complete=on_complete, serving=True)

    # ------------------------------------------------------------------
    def _start(
        self,
        workloads: list[tuple[WorkloadTrace, StreamConfig]],
        on_complete: Optional[Callable[[], None]],
        serving: bool,
    ) -> None:
        if self._running:
            raise RuntimeError("a workload is already running on this GPU")
        # validate everything before mutating any scheduler state, so a
        # rejected run leaves the GPU reusable
        modes = {config.cu_share for _trace, config in workloads}
        if len(modes) > 1:
            raise ValueError(
                f"streams mix cu_share modes {sorted(modes)}; "
                "all streams of a run must share one mode"
            )
        mode = modes.pop()
        if mode not in CU_SHARE_MODES:  # pragma: no cover - StreamConfig validates
            raise ValueError(f"unknown cu_share mode {mode!r}")
        for trace, _config in workloads:
            if trace.num_kernels == 0:
                raise ValueError(f"workload {trace.name!r} has no kernels")
        partitioned = mode == "partitioned" and len(workloads) > 1
        if partitioned and self.cus_per_device < len(workloads):
            raise ValueError(
                f"cannot partition {self.cus_per_device} CUs per device across "
                f"{len(workloads)} streams (each stream needs at least one CU)"
            )
        self._running = True
        self._serving = serving
        self._partitioned = partitioned
        self._on_workload_complete = on_complete
        self._next_cu_of_device = [0] * self._num_devices
        self._next_stream_of_device = [0] * self._num_devices
        self._streams = []
        total_kernels = 0
        for stream_id, (trace, config) in enumerate(workloads):
            stream = _StreamState(stream_id, self._num_devices, config.launch_cycle)
            stream.kernels.extend(trace.kernels)
            self._streams.append(stream)
            total_kernels += trace.num_kernels
            if serving:
                self.stats.set(f"stream{stream_id}.kernels_total", trace.num_kernels)
                self.stats.set(f"stream{stream_id}.launch_cycle", config.launch_cycle)
        if self._partitioned:
            self._assign_cu_partitions()
        self.stats.set("gpu.kernels_total", total_kernels)
        launch_delay = self.config.gpu.kernel_launch_cycles
        for stream in self._streams:
            self._schedule_launch(stream, stream.launch_cycle + launch_delay)

    def _assign_cu_partitions(self) -> None:
        """Split each device's CU block into one contiguous range per stream.

        Feasibility (one CU per stream per device) was validated by
        :meth:`_start` before any state changed.
        """
        num_streams = len(self._streams)
        cus_per_device = self.cus_per_device
        base_share, extra = divmod(cus_per_device, num_streams)
        for stream in self._streams:
            stream.cu_ranges = []
            stream.next_cu_in_range = [0] * self._num_devices
        for device in range(self._num_devices):
            offset = device * cus_per_device
            for index, stream in enumerate(self._streams):
                count = base_share + (1 if index < extra else 0)
                stream.cu_ranges.append((offset, count))
                offset += count

    # ------------------------------------------------------------------
    # kernel launch / completion
    # ------------------------------------------------------------------
    def _schedule_launch(self, stream: _StreamState, delay: int) -> None:
        """Schedule the stream's next kernel launch ``delay`` cycles out."""
        self.sim.schedule(delay, lambda: self._launch_next_kernel(stream))

    def _launch_next_kernel(self, stream: _StreamState) -> None:
        if not stream.kernels:
            self._stream_finished(stream)
            return
        kernel = stream.kernels.popleft()
        if self.kernel_filter is not None and not self.kernel_filter(
            stream.stream_id, kernel
        ):
            # fast-forward: the sampler declared this instance a steady
            # repeat; account for the slot, keep the dispatch rotation
            # where the exact run would leave it, and move straight on
            stream.kernel_index += 1
            self._skip_dispatch_rotation(stream, kernel)
            self._schedule_launch(stream, 0)
            return
        stream.kernel_index += 1
        self.stats.add("gpu.kernels_launched")
        if self._serving:
            self.stats.add(f"stream{stream.stream_id}.kernels_launched")
        if self.trace is not None:
            self.trace.kernel_started(
                stream.stream_id, stream.kernel_index, kernel.name
            )
        if kernel.num_wavefronts == 0:
            raise ValueError(f"kernel {kernel.name!r} has no wavefronts")
        stream.outstanding = kernel.num_wavefronts
        num_devices = self._num_devices
        for index, program in enumerate(kernel.wavefronts):
            # untagged wavefronts (a raw trace run on a multi-device
            # system) are spread round-robin so no device sits idle
            device = program.device if program.device is not None else index % num_devices
            if not (0 <= device < num_devices):
                raise ValueError(
                    f"wavefront tagged for device {device}, but the system "
                    f"has {num_devices} devices"
                )
            stream.pending[device].append(
                (next(self._wavefront_ids), stream.kernel_index, program)
            )
        self._fill_cus()

    def _skip_dispatch_rotation(self, stream: _StreamState, kernel) -> None:
        """Advance the round-robin dispatch pointers past a skipped kernel.

        A stream's kernels serialize, so when a kernel launches its CUs
        are idle and every wavefront dispatches on the first pass: the
        pointer moves by exactly the wavefront count.  Replaying that
        advance for skipped kernels keeps the kernels that *are*
        simulated on the same CUs as in the exact run -- without it the
        per-CU attribution (link transfers, contention) drifts even
        though the global totals stay exact.
        """
        # mirror the enqueue path's per-device spread (device tags,
        # round-robin for untagged wavefronts)
        num_devices = self._num_devices
        per_device = [0] * num_devices
        for index, program in enumerate(kernel.wavefronts):
            device = program.device if program.device is not None else index % num_devices
            per_device[device % num_devices] += 1
        if self._partitioned:
            for device, share in enumerate(per_device):
                _, count = stream.cu_ranges[device]
                if count:
                    stream.next_cu_in_range[device] = (
                        stream.next_cu_in_range[device] + share
                    ) % count
        else:
            for device, share in enumerate(per_device):
                self._next_cu_of_device[device] = (
                    self._next_cu_of_device[device] + share
                ) % self.cus_per_device

    def _stream_finished(self, stream: _StreamState) -> None:
        stream.active = False
        now = self.sim.now
        if self._serving:
            prefix = f"stream{stream.stream_id}"
            self.stats.set(f"{prefix}.finish_cycle", now)
            self.stats.set(f"{prefix}.cycles", now - stream.launch_cycle)
        if any(other.active for other in self._streams):
            return
        self._running = False
        self.stats.set("gpu.finish_cycle", now)
        if self._on_workload_complete is not None:
            self._on_workload_complete()

    def _on_wavefront_finished(self, cu_id: int, stream_id: int) -> None:
        stream = self._streams[stream_id]
        stream.outstanding -= 1
        if self._has_pending_wavefronts():
            self._fill_cus()
        if stream.outstanding == 0 and not stream.has_pending():
            self._kernel_complete(stream)

    def _kernel_complete(self, stream: _StreamState) -> None:
        if self.trace is not None:
            self.trace.kernel_finished(stream.stream_id)
        self.stats.add("gpu.kernels_completed")
        if self._serving:
            self.stats.add(f"stream{stream.stream_id}.kernels_completed")

        def after_sync() -> None:
            self._schedule_launch(stream, self.config.gpu.kernel_launch_cycles)

        # multi-tenant boundaries are scoped to the finishing stream's
        # cache lines; the legacy path keeps the global (None) walk
        self.hierarchy.kernel_boundary(
            after_sync, stream_id=stream.stream_id if self._serving else None
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _has_pending_wavefronts(self) -> bool:
        for stream in self._streams:
            if stream.has_pending():
                return True
        return False

    def _fill_cus(self) -> None:
        """Dispatch queued wavefronts onto CUs with free slots, round robin."""
        if self._partitioned:
            self._fill_partitioned()
        else:
            self._fill_shared()

    def _start_wavefront(self, cu: ComputeUnit, stream: _StreamState, device: int) -> None:
        wavefront_id, kernel_id, program = stream.pending[device].popleft()
        if self.dispatch_log is not None:
            self.dispatch_log.append((stream.stream_id, cu.cu_id, wavefront_id))
        cu.start_wavefront(wavefront_id, kernel_id, program, stream.stream_id)

    def _next_stream_with_work(self, device: int) -> _StreamState:
        """Round-robin pick among the streams with work queued for ``device``."""
        streams = self._streams
        count = len(streams)
        pointer = self._next_stream_of_device[device]
        for step in range(count):
            index = (pointer + step) % count
            if streams[index].pending[device]:
                self._next_stream_of_device[device] = (index + 1) % count
                return streams[index]
        raise RuntimeError("no stream has pending work")  # pragma: no cover

    def _any_pending(self, device: int) -> bool:
        for stream in self._streams:
            if stream.pending[device]:
                return True
        return False

    def _fill_shared(self) -> None:
        """Shared dispatch: each device's queues feed its CU block; streams
        interleave round-robin per device.  With one device and one stream
        this is exactly the historical global round-robin."""
        cus_per_device = self.cus_per_device
        cus = self.cus
        for device in range(self._num_devices):
            if not self._any_pending(device):
                continue
            base = device * cus_per_device
            pointer = self._next_cu_of_device[device]
            attempts = 0
            while self._any_pending(device) and attempts < cus_per_device:
                cu = cus[base + pointer]
                pointer = (pointer + 1) % cus_per_device
                if cu.has_free_slot:
                    self._start_wavefront(cu, self._next_stream_with_work(device), device)
                    attempts = 0
                else:
                    attempts += 1
            self._next_cu_of_device[device] = pointer

    def _fill_partitioned(self) -> None:
        """Partitioned dispatch: every stream round-robins inside its own
        contiguous CU range (per device)."""
        cus = self.cus
        for stream in self._streams:
            for device in range(self._num_devices):
                pending = stream.pending[device]
                if not pending:
                    continue
                base, count = stream.cu_ranges[device]
                pointer = stream.next_cu_in_range[device]
                attempts = 0
                while pending and attempts < count:
                    cu = cus[base + pointer]
                    pointer = (pointer + 1) % count
                    if cu.has_free_slot:
                        self._start_wavefront(cu, stream, device)
                        attempts = 0
                    else:
                        attempts += 1
                stream.next_cu_in_range[device] = pointer

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    @property
    def num_streams(self) -> int:
        """Streams of the current (or last) run; 0 before any run."""
        return len(self._streams)

    def cu_partition_of(self, stream_id: int) -> Optional[list[tuple[int, int]]]:
        """The per-device (base, count) CU ranges of ``stream_id``
        (``None`` in shared mode)."""
        return self._streams[stream_id].cu_ranges

    def occupancy(self) -> float:
        """Fraction of wavefront slots currently occupied (for debugging)."""
        resident = sum(cu.resident_wavefronts for cu in self.cus)
        capacity = sum(cu.max_resident_wavefronts for cu in self.cus)
        return resident / capacity if capacity else 0.0
