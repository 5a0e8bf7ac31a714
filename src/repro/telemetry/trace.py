"""Cycle-accurate run timelines in the Chrome trace-event format.

The :class:`TraceRecorder` is the session-wide observer the simulated
components report lifecycle moments to: kernel launches and completions
(the :class:`~repro.gpu.gpu.Gpu` stream scheduler), wavefront dispatch and
retirement (each :class:`~repro.gpu.compute_unit.ComputeUnit`),
kernel-boundary synchronization (the memory hierarchy), and phase changes
and policy swaps (the adaptive subsystem).  It turns them into Chrome
trace-event JSON [1] -- the format ``chrome://tracing`` and Perfetto's
https://ui.perfetto.dev load directly -- with one process row per device
(threads = per-CU wavefront lanes, carrying wavefront slices -- concurrent
wavefronts on one CU occupy separate lane rows so spans nest), one process
for the stream
timelines (threads = streams, carrying kernel spans), and one control
process for adaptive and alert annotations.

Timestamps map **1 GPU cycle = 1 microsecond** of trace time, so span
durations read directly as cycle counts in the viewer.

Every hook is a single ``None``-test on the emitting component when
tracing is disabled, and the recorder only ever *reads* simulation state:
it writes no counters and schedules no events, so a traced run's report is
bit-identical to an untraced one.

[1] https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.adaptive.phase import PhaseSample
    from repro.engine import Simulator

__all__ = ["TraceRecorder", "trace_errors", "validate_trace"]

#: trace process ids: streams (kernel spans), control (adaptive + alerts);
#: device ``d`` gets pid ``PID_DEVICE_BASE + d`` (wavefront slices per CU)
PID_STREAMS = 1
PID_CONTROL = 2
PID_DEVICE_BASE = 10

#: control-process thread ids (tid 1 stays unused, so alert rows keep
#: the tid older traces gave them)
TID_ADAPTIVE = 0
TID_ALERTS = 2

#: tid stride separating a CU's wavefront lanes inside its device process:
#: lane ``L`` of CU ``c`` renders as tid ``c * WAVE_LANE_STRIDE + L``.  A CU
#: keeps many wavefronts in flight at once, and Chrome "X" spans on one
#: thread row must nest -- so concurrent wavefronts each get their own lane
#: row (``cuC.wL``), like the occupancy tracks of real GPU profilers.
WAVE_LANE_STRIDE = 1024

#: allowed phases in emitted/validated traces ("M" = metadata)
_KNOWN_PHASES = frozenset({"X", "i", "I", "M", "B", "E", "C"})


class TraceRecorder:
    """Collects trace events during one simulation run.

    Args:
        sim: the session's simulator (timestamps come from ``sim.now``).
        max_events: recording stops (and :attr:`truncated` is set) once
            this many events were captured, bounding memory on huge runs.
    """

    def __init__(self, sim: "Simulator", max_events: int = 1_000_000) -> None:
        self.sim = sim
        self.max_events = max_events
        self.events: list[dict[str, object]] = []
        self.truncated = False
        #: stream_id -> (kernel name, kernel index, start cycle)
        self._open_kernels: dict[int, tuple[str, int, int]] = {}
        #: wavefront_id -> (cu_id, lane, stream_id, kernel_id, start cycle)
        self._open_wavefronts: dict[int, tuple[int, int, int, int, int]] = {}
        #: cu_id -> lanes currently occupied by an in-flight wavefront
        self._cu_busy_lanes: dict[int, set[int]] = {}
        self._cus_per_device = 0
        self._process_names: dict[int, str] = {PID_STREAMS: "streams"}
        self._thread_names: dict[tuple[int, int], str] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # emission plumbing
    # ------------------------------------------------------------------
    def _emit(self, event: dict[str, object]) -> None:
        if len(self.events) >= self.max_events:
            self.truncated = True
            return
        self.events.append(event)

    def _span(
        self,
        name: str,
        cat: str,
        start: int,
        end: int,
        pid: int,
        tid: int,
        args: Optional[dict[str, object]] = None,
    ) -> None:
        event: dict[str, object] = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start,
            "dur": max(end - start, 0),
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._emit(event)

    def _instant(
        self,
        name: str,
        cat: str,
        pid: int,
        tid: int,
        args: Optional[dict[str, object]] = None,
        scope: str = "t",
    ) -> None:
        event: dict[str, object] = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": self.sim.now,
            "pid": pid,
            "tid": tid,
            "s": scope,
        }
        if args:
            event["args"] = args
        self._emit(event)

    def _name_stream(self, stream_id: int) -> None:
        self._thread_names.setdefault((PID_STREAMS, stream_id), f"stream{stream_id}")

    # ------------------------------------------------------------------
    # GPU topology (wavefront rows group by device)
    # ------------------------------------------------------------------
    def set_topology(self, num_devices: int, cus_per_device: int) -> None:
        """Declare the CU -> device mapping the wavefront rows group by."""
        self._cus_per_device = cus_per_device
        for device in range(num_devices):
            self._process_names[PID_DEVICE_BASE + device] = f"device{device}"

    def _device_pid(self, cu_id: int) -> int:
        if self._cus_per_device <= 0:
            return PID_DEVICE_BASE
        return PID_DEVICE_BASE + cu_id // self._cus_per_device

    # ------------------------------------------------------------------
    # GPU stream scheduler hooks (kernel spans)
    # ------------------------------------------------------------------
    def kernel_started(self, stream_id: int, kernel_index: int, name: str) -> None:
        self._open_kernels[stream_id] = (name, kernel_index, self.sim.now)
        self._name_stream(stream_id)

    def kernel_finished(self, stream_id: int) -> None:
        open_kernel = self._open_kernels.pop(stream_id, None)
        if open_kernel is None:
            return
        name, index, start = open_kernel
        self._span(
            name,
            "kernel",
            start,
            self.sim.now,
            PID_STREAMS,
            stream_id,
            args={"kernel_index": index, "stream": stream_id},
        )

    def kernel_interrupted(self, stream_id: int) -> None:
        """Close the stream's running kernel as a span flagged
        ``interrupted`` (it was still open when the run finished)."""
        open_kernel = self._open_kernels.pop(stream_id, None)
        if open_kernel is None:
            return
        name, index, start = open_kernel
        self._span(
            name,
            "kernel",
            start,
            self.sim.now,
            PID_STREAMS,
            stream_id,
            args={"kernel_index": index, "stream": stream_id, "interrupted": True},
        )

    # ------------------------------------------------------------------
    # compute-unit hooks (wavefront dispatch slices)
    # ------------------------------------------------------------------
    def wavefront_started(
        self, wavefront_id: int, cu_id: int, stream_id: int, kernel_id: int
    ) -> None:
        busy = self._cu_busy_lanes.setdefault(cu_id, set())
        lane = 0
        while lane in busy:
            lane += 1
        busy.add(lane)
        self._open_wavefronts[wavefront_id] = (
            cu_id,
            lane,
            stream_id,
            kernel_id,
            self.sim.now,
        )
        self._thread_names.setdefault(
            (self._device_pid(cu_id), self._lane_tid(cu_id, lane)),
            f"cu{cu_id}.w{lane}",
        )

    @staticmethod
    def _lane_tid(cu_id: int, lane: int) -> int:
        return cu_id * WAVE_LANE_STRIDE + lane

    def wavefront_finished(self, wavefront_id: int) -> None:
        open_wavefront = self._open_wavefronts.pop(wavefront_id, None)
        if open_wavefront is None:
            return
        cu_id, lane, stream_id, kernel_id, start = open_wavefront
        self._cu_busy_lanes[cu_id].discard(lane)
        self._span(
            f"wf{wavefront_id}",
            "wavefront",
            start,
            self.sim.now,
            self._device_pid(cu_id),
            self._lane_tid(cu_id, lane),
            args={"stream": stream_id, "kernel": kernel_id, "cu": cu_id},
        )

    # ------------------------------------------------------------------
    # memory-hierarchy hook (kernel-boundary synchronization instants)
    # ------------------------------------------------------------------
    def kernel_boundary(self, stream_id: Optional[int]) -> None:
        tid = stream_id if stream_id is not None else 0
        self._name_stream(tid)
        self._instant(
            "kernel_boundary",
            "memory",
            PID_STREAMS,
            tid,
            args=None if stream_id is None else {"stream": stream_id},
        )

    # ------------------------------------------------------------------
    # adaptive hooks (phase changes and policy swaps)
    # ------------------------------------------------------------------
    def policy_switch(self, policy_name: str) -> None:
        self._thread_names.setdefault((PID_CONTROL, TID_ADAPTIVE), "adaptive")
        self._process_names.setdefault(PID_CONTROL, "control")
        self._instant(
            "policy_switch",
            "adaptive",
            PID_CONTROL,
            TID_ADAPTIVE,
            args={"policy": policy_name},
            scope="g",
        )

    def adaptive_event(self, kind: str) -> None:
        """A duel lifecycle moment (``commit`` / ``explore``)."""
        self._thread_names.setdefault((PID_CONTROL, TID_ADAPTIVE), "adaptive")
        self._process_names.setdefault(PID_CONTROL, "control")
        self._instant(kind, "adaptive", PID_CONTROL, TID_ADAPTIVE, scope="g")

    def phase_change(self, sample: "PhaseSample") -> None:
        """Listener registered on the session's phase detector."""
        self._thread_names.setdefault((PID_CONTROL, TID_ADAPTIVE), "adaptive")
        self._process_names.setdefault(PID_CONTROL, "control")
        self._instant(
            "phase_change",
            "adaptive",
            PID_CONTROL,
            TID_ADAPTIVE,
            args={
                "cycle": sample.cycle,
                "requests": sample.requests,
                "arithmetic_intensity": sample.arithmetic_intensity,
                "hit_rate": sample.hit_rate,
                "write_fraction": sample.write_fraction,
            },
            scope="g",
        )

    # ------------------------------------------------------------------
    # observability hooks (post-run anomaly alerts)
    # ------------------------------------------------------------------
    def alert_event(
        self, kind: str, severity: str, message: str, cycle: int
    ) -> None:
        """An anomaly alert, anchored at the cycle it was detected *for*.

        Alerts are computed after the run finishes, so unlike every other
        instant this one carries an explicit timestamp -- the window end
        (or run end) the detector anchored the anomaly to -- instead of
        ``sim.now``.
        """
        self._thread_names.setdefault((PID_CONTROL, TID_ALERTS), "alerts")
        self._process_names.setdefault(PID_CONTROL, "control")
        self._emit(
            {
                "name": kind,
                "cat": "alert",
                "ph": "i",
                "ts": cycle,
                "pid": PID_CONTROL,
                "tid": TID_ALERTS,
                "s": "g",
                "args": {"severity": severity, "message": message},
            }
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def finish(self, final_time: Optional[int] = None) -> None:
        """Close the books when the simulation drains.

        Registered as a :meth:`Simulator.on_finish` hook.  Any span still
        open (a kernel or wavefront the budget guard cut off) is closed at
        the final time and flagged, so the emitted trace never contains
        dangling begin events.
        """
        if self._finished:
            return
        self._finished = True
        for stream_id in list(self._open_kernels):
            self.kernel_interrupted(stream_id)
        for wavefront_id, (cu_id, lane, stream_id, kernel_id, start) in sorted(
            self._open_wavefronts.items()
        ):
            self._span(
                f"wf{wavefront_id}",
                "wavefront",
                start,
                self.sim.now if final_time is None else final_time,
                self._device_pid(cu_id),
                self._lane_tid(cu_id, lane),
                args={
                    "stream": stream_id,
                    "kernel": kernel_id,
                    "cu": cu_id,
                    "open_at_finish": True,
                },
            )
        self._open_wavefronts.clear()

    # ------------------------------------------------------------------
    def spans(self, cat: Optional[str] = None) -> list[dict[str, object]]:
        """The recorded complete ("X") events, optionally one category."""
        return [
            event
            for event in self.events
            if event.get("ph") == "X" and (cat is None or event.get("cat") == cat)
        ]

    def to_dict(self) -> dict[str, object]:
        """The Chrome trace-event JSON object (load it in Perfetto)."""
        metadata: list[dict[str, object]] = []
        for pid, name in sorted(self._process_names.items()):
            metadata.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
            )
        for (pid, tid), name in sorted(self._thread_names.items()):
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        return {
            "traceEvents": metadata + self.events,
            "displayTimeUnit": "ms",
            "otherData": {
                "format": "cycles-as-microseconds",
                "truncated": self.truncated,
            },
        }


# ----------------------------------------------------------------------
# validation (the CI trace-smoke contract)
# ----------------------------------------------------------------------
def trace_errors(blob: object) -> list[str]:
    """Structural problems in a Chrome trace-event JSON object.

    Checks the properties the acceptance criteria pin: the trace is an
    object with a ``traceEvents`` list, every event carries the required
    keys with an allowed phase, no duration is negative, and within each
    ``(pid, tid)`` row the complete ("X") spans properly nest (a span
    never partially overlaps another).  Returns human-readable error
    strings; an empty list means the trace is valid.
    """
    errors: list[str] = []
    if not isinstance(blob, dict):
        return [f"trace must be a JSON object, got {type(blob).__name__}"]
    events = blob.get("traceEvents")
    if not isinstance(events, list):
        return ["trace has no traceEvents list"]
    rows: dict[tuple[object, object], list[tuple[int, int, str]]] = {}
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event #{position} is not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            errors.append(f"event #{position} has unknown phase {phase!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in event:
                errors.append(f"event #{position} ({phase}) is missing {key!r}")
        if phase == "M":
            continue  # metadata events carry no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"event #{position} has no numeric ts")
            continue
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)):
                errors.append(f"event #{position} (X) has no numeric dur")
                continue
            if dur < 0:
                errors.append(
                    f"event #{position} ({event.get('name')!r}) has negative "
                    f"duration {dur}"
                )
                continue
            rows.setdefault((event.get("pid"), event.get("tid")), []).append(
                (int(ts), int(ts + dur), str(event.get("name")))
            )
    for (pid, tid), spans in sorted(rows.items()):
        # sort outermost-first at equal starts, then sweep with a stack of
        # enclosing end times: a span must fit entirely inside (or after)
        # every span still open when it starts
        spans.sort(key=lambda span: (span[0], -span[1]))
        stack: list[tuple[int, int, str]] = []
        for start, end, name in spans:
            while stack and stack[-1][1] <= start:
                stack.pop()
            if stack and end > stack[-1][1]:
                errors.append(
                    f"spans overlap without nesting on pid={pid} tid={tid}: "
                    f"{name!r} [{start}, {end}) vs {stack[-1][2]!r} "
                    f"[{stack[-1][0]}, {stack[-1][1]})"
                )
            stack.append((start, end, name))
    return errors


def validate_trace(blob: object) -> None:
    """Raise ``ValueError`` listing every problem when ``blob`` is not a
    structurally valid Chrome trace-event object."""
    errors = trace_errors(blob)
    if errors:
        raise ValueError(
            "invalid trace-event JSON:\n  " + "\n  ".join(errors)
        )
