"""Runtime phase detection from windowed hardware counters.

MI workloads are built from kernels with very different memory behaviour
(streaming elementwise layers next to reuse-heavy GEMMs next to
write-dominated backward passes), and a policy chosen for one phase can be
wrong for the next.  :class:`PhaseDetector` samples the shared counter
store on a fixed cycle period, derives three windowed metrics --

* **arithmetic intensity**: vector operations per memory request,
* **L2 hit rate**: hits per L2 access,
* **write fraction**: stores per memory request (a proxy for
  write-coalescing opportunity),

-- and compares them against the metrics of the current phase.  When any
metric moves beyond its threshold (:data:`INTENSITY_DELTA`,
:data:`HIT_RATE_DELTA`, :data:`WRITE_FRACTION_DELTA`) the detector declares
a phase change and notifies its listeners *via the simulator's event
queue* (a zero-delay event), so listeners observe the change at a
well-defined point in simulated time.  The fast-forward sampler of
:mod:`repro.accel.sampling` judges kernel repeats steady with the same
:func:`phase_changed` test, so the controller and the sampler share one
set of thresholds.

The detector only ever *reads* pre-bound counter handles; it writes its own
``adaptive.phase_*`` counters through handles resolved once in
``__init__`` (the PR-2 idiom), and it never blocks the event queue from
draining: the sampling loop re-arms itself only while the supplied
``is_active`` predicate holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.engine import Simulator
from repro.stats import StatsCollector

__all__ = ["PhaseDetector", "PhaseSample", "phase_changed"]

#: relative arithmetic-intensity change that constitutes a phase change
INTENSITY_DELTA = 0.5
#: absolute L2 hit-rate change that constitutes a phase change
HIT_RATE_DELTA = 0.15
#: absolute store-fraction change that constitutes a phase change
WRITE_FRACTION_DELTA = 0.15
#: memory requests a sampling window must contain before its metrics are
#: trusted; thinner windows are merged into the next sample
MIN_REQUESTS = 256


@dataclass(frozen=True)
class PhaseSample:
    """Metrics of one completed sampling window."""

    cycle: int
    requests: int
    arithmetic_intensity: float
    hit_rate: float
    write_fraction: float


def phase_changed(reference: PhaseSample, sample: PhaseSample) -> bool:
    """Whether ``sample`` represents a different phase than ``reference``.

    Arithmetic intensity is compared relatively (intensities span orders
    of magnitude across layers); hit rate and write fraction are bounded
    ratios and compare absolutely.  Shared by :class:`PhaseDetector` and
    the fast-forward sampler in :mod:`repro.accel.sampling`, which uses
    it to decide when repeated kernels are steady.
    """
    base_intensity = max(reference.arithmetic_intensity, 1e-9)
    relative_intensity = (
        abs(sample.arithmetic_intensity - reference.arithmetic_intensity)
        / base_intensity
    )
    if relative_intensity > INTENSITY_DELTA:
        return True
    if abs(sample.hit_rate - reference.hit_rate) > HIT_RATE_DELTA:
        return True
    return abs(sample.write_fraction - reference.write_fraction) > WRITE_FRACTION_DELTA


class PhaseDetector:
    """Watches windowed counters and emits phase-change events.

    Args:
        sim: shared simulator (sampling events and listener notification).
        stats: shared counter store; the detector reads the GPU and L2
            counters and writes the ``adaptive.phase_*`` namespace.
        epoch_cycles: sampling period in GPU cycles.
        min_requests: memory requests a window must contain before its
            metrics are trusted; thinner windows merge into the next one.
    """

    def __init__(
        self,
        sim: Simulator,
        stats: StatsCollector,
        epoch_cycles: int,
        min_requests: int = MIN_REQUESTS,
    ) -> None:
        if epoch_cycles < 1:
            raise ValueError("epoch_cycles must be positive")
        if min_requests < 1:
            raise ValueError("min_requests must be at least 1")
        self.sim = sim
        self.epoch_cycles = epoch_cycles
        self.min_requests = min_requests

        counter = stats.counter
        # inputs (read-only handles; reading never marks a counter touched)
        self._h_vector_ops = counter("gpu.vector_ops")
        self._h_mem_requests = counter("gpu.mem_requests")
        self._h_store_requests = counter("gpu.store_requests")
        self._h_l2_hits = counter("l2.hits")
        self._h_l2_accesses = counter("l2.accesses")
        # outputs
        self._c_samples = counter("adaptive.phase_samples")
        self._c_changes = counter("adaptive.phase_changes")

        self._listeners: List[Callable[[PhaseSample], None]] = []
        self._last = (0, 0, 0, 0, 0)  # cumulative marks at the window start
        self._phase: Optional[PhaseSample] = None
        self._started = False

    # ------------------------------------------------------------------
    def add_listener(self, listener: Callable[[PhaseSample], None]) -> None:
        """Register a callback invoked (as a queue event) on phase changes."""
        self._listeners.append(listener)

    @property
    def current_phase(self) -> Optional[PhaseSample]:
        """Metrics of the phase the detector currently believes it is in."""
        return self._phase

    # ------------------------------------------------------------------
    def start(self, is_active: Callable[[], bool]) -> None:
        """Begin periodic sampling; stops once ``is_active`` returns False.

        The loop re-arms itself one epoch at a time, so after the workload
        completes at most one trailing (no-op) sample remains in the queue
        and the simulation still drains.
        """
        if self._started:
            raise RuntimeError("phase detector already started")
        self._started = True
        self._last = self._cumulative()

        def tick() -> None:
            if not is_active():
                return
            self._sample()
            self.sim.schedule(self.epoch_cycles, tick)

        self.sim.schedule(self.epoch_cycles, tick)

    # ------------------------------------------------------------------
    def _cumulative(self) -> tuple[int, int, int, int, int]:
        return (
            self._h_vector_ops.value,
            self._h_mem_requests.value,
            self._h_store_requests.value,
            self._h_l2_hits.value,
            self._h_l2_accesses.value,
        )

    def _sample(self) -> None:
        current = self._cumulative()
        ops, requests, stores, hits, accesses = (
            now - before for now, before in zip(current, self._last)
        )
        if requests < self.min_requests:
            # too thin to judge; merge into the next window
            return
        self._c_samples.add()
        self._last = current
        sample = PhaseSample(
            cycle=self.sim.now,
            requests=requests,
            arithmetic_intensity=ops / requests,
            hit_rate=(hits / accesses) if accesses else 0.0,
            write_fraction=stores / requests,
        )
        reference = self._phase
        if reference is None:
            self._phase = sample
            return
        if phase_changed(reference, sample):
            self._phase = sample
            self._c_changes.add()
            for listener in self._listeners:
                # notify through the event queue so listeners run at a
                # well-defined simulated time, after this sampling event
                self.sim.schedule(0, lambda cb=listener: cb(sample))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseDetector(epoch={self.epoch_cycles}, listeners={len(self._listeners)})"
