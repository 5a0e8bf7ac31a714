"""Phase-sampled fast-forward: skip steady-state kernel repeats.

MI workloads are dominated by *repeats*: an LSTM runs the same cell
kernels once per timestep, a composed model cycles through identical
layer sequences.  The deterministic simulator recomputes each repeat
from scratch, which is pure waste once the memory system has reached
steady state.  :class:`KernelSampler` hooks the GPU's per-launch
``kernel_filter`` and, per *kernel signature* (name, static trace
shape, and an address-stream digest):

1. executes and measures the first ``warmup + measure`` instances,
   capturing the counter/cycle/event deltas each instance produced;
2. declares the signature **steady** once the last two measured deltas
   agree under the phase-detector thresholds
   (:func:`repro.adaptive.phase.phase_changed`) and their cycle deltas
   agree within :data:`CYCLE_DELTA`;
3. skips every later instance of a steady signature (the launch event
   simply advances to the next kernel);
4. at finalize, extrapolates the skipped instances' contribution from
   the mean of the *post-warmup* measured deltas and attaches a
   per-counter error bound derived from the spread of that basis.

Measurement needs unambiguous attribution of counter deltas to kernel
instances, so the sampler refuses to attach to runs with concurrent
streams or adaptive policy control (the controller assumes it sees every
kernel boundary).  Counters written once per run with absolute semantics
(``gpu.finish_cycle``, per-stream cycle marks) are never extrapolated; the session fixes them up from the corrected
cycle count instead.
"""

from __future__ import annotations

import re
import zlib
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.accel.config import SamplingConfig
from repro.adaptive.phase import PhaseSample, phase_changed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import Simulator
    from repro.stats import StatsCollector
    from repro.workloads.trace import KernelTrace

__all__ = ["ExtrapolationResult", "KernelSampler", "extrapolate", "kernel_signature"]

#: maximum relative spread between the last two measured cycle deltas for
#: a signature to count as steady -- the direct guard on extrapolated-cycle
#: error
CYCLE_DELTA = 0.10

#: static identity of a kernel instance; instances sharing a signature
#: issue the identical memory/compute stream and are extrapolation peers
Signature = tuple[str, int, int, int, int, int, int]

#: counters with set-once absolute semantics (cycle marks, totals set at
#: launch); extrapolating them additively would corrupt them
_ABSOLUTE_GPU = frozenset({"gpu.finish_cycle", "gpu.kernels_total"})
_ABSOLUTE_STREAM_SUFFIXES = ("cycles", "finish_cycle", "launch_cycle", "kernels_total")

#: counters attributed to an individual CU by round-robin placement
#: (``link.l1_l2.cu3.transfers`` and friends); the *group total* across
#: CUs is deterministic, but which CU a wavefront lands on rotates with
#: every prior launch, so replaying one measured instance's placement for
#: all skipped instances can move mass between members of the group
_PER_CU_COMPONENT = re.compile(r"\.cu\d+\.")


def _address_digest(kernel: "KernelTrace") -> int:
    """Deterministic digest of the kernel's ordered address stream.

    Aggregate counts alone cannot tell two same-shaped kernels apart
    when they touch *different* lines (multi-head attention issues one
    identically sized projection per head, each at its own offset);
    treating those as repeats extrapolates the wrong cache behaviour.
    The digest folds every memory instruction's access kind and line
    addresses, in program order, through CRC-32.
    """
    stream = array("q")
    for wavefront in kernel.wavefronts:
        for instruction in wavefront.memory_instructions:
            stream.append(-1 if instruction.is_store else -2)
            stream.extend(instruction.line_addresses)
    return zlib.crc32(stream.tobytes())


def kernel_signature(kernel: "KernelTrace") -> Signature:
    """The identity under which instances count as repeats.

    Static shape (wavefronts, request/op counts) plus the address-stream
    digest -- two instances match only when they would issue the same
    memory traffic to the same lines.
    """
    return (
        kernel.name,
        kernel.num_wavefronts,
        kernel.line_requests,
        kernel.vector_ops,
        kernel.load_lines,
        kernel.store_lines,
        _address_digest(kernel),
    )


def _extrapolatable(name: str) -> bool:
    """Whether a counter accumulates additively across kernel instances."""
    if name in _ABSOLUTE_GPU:
        return False
    if name.startswith("stream"):
        suffix = name.split(".", 1)[-1]
        if suffix in _ABSOLUTE_STREAM_SUFFIXES:
            return False
    return True


@dataclass
class _GroupState:
    """Measurement history of one kernel signature."""

    deltas: list[dict[str, int]] = field(default_factory=list)
    cycle_deltas: list[int] = field(default_factory=list)
    event_deltas: list[int] = field(default_factory=list)
    skipped: int = 0
    skipping: bool = False


@dataclass(frozen=True)
class ExtrapolationResult:
    """What fast-forwarding added on top of the executed simulation."""

    #: per-counter additive corrections (already rounded to ints)
    counter_additions: dict[str, int]
    #: simulated cycles the skipped instances would have taken
    cycle_addition: int
    #: queue events the skipped instances would have executed
    event_addition: int
    #: absolute error half-widths keyed by counter name plus ``"cycles"``
    error_bounds_abs: dict[str, float]
    executed_kernels: int
    skipped_kernels: int
    signatures: int

    @property
    def skipped_fraction(self) -> float:
        total = self.executed_kernels + self.skipped_kernels
        return self.skipped_kernels / total if total else 0.0


def _basis(values: list, warmup: int) -> list:
    """The post-warmup slice, falling back to everything (never empty)."""
    trimmed = values[warmup:]
    return trimmed if trimmed else values


def _group_metrics(delta: dict[str, int]) -> PhaseSample:
    """Windowed phase metrics of one measured instance delta."""
    requests = delta.get("gpu.mem_requests", 0)
    if requests <= 0:
        return PhaseSample(
            cycle=0, requests=0, arithmetic_intensity=0.0, hit_rate=0.0, write_fraction=0.0
        )
    accesses = delta.get("l2.accesses", 0)
    return PhaseSample(
        cycle=0,
        requests=requests,
        arithmetic_intensity=delta.get("gpu.vector_ops", 0) / requests,
        hit_rate=(delta.get("l2.hits", 0) / accesses) if accesses else 0.0,
        write_fraction=delta.get("gpu.store_requests", 0) / requests,
    )


def extrapolate(
    groups: dict[Signature, _GroupState], warmup: int
) -> ExtrapolationResult:
    """Turn per-signature measurement histories into counter corrections.

    For every signature with skipped instances the correction is
    ``mean(post-warmup deltas) * skipped`` and the error bound is
    ``half-spread(basis) * skipped`` -- zero when the basis never varied,
    and growing with both the basis spread and the number of instances
    extrapolated, which makes the relative bound monotone in the
    fraction of work skipped.  When the post-warmup basis has a single
    element the spread is taken over *all* measured deltas (warmup
    included), a deliberately generous bound.

    Per-CU counters (a ``.cuN.`` name component) get a second, wider
    bound: round-robin placement rotates with every prior launch, so the
    measured instances' placement is *not* representative of the skipped
    instances' even when the deltas agree perfectly.  The group total is
    conserved -- misattribution only moves mass between members -- so
    each member's honest bound is the total addition the extrapolation
    put into its group (mass it may have wrongly received, or that a
    sibling received in its stead).
    """
    additions: dict[str, float] = {}
    errors: dict[str, float] = {}
    per_cu_names: set[str] = set()
    cycle_addition = 0.0
    cycle_error = 0.0
    event_addition = 0.0
    executed = 0
    skipped = 0
    for group in groups.values():
        executed += len(group.deltas)
        skipped += group.skipped
        if not group.skipped or not group.deltas:
            continue
        basis = _basis(group.deltas, warmup)
        spread_source = basis if len(basis) > 1 else group.deltas
        names = set()
        for delta in basis:
            names.update(delta)
        for delta in group.deltas:
            per_cu_names.update(
                name for name in delta if _PER_CU_COMPONENT.search(name)
            )
        for name in names:
            if not _extrapolatable(name):
                continue
            values = [delta.get(name, 0) for delta in basis]
            additions[name] = additions.get(name, 0.0) + (
                sum(values) / len(values)
            ) * group.skipped
            spread_values = [delta.get(name, 0) for delta in spread_source]
            half_spread = (max(spread_values) - min(spread_values)) / 2
            if half_spread:
                errors[name] = errors.get(name, 0.0) + half_spread * group.skipped

        cycles = _basis(group.cycle_deltas, warmup)
        cycle_addition += (sum(cycles) / len(cycles)) * group.skipped
        cycle_spread_source = cycles if len(cycles) > 1 else group.cycle_deltas
        cycle_error += (
            (max(cycle_spread_source) - min(cycle_spread_source)) / 2
        ) * group.skipped

        events = _basis(group.event_deltas, warmup)
        event_addition += (sum(events) / len(events)) * group.skipped

    group_mass: dict[str, float] = {}
    for name, value in additions.items():
        masked = _PER_CU_COMPONENT.sub(".cu*.", name)
        if masked != name:
            group_mass[masked] = group_mass.get(masked, 0.0) + abs(value)
    for name in per_cu_names:
        masked = _PER_CU_COMPONENT.sub(".cu*.", name)
        mass = group_mass.get(masked, 0.0)
        if mass:
            errors[name] = max(errors.get(name, 0.0), mass)

    error_bounds = {name: value for name, value in errors.items() if value > 0}
    if cycle_error > 0:
        error_bounds["cycles"] = cycle_error
    return ExtrapolationResult(
        counter_additions={
            name: int(round(value)) for name, value in additions.items()
        },
        cycle_addition=int(round(cycle_addition)),
        event_addition=int(round(event_addition)),
        error_bounds_abs=error_bounds,
        executed_kernels=executed,
        skipped_kernels=skipped,
        signatures=len(groups),
    )


class KernelSampler:
    """Per-launch gate that measures, then fast-forwards, kernel repeats.

    Installed as ``gpu.kernel_filter``; the GPU calls :meth:`filter` once
    per kernel launch.  Because the sampler only attaches to
    single-stream runs, kernel executions never overlap and the counter
    movement between two consecutive filter calls belongs entirely to
    the previously launched kernel -- that is the measurement.
    """

    def __init__(
        self, config: SamplingConfig, sim: "Simulator", stats: "StatsCollector"
    ) -> None:
        self.config = config
        self.sim = sim
        self.stats = stats
        self._groups: dict[Signature, _GroupState] = {}
        # signatures keyed by kernel object identity; the stored kernel
        # reference keeps the id alive so it cannot be recycled.  Traces
        # that alias one object per kernel shape (the common steady-state
        # layout) make every lookup O(1) instead of O(trace size).
        self._signature_cache: dict[int, tuple["KernelTrace", Signature]] = {}
        self._open: Optional[Signature] = None
        self._open_snapshot: dict[str, int] = {}
        self._open_cycle = 0
        self._open_events = 0
        self._result: Optional[ExtrapolationResult] = None

    # ------------------------------------------------------------------
    def filter(self, stream_id: int, kernel: "KernelTrace") -> bool:
        """Decide one launch: True executes the kernel, False skips it."""
        if self._result is not None:
            raise RuntimeError("sampler already finalized; sessions are single-run")
        self._close_open_measurement()
        cached = self._signature_cache.get(id(kernel))
        if cached is not None and cached[0] is kernel:
            signature = cached[1]
        else:
            signature = kernel_signature(kernel)
            self._signature_cache[id(kernel)] = (kernel, signature)
        group = self._groups.setdefault(signature, _GroupState())
        config = self.config
        if not group.skipping:
            measured = len(group.deltas)
            if measured >= config.warmup_instances + config.measure_instances and self._steady(group):
                group.skipping = True
        if group.skipping:
            group.skipped += 1
            return False
        self._open = signature
        self._open_snapshot = self.stats.snapshot()
        self._open_cycle = self.sim.now
        self._open_events = self.sim.queue.executed
        return True

    def finalize(self) -> ExtrapolationResult:
        """Close the last measurement and compute the corrections."""
        if self._result is None:
            self._close_open_measurement()
            self._result = extrapolate(self._groups, self.config.warmup_instances)
        return self._result

    # ------------------------------------------------------------------
    def _close_open_measurement(self) -> None:
        if self._open is None:
            return
        group = self._groups[self._open]
        group.deltas.append(self.stats.delta_since(self._open_snapshot))
        group.cycle_deltas.append(self.sim.now - self._open_cycle)
        group.event_deltas.append(self.sim.queue.executed - self._open_events)
        self._open = None

    def _steady(self, group: _GroupState) -> bool:
        """Do the last two measured instances look like the same phase?"""
        previous, latest = group.deltas[-2], group.deltas[-1]
        if phase_changed(_group_metrics(previous), _group_metrics(latest)):
            return False
        cycles_a, cycles_b = group.cycle_deltas[-2], group.cycle_deltas[-1]
        base = max(cycles_a, cycles_b, 1)
        return abs(cycles_a - cycles_b) / base <= CYCLE_DELTA

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        skipped = sum(group.skipped for group in self._groups.values())
        return f"KernelSampler(signatures={len(self._groups)}, skipped={skipped})"
