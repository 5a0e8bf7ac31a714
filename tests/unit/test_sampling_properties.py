"""Properties of the fast-forward extrapolation math.

These drive :func:`repro.accel.sampling.extrapolate` with synthetic
measurement histories (no simulator in the loop) and pin the contracts
the accuracy guarantees rest on: corrections are the basis mean scaled
by the skip count, declared error bounds are sound and *monotone in the
fraction of work skipped*, set-once absolute counters are never touched,
and per-CU counters carry the group-mass bound that covers round-robin
attribution drift.  A second group checks the kernel-signature identity:
two kernels only count as repeats when they issue the same address
stream.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.accel import SamplingConfig
from repro.accel.sampling import (
    CYCLE_DELTA,
    KernelSampler,
    _GroupState,
    extrapolate,
    kernel_signature,
)
from repro.adaptive.phase import HIT_RATE_DELTA, INTENSITY_DELTA, WRITE_FRACTION_DELTA
from repro.engine import Simulator
from repro.stats import StatsCollector
from repro.memory.request import AccessType
from repro.workloads.trace import KernelTrace, MemInstr, WavefrontProgram

FAST = settings(max_examples=50, deadline=None)

# one synthetic signature key; extrapolate() only iterates values
SIG = ("k", 1, 1, 1, 1, 1, 0)


def _group(deltas, cycles=None, skipped=0):
    state = _GroupState()
    state.deltas = [dict(d) for d in deltas]
    state.cycle_deltas = list(cycles) if cycles is not None else [100] * len(deltas)
    state.event_deltas = [10] * len(deltas)
    state.skipped = skipped
    return state


class TestExtrapolationCorrections:
    @FAST
    @given(
        values=st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=6),
        skipped=st.integers(min_value=1, max_value=100),
    )
    def test_addition_is_post_warmup_mean_times_skipped(self, values, skipped):
        warmup = 1
        group = _group([{"l2.accesses": v} for v in values], skipped=skipped)
        result = extrapolate({SIG: group}, warmup)
        basis = values[warmup:]
        expected = round(sum(basis) / len(basis) * skipped)
        assert result.counter_additions["l2.accesses"] == expected

    @FAST
    @given(skipped=st.integers(min_value=0, max_value=50))
    def test_zero_spread_basis_declares_zero_error(self, skipped):
        group = _group([{"l2.accesses": 7}] * 3, skipped=skipped)
        result = extrapolate({SIG: group}, 1)
        assert "l2.accesses" not in result.error_bounds_abs

    def test_groups_without_skips_contribute_nothing(self):
        group = _group([{"l2.accesses": 5}] * 3, skipped=0)
        result = extrapolate({SIG: group}, 1)
        assert result.counter_additions == {}
        assert result.error_bounds_abs == {}
        assert result.executed_kernels == 3 and result.skipped_kernels == 0

    def test_absolute_counters_are_never_extrapolated(self):
        deltas = [
            {"gpu.finish_cycle": 100, "gpu.kernels_total": 4, "stream0.cycles": 50,
             "stream0.finish_cycle": 100, "l2.accesses": 9}
        ] * 3
        result = extrapolate({SIG: _group(deltas, skipped=5)}, 1)
        assert set(result.counter_additions) == {"l2.accesses"}


class TestErrorBoundMonotonicity:
    @FAST
    @given(
        low=st.integers(min_value=0, max_value=1000),
        spread=st.integers(min_value=1, max_value=1000),
        skip_counts=st.lists(
            st.integers(min_value=1, max_value=200), min_size=2, max_size=6, unique=True
        ),
    )
    def test_relative_bound_grows_with_fraction_skipped(self, low, spread, skip_counts):
        """est = bound / final is non-decreasing in the skip count.

        This is the declared-estimate semantics of
        ``SimulationSession._apply_sampling``: more extrapolated work can
        only make the declared *relative* uncertainty larger, never
        launder it away.  The final value is taken from the unrounded
        mean -- integer rounding of the committed addition jitters the
        denominator by up to 0.5, which is noise, not a trend.
        """
        deltas = [{"c": low}, {"c": low}, {"c": low + spread}]
        measured_total = sum(d["c"] for d in deltas)
        basis_mean = (low + low + spread) / 2
        estimates = []
        for skipped in sorted(skip_counts):
            result = extrapolate({SIG: _group(deltas, skipped=skipped)}, 1)
            final = measured_total + basis_mean * skipped
            estimates.append(result.error_bounds_abs["c"] / max(final, 1))
        assert all(a <= b + 1e-12 for a, b in zip(estimates, estimates[1:]))

    @FAST
    @given(
        spread=st.integers(min_value=1, max_value=500),
        skipped=st.integers(min_value=1, max_value=100),
    )
    def test_absolute_bound_is_half_spread_times_skipped(self, spread, skipped):
        deltas = [{"c": 10}, {"c": 10}, {"c": 10 + spread}]
        result = extrapolate({SIG: _group(deltas, skipped=skipped)}, 1)
        assert result.error_bounds_abs["c"] == (spread / 2) * skipped

    @FAST
    @given(
        executed=st.integers(min_value=1, max_value=20),
        skipped=st.integers(min_value=0, max_value=200),
    )
    def test_skipped_fraction_stays_in_unit_interval(self, executed, skipped):
        group = _group([{"c": 1}] * executed, skipped=skipped)
        fraction = extrapolate({SIG: group}, 1).skipped_fraction
        assert 0.0 <= fraction <= 1.0
        assert fraction == skipped / (executed + skipped)


class TestPerCuGroupBound:
    """Round-robin placement drift: per-CU bounds cover the group mass."""

    def test_per_cu_bound_is_at_least_total_group_addition(self):
        deltas = [
            {"link.l1_l2.cu0.transfers": 8, "link.l1_l2.cu1.transfers": 2},
        ] * 3
        result = extrapolate({SIG: _group(deltas, skipped=9)}, 1)
        mass = sum(
            v for k, v in result.counter_additions.items()
            if k.startswith("link.l1_l2.cu")
        )
        assert mass == (8 + 2) * 9
        for name in ("link.l1_l2.cu0.transfers", "link.l1_l2.cu1.transfers"):
            assert result.error_bounds_abs[name] >= mass

    def test_member_seen_only_in_warmup_still_gets_the_group_bound(self):
        """A CU the measured basis never touched can still own exact-run
        mass; its declared bound must cover the group's extrapolated
        total even though its own addition is zero."""
        deltas = [
            {"link.l1_l2.cu2.transfers": 5, "link.l1_l2.cu0.transfers": 5},  # warmup
            {"link.l1_l2.cu0.transfers": 10},
            {"link.l1_l2.cu0.transfers": 10},
        ]
        result = extrapolate({SIG: _group(deltas, skipped=4)}, 1)
        assert result.counter_additions.get("link.l1_l2.cu2.transfers", 0) == 0
        assert result.error_bounds_abs["link.l1_l2.cu2.transfers"] >= 10 * 4

    def test_non_cu_counters_keep_the_tight_spread_bound(self):
        deltas = [{"l2.accesses": 10}] * 3
        result = extrapolate({SIG: _group(deltas, skipped=9)}, 1)
        assert "l2.accesses" not in result.error_bounds_abs


#: one measured instance: intensity 2.0, L2 hit rate 0.5, write fraction 0.3
STEADY = {
    "gpu.mem_requests": 1000,
    "gpu.vector_ops": 2000,
    "gpu.store_requests": 300,
    "l2.accesses": 1000,
    "l2.hits": 500,
}


def _moved(counter, fraction_of_threshold):
    """STEADY with one phase metric moved by a fraction of its threshold."""
    threshold = {
        "gpu.vector_ops": INTENSITY_DELTA * 2.0,  # relative to intensity 2.0
        "l2.hits": HIT_RATE_DELTA,
        "gpu.store_requests": WRITE_FRACTION_DELTA,
    }[counter]
    delta = dict(STEADY)
    delta[counter] += round(1000 * threshold * fraction_of_threshold)
    return delta


def _steady(deltas, cycles):
    sampler = KernelSampler(SamplingConfig(), Simulator(), StatsCollector())
    return sampler._steady(_group(deltas, cycles=cycles))


class TestSteadiness:
    """When the sampler judges a kernel's repeats steady enough to skip."""

    @pytest.mark.parametrize(
        "fraction,steady", [(0.9, True), (1.1, False)], ids=["inside", "beyond"]
    )
    def test_cycle_counts_must_agree_within_the_cycle_delta(self, fraction, steady):
        cycles = [1000, round(1000 * (1 - CYCLE_DELTA * fraction))]
        assert _steady([STEADY, STEADY], cycles) is steady

    @pytest.mark.parametrize(
        "fraction,steady", [(0.9, True), (1.1, False)], ids=["inside", "beyond"]
    )
    @pytest.mark.parametrize("counter", ["gpu.vector_ops", "l2.hits", "gpu.store_requests"])
    def test_phase_metrics_use_the_detectors_thresholds(self, counter, fraction, steady):
        """Equal cycle counts are not enough: a phase shift the detector
        would report also keeps the sampler measuring."""
        assert _steady([STEADY, _moved(counter, fraction)], [1000, 1000]) is steady

    def test_only_the_last_two_instances_are_compared(self):
        cold = _moved("l2.hits", -3.0)  # a cold first instance
        assert _steady([cold, STEADY, STEADY], [5000, 1000, 1000])


def _kernel(name, line_addresses_per_wf):
    kernel = KernelTrace(name=name)
    for addresses in line_addresses_per_wf:
        program = WavefrontProgram()
        for address in addresses:
            program.append(
                MemInstr(access=AccessType.LOAD, line_addresses=(address,), pc=64)
            )
        kernel.add_wavefront(program)
    return kernel


class TestKernelSignatureIdentity:
    def test_identical_content_in_distinct_objects_matches(self):
        a = _kernel("gemm", [(0, 64, 128)])
        b = _kernel("gemm", [(0, 64, 128)])
        assert a is not b
        assert kernel_signature(a) == kernel_signature(b)

    def test_same_shape_different_addresses_do_not_match(self):
        """The MHA trap: one projection kernel per head, identical shape,
        different base offsets.  Without address identity the sampler
        would extrapolate head 0's cache behaviour over every head."""
        head0 = _kernel("attn_proj", [(0, 64, 128)])
        head1 = _kernel("attn_proj", [(8192, 8256, 8320)])
        assert kernel_signature(head0) != kernel_signature(head1)

    def test_access_kind_is_part_of_the_identity(self):
        load = _kernel("k", [(0,)])
        store = KernelTrace(name="k")
        program = WavefrontProgram()
        program.append(MemInstr(access=AccessType.STORE, line_addresses=(0,), pc=64))
        store.add_wavefront(program)
        assert kernel_signature(load) != kernel_signature(store)

    @FAST
    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=1 << 30).map(lambda a: a * 64),
            min_size=1,
            max_size=32,
        )
    )
    def test_signature_is_deterministic(self, addresses):
        a = _kernel("k", [tuple(addresses)])
        b = _kernel("k", [tuple(addresses)])
        assert kernel_signature(a) == kernel_signature(b)
