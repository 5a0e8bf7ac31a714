"""Sampled-vs-exact accuracy of phase-sampled fast-forward.

The acceptance contract: on reference workloads the *headline* counters
of a sampled run stay within the per-counter error bound the run itself
declares, and within the 2% accuracy budget; every other counter stays
within its declared bound too.  The sampled report also has to say what
it did (the ``report.sampling`` summary) so downstream consumers can
tell a fast-forwarded result from an exact one.
"""

from __future__ import annotations

import pytest

from repro.accel import SamplingConfig
from repro.adaptive import AdaptiveConfig
from repro.core.policies import policy_by_name
from repro.session import SimulationSession
from repro.streams import StreamConfig
from repro.workloads import get_workload

#: the counters the paper's figures are built from
HEADLINE = (
    "gpu.vector_ops",
    "gpu.mem_requests",
    "l1.accesses",
    "l1.hits",
    "l2.accesses",
    "l2.hits",
    "dram.accesses",
    "dram.reads",
    "dram.writes",
)

#: ISSUE acceptance budget for headline counters on reference workloads
HEADLINE_BUDGET = 0.02

SAMPLING_CONFIGS = [
    pytest.param(SamplingConfig(), id="default"),
    pytest.param(
        SamplingConfig(warmup_instances=1, measure_instances=1), id="aggressive"
    ),
]


def _run(name, scale, sampling=None, policy="CacheRW"):
    session = SimulationSession(policy=policy_by_name(policy), sampling=sampling)
    session.begin(get_workload(name, scale=scale))
    session.sim.run()
    return session.finish().to_dict()


def _flat(report):
    return dict(report["counters"], cycles=report["cycles"])


@pytest.mark.parametrize("workload", ["CM", "FwLSTM", "FwGRU", "MHA"])
@pytest.mark.parametrize("sampling", SAMPLING_CONFIGS)
class TestSampledAccuracy:
    def test_every_counter_within_its_declared_bound(self, workload, sampling):
        exact = _flat(_run(workload, 1.0))
        sampled_report = _run(workload, 1.0, sampling=sampling)
        sampled = _flat(sampled_report)
        estimates = sampled_report.get("error_estimates", {})
        for name in sorted(set(exact) | set(sampled)):
            exact_value = exact.get(name, 0)
            sampled_value = sampled.get(name, 0)
            bound = estimates.get(name, 0.0) * max(abs(sampled_value), 1)
            assert abs(sampled_value - exact_value) <= bound + 0.5, (
                f"{name}: exact {exact_value}, sampled {sampled_value}, "
                f"declared bound {bound}"
            )

    def test_headline_counters_within_accuracy_budget(self, workload, sampling):
        exact = _flat(_run(workload, 1.0))
        sampled = _flat(_run(workload, 1.0, sampling=sampling))
        for name in HEADLINE + ("cycles",):
            exact_value = exact.get(name, 0)
            sampled_value = sampled.get(name, 0)
            error = abs(sampled_value - exact_value) / max(abs(exact_value), 1)
            assert error <= HEADLINE_BUDGET, (
                f"{name}: exact {exact_value}, sampled {sampled_value}, "
                f"relative error {error:.4f} > {HEADLINE_BUDGET}"
            )


class TestSamplingReportContract:
    def test_steady_workload_actually_fast_forwards(self):
        report = _run("FwLSTM", 1.0, sampling=SamplingConfig())
        summary = report["sampling"]
        assert summary["mode"] == "phase_sampled"
        assert summary["skipped_kernels"] > 0
        assert 0.0 < summary["skipped_fraction"] < 1.0
        assert summary["signatures"] >= 1
        assert summary["represented_events"] > summary["executed_events"]

    def test_exact_and_sampled_reports_are_distinguishable(self):
        exact = _run("FwLSTM", 1.0)
        sampled = _run("FwLSTM", 1.0, sampling=SamplingConfig())
        assert "sampling" not in exact and "error_estimates" not in exact
        assert "sampling" in sampled

    def test_heterogeneous_addresses_are_not_treated_as_repeats(self):
        """MHA's per-head kernels share a shape but not an address stream;
        the signature must keep them in separate groups (the sampler may
        then find nothing safe to skip -- that is the honest outcome)."""
        report = _run("MHA", 1.0, sampling=SamplingConfig())
        exact = _flat(_run("MHA", 1.0))
        sampled = _flat(report)
        for name in HEADLINE:
            assert sampled.get(name, 0) == pytest.approx(exact.get(name, 0), rel=0.02)


class TestSamplingComposability:
    def test_rejects_adaptive_policy_control(self):
        with pytest.raises(ValueError, match="adaptive"):
            SimulationSession(adaptive=AdaptiveConfig(), sampling=SamplingConfig())

    def test_rejects_concurrent_streams(self):
        streams = [
            StreamConfig(workload="CM", scale=0.2),
            StreamConfig(workload="FwLSTM", scale=0.2),
        ]
        with pytest.raises(ValueError, match="stream"):
            SimulationSession(
                policy=policy_by_name("CacheRW"),
                streams=streams,
                sampling=SamplingConfig(),
            )

    def test_single_stream_composes(self):
        report = _run_single_stream()
        assert report["sampling"]["mode"] == "phase_sampled"


def _run_single_stream():
    session = SimulationSession(
        policy=policy_by_name("CacheRW"),
        streams=[StreamConfig(workload="FwLSTM", scale=1.0)],
        sampling=SamplingConfig(),
    )
    session.begin()
    session.sim.run()
    return session.finish().to_dict()
