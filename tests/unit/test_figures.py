"""The figure table on hand-built grids.

Every paper figure is one :data:`~repro.experiments.figures.FIGURES`
entry read off a (workload x policy) grid of reports; these tests build
the grid from plain :class:`RunReport` objects, so each rule -- the
series, the baseline, the envelope's tie-break and the two failure modes
-- is pinned without a simulation.
"""

from __future__ import annotations

import pytest

from repro.core.policies import ALL_POLICIES, OPTIMIZED_POLICIES, STATIC_POLICIES
from repro.experiments.figures import (
    FIGURES,
    STATIC_BEST,
    STATIC_WORST,
    figure,
    tabulate,
)
from repro.experiments.runner import SweepResult
from repro.stats import RunReport

STATIC = [policy.name for policy in STATIC_POLICIES]
ENVELOPE = [STATIC_BEST, STATIC_WORST, *(policy.name for policy in OPTIMIZED_POLICIES)]


def report(workload: str, policy: str, cycles: int, dram: int = 0, **counters: int) -> RunReport:
    return RunReport(
        workload=workload,
        policy=policy,
        cycles=cycles,
        counters={"dram.accesses": dram, **counters},
    )


def grid(*reports: RunReport) -> SweepResult:
    sweep = SweepResult()
    for item in reports:
        sweep.add(item)
    return sweep


def full_row(workload: str, **cycles: int) -> list[RunReport]:
    """All six policies of ``workload``; DRAM accesses tell them apart."""
    return [
        report(workload, policy.name, cycles.get(policy.name, 100), dram=10 * (index + 1))
        for index, policy in enumerate(ALL_POLICIES)
    ]


class StubRunner:
    """Answers ``sweep`` from a fixed grid and records what it was asked."""

    def __init__(self, sweep: SweepResult) -> None:
        self.grid = sweep
        self.asked: list[list[str]] = []

    def sweep(self, policies) -> SweepResult:
        self.asked.append([policy.name for policy in policies])
        return self.grid


class TestFigure:
    def test_figure_asks_the_runner_for_its_policies_only(self):
        runner = StubRunner(grid(*full_row("W")))
        assert set(figure(4, runner)) == {"W"}
        figure(7, runner)
        figure(11, runner)
        assert runner.asked == [["CacheR"], STATIC, [policy.name for policy in ALL_POLICIES]]


class TestNormalization:
    def test_values_divide_by_the_uncached_report(self):
        sweep = grid(
            report("W", "Uncached", 1000, dram=1000),
            report("W", "CacheR", 800, dram=600),
            report("W", "CacheRW", 1100, dram=500),
        )
        assert tabulate(FIGURES[6], sweep) == {
            "W": {"Uncached": 1.0, "CacheR": 0.8, "CacheRW": 1.1}
        }
        assert tabulate(FIGURES[7], sweep) == {
            "W": {"Uncached": 1.0, "CacheR": 0.6, "CacheRW": 0.5}
        }

    def test_figure11_divides_by_uncached_outside_its_series(self):
        data = tabulate(FIGURES[11], grid(*full_row("W", Uncached=90)))
        # Uncached (dram 10) is StaticBest by time; CacheR (dram 20) is the
        # first of the 100-cycle ties and so StaticWorst
        assert data == {"W": {STATIC_BEST: 1.0, STATIC_WORST: 2.0,
                              "CacheRW-AB": 4.0, "CacheRW-CR": 5.0, "CacheRW-PCby": 6.0}}

    @pytest.mark.parametrize("number", [7, 11])
    def test_zero_uncached_dram_raises_naming_workload_and_baseline(self, number):
        rows = [item for item in full_row("W") if item.policy != "Uncached"]
        sweep = grid(report("W", "Uncached", 100, dram=0), *rows)
        with pytest.raises(ValueError, match="'W' to 'Uncached': its value is zero"):
            tabulate(FIGURES[number], sweep)

    def test_zero_best_static_time_raises(self):
        sweep = grid(*full_row("W", CacheR=0))
        with pytest.raises(ValueError, match="'W' to 'StaticBest'"):
            tabulate(FIGURES[10], sweep)

    @pytest.mark.parametrize("number", [6, 7, 11])
    def test_missing_baseline_raises_key_error(self, number):
        rows = [item for item in full_row("W") if item.policy != "Uncached"]
        with pytest.raises(KeyError, match="'Uncached' report for workload 'W'"):
            tabulate(FIGURES[number], grid(*rows))

    def test_raw_figures_keep_every_value(self):
        sweep = grid(
            report("W", "Uncached", 10, **{"gpu.mem_requests": 4, "l1.stall_cycles": 2}),
            report("W", "CacheR", 10, **{"gpu.mem_requests": 4, "l2.stall_cycles": 8}),
            report("W", "CacheRW", 10, dram=4, **{"dram.row_hits": 3}),
        )
        assert tabulate(FIGURES[8], sweep) == {"W": {"Uncached": 0.5, "CacheR": 2.0, "CacheRW": 0.0}}
        assert tabulate(FIGURES[9], sweep) == {"W": {"Uncached": 0.0, "CacheR": 0.0, "CacheRW": 0.75}}


class TestEnvelope:
    def test_best_and_worst_by_execution_time(self):
        data = tabulate(FIGURES[11], grid(*full_row("W", Uncached=50, CacheR=30, CacheRW=90)))
        assert data["W"][STATIC_BEST] == 2.0  # CacheR
        assert data["W"][STATIC_WORST] == 3.0  # CacheRW

    def test_ties_go_to_the_first_static_policy(self):
        best_tie = full_row("W", Uncached=100, CacheR=80, CacheRW=80)
        worst_tie = full_row("X", Uncached=100, CacheR=100, CacheRW=50)
        all_tie = full_row("Y")
        data = tabulate(FIGURES[11], grid(*best_tie, *worst_tie, *all_tie))
        assert (data["W"][STATIC_BEST], data["W"][STATIC_WORST]) == (2.0, 1.0)
        assert (data["X"][STATIC_BEST], data["X"][STATIC_WORST]) == (3.0, 1.0)
        assert (data["Y"][STATIC_BEST], data["Y"][STATIC_WORST]) == (1.0, 1.0)

    def test_optimized_policies_never_enter_the_envelope(self):
        data = tabulate(
            FIGURES[10], grid(*full_row("W", **{"CacheRW-PCby": 10, "CacheRW-AB": 500}))
        )
        assert data["W"] == {STATIC_BEST: 1.0, STATIC_WORST: 1.0, "CacheRW-AB": 5.0,
                             "CacheRW-CR": 1.0, "CacheRW-PCby": 0.1}

    def test_missing_static_policy_raises_key_error(self):
        rows = [item for item in full_row("W") if item.policy != "CacheRW"]
        with pytest.raises(KeyError, match="'CacheRW' report for workload 'W'"):
            tabulate(FIGURES[12], grid(*rows))


class TestRows:
    def test_each_report_lands_in_its_own_workload_row(self):
        sweep = grid(*full_row("B"), *full_row("A"))
        data = tabulate(FIGURES[10], sweep)
        assert list(data) == ["B", "A"]
        assert all(list(row) == ENVELOPE for row in data.values())

    def test_series_label_may_differ_from_its_source(self):
        item = report("W", "CacheR", 1600, **{"gpu.vector_ops": 100, "gpu.mem_requests": 50})
        assert tabulate(FIGURES[4], grid(item)) == {"W": {"GVOPS": item.gvops}}
        assert tabulate(FIGURES[5], grid(item)) == {"W": {"GMR/s": item.gmrs}}
