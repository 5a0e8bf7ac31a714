"""Statistics collection and reporting.

Every timing component increments counters on a shared
:class:`~repro.stats.counters.StatsCollector`.  After a run,
:class:`~repro.stats.report.RunReport` turns the raw counters into the
derived metrics the paper plots (execution time, GVOPS, GMR/s, DRAM
accesses, cache stalls per request, DRAM row-hit rate), and
:mod:`repro.stats.comparison` provides the normalizations used by the
figures (normalized-to-Uncached, static-best / static-worst).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.stats.counters": ("StatsCollector",),
        "repro.stats.report": ("RunReport",),
        "repro.stats.comparison": (
            "PolicyComparison",
            "normalize_to",
            "static_best",
            "static_worst",
        ),
        "repro.stats.regression": (
            "RegressionVerdict",
            "check_regression",
            "mad",
            "median",
            "robust_floor",
        ),
    },
)
