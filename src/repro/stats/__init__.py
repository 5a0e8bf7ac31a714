"""Statistics collection and reporting.

Every timing component increments counters on a shared
:class:`~repro.stats.counters.StatsCollector`.  After a run,
:class:`~repro.stats.report.RunReport` turns the raw counters into the
derived metrics the paper plots (execution time, GVOPS, GMR/s, DRAM
accesses, cache stalls per request, DRAM row-hit rate).  The figures'
normalizations (to Uncached, to the best static policy) live with the
figure table in :mod:`repro.experiments.figures`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.stats.counters": ("StatsCollector",),
        "repro.stats.report": ("RunReport",),
    },
)
