"""Experiment drivers that regenerate the paper's tables and figures.

Each module corresponds to a block of the paper's evaluation:

* :mod:`repro.experiments.tables` -- Table 1 (system configuration) and
  Table 2 (workload inventory).
* :mod:`repro.experiments.figures` -- Figures 4-13 as one table of views
  over the (workload x policy) grid: ``figure(number, runner)`` returns
  one figure's ``{workload: {series: value}}`` data (GVOPS and GMR/s
  under CacheR; the static policies normalized to Uncached; the
  best/worst static policy next to the cumulative optimization stack).
* :mod:`repro.experiments.adaptive` -- Figure 14: the online dynamic
  policy (set dueling + phase detection) against the static envelope and
  the optimization stack.
* :mod:`repro.experiments.scaling` -- the device-scaling study: policies
  across 1/2/4-device NUMA topologies (speedup and remote-traffic
  fraction per cell).
* :mod:`repro.experiments.interference` -- the multi-tenant interference
  study: serving mixes of concurrent streams under shared vs partitioned
  CU dispatch (per-tenant slowdown and unfairness per cell).
* :mod:`repro.experiments.study` -- the output helpers every study
  shares: ``series`` (one metric as a table), ``summarize`` (per-series
  statistics) and ``artifact`` (the ``--json-out`` blob).
* :mod:`repro.experiments.jobs` -- the job-based sweep executor:
  :class:`JobSpec` grid cells and the store-aware :class:`SweepExecutor`,
  which simulates a batch in-process or on a per-batch process pool.
* :mod:`repro.experiments.store` -- the persistent on-disk result store
  keyed by job fingerprints.
* :mod:`repro.experiments.runner` -- :class:`ExperimentRunner`, the
  memoizing front-end used by all of the above and the benchmark harness.
  Its one grid method, :meth:`ExperimentRunner.run`, takes the
  :class:`JobSpec` cells a study builds and returns their reports in
  order; ``sweep`` is the static-grid shorthand over it.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.runner": ("ExperimentRunner", "SweepResult"),
        "repro.experiments.jobs": ("JobSpec", "JobFailure", "SweepExecutor"),
        "repro.experiments.store": ("ResultStore", "default_cache_dir"),
        "repro.experiments.figures": (
            "FIGURES",
            "figure",
            "measured_categories",
            "STATIC_BEST",
            "STATIC_WORST",
        ),
        "repro.experiments.adaptive": (
            "adaptive_sweep",
            "figure14_adaptive",
            "adaptive_summary",
        ),
        "repro.experiments.scaling": (
            "figure_scaling",
            "scaling_topologies",
            "SCALING_COLUMNS",
        ),
        "repro.experiments.interference": (
            "figure_interference",
            "INTERFERENCE_COLUMNS",
        ),
        "repro.experiments.study": ("series", "summarize", "artifact"),
        "repro.experiments.tables": ("table1_system_configuration", "table2_workloads"),
        "repro.experiments.render": ("render_series_table",),
    },
)
