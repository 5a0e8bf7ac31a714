"""Acceleration modes: phase-sampled fast-forward and sharded execution.

Two composable ways to trade a little fidelity for a lot of wall-clock:

* :class:`SamplingConfig` -- skip steady-state kernel repeats and
  extrapolate their counters with per-counter error estimates
  (:mod:`repro.accel.sampling`).
* :class:`ShardConfig` -- split a serving mix of partitioned tenants
  into independent shard runs (one worker process per distinct shard,
  equal shards simulated once) and merge their reports
  (:mod:`repro.accel.shard`).

Both default to *off*; exact mode (``sampling=None``, one shard) is
bit-identical to a run that never heard of this package.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.accel.config": ("SHARD_AXES", "SamplingConfig", "ShardConfig"),
        "repro.accel.sampling": (
            "ExtrapolationResult",
            "KernelSampler",
            "kernel_signature",
        ),
    },
)
