"""Online adaptive cache-policy selection.

The paper's conclusion calls for "smart and adaptive cache policies" for MI
workloads.  A static sweep finds each workload's best policy by running them
all (the ``StaticBest`` series of :data:`repro.experiments.figures.FIGURES`);
this package finds it *at runtime*: a simulation can start with no knowledge of
the workload and converge on the right caching policy while it executes.

Three cooperating components implement the mechanism:

* :class:`~repro.adaptive.set_dueling.SetDuelingMonitor` -- dedicates a few
  L2 *leader sets* to each candidate policy and scores the downstream
  memory traffic each one generates (set dueling, after Qureshi's DIP).
* :class:`~repro.adaptive.phase.PhaseDetector` -- watches windowed counters
  (arithmetic intensity, L2 hit rate, write coalescing) and emits
  phase-change events on the simulator's event queue.
* :class:`~repro.adaptive.controller.DynamicPolicyController` -- consumes
  both signals and swaps the active policy for the *follower* sets at
  kernel boundaries (and, optionally, mid-kernel at phase changes).

:class:`~repro.adaptive.config.AdaptiveConfig` describes one adaptive
configuration and is content-fingerprinted, so adaptive runs cache in the
persistent result store exactly like static runs do.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.adaptive.config": ("AdaptiveConfig",),
        "repro.adaptive.set_dueling": ("DuelScore", "SetDuelingMonitor"),
        "repro.adaptive.controller": ("DynamicPolicyController", "DynamicPolicyEngine"),
        "repro.adaptive.phase": ("PhaseDetector", "PhaseSample", "phase_changed"),
    },
)
