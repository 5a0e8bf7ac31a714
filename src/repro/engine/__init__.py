"""Discrete-event simulation engine.

The engine is deliberately small: a priority-queue event scheduler
(:class:`~repro.engine.event_queue.EventQueue`), a thin simulator driver
(:class:`~repro.engine.simulator.Simulator`) and a couple of resource
primitives (:class:`~repro.engine.resources.ThroughputResource`,
:class:`~repro.engine.resources.WaitQueue`) used to model contended
structures such as cache ports, SIMD issue slots and DRAM data buses
without per-cycle polling.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.engine.event_queue": ("EventQueue",),
        "repro.engine.simulator": ("Simulator",),
        "repro.engine.resources": ("ThroughputResource", "WaitQueue"),
    },
)
