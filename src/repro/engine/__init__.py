"""Discrete-event simulation engine.

The engine is deliberately small: a priority-queue event scheduler
(:class:`~repro.engine.event_queue.EventQueue`), a thin simulator driver
(:class:`~repro.engine.simulator.Simulator`) and a couple of resource
primitives (:class:`~repro.engine.resources.ThroughputResource`,
:class:`~repro.engine.resources.WaitQueue`) used to model contended
structures such as cache ports, SIMD issue slots and DRAM data buses
without per-cycle polling.
"""

from repro.engine.event_queue import EventQueue
from repro.engine.resources import ThroughputResource, WaitQueue
from repro.engine.simulator import Simulator

__all__ = [
    "EventQueue",
    "Simulator",
    "ThroughputResource",
    "WaitQueue",
]
