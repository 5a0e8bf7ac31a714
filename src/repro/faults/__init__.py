"""Deterministic fault injection and graceful degradation.

Production fleets lose fabric links, whole devices and tenant processes;
this package lets the simulated system lose them too -- reproducibly.  A
:class:`~repro.faults.config.FaultPlan` is a frozen, fingerprintable
schedule of :class:`~repro.faults.config.FaultEvent` entries (link
degradation/outage, device failure with evacuation, DRAM latency spikes,
tenant kill/restart churn); the
:class:`~repro.faults.injector.FaultInjector` replays it on the
simulator's own event queue, so chaos runs are exactly as deterministic
as healthy ones and cache into the persistent result store under the
plan's fingerprint.

Quickstart::

    from repro import simulate, CACHE_RW, mix_by_name
    from repro.faults import fault_plan_by_name
    from repro.topology import topology_by_name

    report = simulate(
        policy=CACHE_RW,
        streams=mix_by_name("mha+fwlstm"),
        topology=topology_by_name("dual-chiplet"),
        faults=fault_plan_by_name("device-outage"),
    )
    print(report.availability, report.degraded_cycles)

The empty plan (``FaultPlan()`` / the registered ``"none"``) injects
nothing and is counter-for-counter bit-identical to running without a
plan at all -- enforced per golden scenario in
``tests/integration/test_core_equivalence.py``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.faults.config": (
            "FAULT_KINDS",
            "FAULT_PLAN_NAMES",
            "FAULT_PLANS",
            "FaultEvent",
            "FaultPlan",
            "fault_plan_by_name",
            "generate_fault_plan",
        ),
        "repro.faults.injector": ("FaultInjector", "LinkFaultState", "DramFaultState"),
    },
)
