"""Attribute a ``cProfile`` profile of one sample to this repository's layers.

Three views of one profile, all stdlib ``pstats`` data:

* **Self time per layer.**  Each profiled function's ``tottime`` is summed
  into the layer that owns its source file (:data:`LAYER_RULES`; anything
  outside ``src/repro`` is ``python``).  A C builtin has no file, so its
  time is charged to the layer of each caller, in proportion to the time
  pstats records per caller.
* **Phases.**  ``cumtime`` of a set of functions, taken once at its
  outermost call: only calls from functions outside the set count, so a
  phase nested in itself (``super().build_trace()``) is not counted twice.
* **Calls.**  The number of calls into a set of functions from outside it.

``accounted_share`` is the summed self time of every layer over the
traced wall time of the sample, spawn to exit; the interpreter's start-up
before the profile and its shutdown after it count as ``python``.
"""

from __future__ import annotations

#: first matching prefix of the path below ``src/repro/`` names the layer
LAYER_RULES = (
    ("engine/", "engine"),
    ("memory/cache.py", "memory.cache"),
    ("memory/mshr.py", "memory.mshr"),
    ("memory/dram.py", "memory.dram"),
    ("memory/interconnect.py", "memory.interconnect"),
    ("memory/directory.py", "memory.directory"),
    ("memory/hierarchy.py", "memory.hierarchy"),
    ("memory/", "memory.other"),
    ("gpu/wavefront.py", "gpu.wavefront"),
    ("gpu/", "gpu.other"),
    ("core/", "core"),
    ("workloads/", "workloads"),
    ("stats/", "stats"),
    ("session.py", "session"),
    ("config.py", "session"),
    ("__init__.py", "session"),
    ("experiments/", "experiments"),
    ("fingerprint.py", "experiments"),
    ("ioutil.py", "experiments"),
    ("accel/", "accel"),
    ("topology/", "topology"),
    ("streams/", "topology"),
    ("cli.py", "cli"),
    ("telemetry/", "observers"),
    ("obs/", "observers"),
    ("log.py", "observers"),
    ("faults/", "observers"),
    ("adaptive/", "observers"),
)

#: every layer reported, in report order
LAYERS = tuple(dict.fromkeys(layer for _prefix, layer in LAYER_RULES)) + ("python",)

#: phase -> functions (path fragment, function name or None for any)
PHASES = {
    "trace_build": (("/repro/workloads/", "build_trace"),),
    "partition": (
        ("/repro/topology/partition.py", "partition_trace"),
        ("/repro/streams/address_space.py", "isolate_traces"),
    ),
    "assemble": (("/repro/session.py", "__init__"),),
    "loop": (("/repro/engine/event_queue.py", "run"),),
    "report": (("/repro/session.py", "finish"), ("/repro/accel/shard.py", "_merge_reports")),
    "fingerprint": (("/repro/fingerprint.py", None), ("/repro/experiments/jobs.py", "fingerprint")),
    "store_load": (("/repro/experiments/store.py", "load"),),
    "store_save": (("/repro/experiments/store.py", "save"),),
    "serialize": (("/repro/stats/report.py", "to_dict"), ("/repro/stats/report.py", "from_dict")),
    "render": (("/repro/experiments/render.py", None),),
    "wait": (
        ("/concurrent/futures/_base.py", "result"),
        ("/concurrent/futures/_base.py", "as_completed"),
        ("/concurrent/futures/_base.py", "wait"),
    ),
}

#: counted call -> functions, as in :data:`PHASES`
CALLS = {
    "cache.access": (("/repro/memory/cache.py", "access"),),
    "hierarchy.access": (("/repro/memory/hierarchy.py", "access"),),
    "link.send": (("/repro/memory/interconnect.py", "send"),),
    "dram.access": (("/repro/memory/dram.py", "access"),),
    "directory.access": (("/repro/memory/directory.py", "access"),),
    "mshr.allocate": (("/repro/memory/mshr.py", "allocate"),),
    "wavefront.start": (("/repro/gpu/wavefront.py", "start"),),
    "engine.schedule": (
        ("/repro/engine/event_queue.py", "schedule"),
        ("/repro/engine/event_queue.py", "schedule_at"),
        ("/repro/engine/event_queue.py", "schedule_cancellable"),
        ("/repro/engine/simulator.py", "schedule"),
        ("/repro/engine/simulator.py", "schedule_at"),
    ),
    "build_trace": PHASES["trace_build"],
    "fingerprint": PHASES["fingerprint"],
    "store.load": PHASES["store_load"],
    "store.save": PHASES["store_save"],
}

_SRC_MARK = "/src/repro/"


def layer_of(filename: str) -> str:
    """The layer owning a profiled source file."""
    path = filename.replace("\\", "/")
    at = path.rfind(_SRC_MARK)
    if at < 0:
        return "python"
    relative = path[at + len(_SRC_MARK):]
    for prefix, layer in LAYER_RULES:
        if relative.startswith(prefix):
            return layer
    # a module added after this table was written: still accounted, by name
    return relative.split("/")[0].removesuffix(".py")


def _is_builtin(func: tuple) -> bool:
    return func[0] == "~"


def self_times(stats: dict) -> dict[str, float]:
    """Seconds of self time per layer; builtins are charged to their callers."""
    totals: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        if not _is_builtin(func):
            layer = layer_of(func[0])
            totals[layer] = totals.get(layer, 0.0) + tottime
            continue
        charged = 0.0
        for caller, (_cnc, _ccc, caller_tt, _cct) in callers.items():
            layer = "python" if _is_builtin(caller) else layer_of(caller[0])
            totals[layer] = totals.get(layer, 0.0) + caller_tt
            charged += caller_tt
        # time not recorded against any caller (the profiler's own calls)
        totals["python"] += max(0.0, tottime - charged)
    return totals


def _matches(func: tuple, specs) -> bool:
    filename = func[0].replace("\\", "/")
    return any(
        fragment in filename and (name is None or func[2] == name)
        for fragment, name in specs
    )


def outermost(stats: dict, specs) -> tuple[float, int]:
    """(cumtime, calls) of the functions matching ``specs``, counting only
    calls made from outside that set."""
    members = {func for func in stats if _matches(func, specs)}
    seconds, calls = 0.0, 0
    for func in members:
        _cc, nc, _tt, cumtime, callers = stats[func]
        if not callers:
            seconds += cumtime
            calls += nc
            continue
        for caller, (caller_nc, _ccc, _ctt, caller_ct) in callers.items():
            if caller not in members:
                seconds += caller_ct
                calls += caller_nc
    return seconds, calls


def attribute(stats: dict, traced_wall: float, interpreter: float = 0.0) -> dict[str, object]:
    """Layer self times, phases, calls and accounted share of one profile.

    ``stats`` is ``pstats.Stats(...).stats``; times are seconds as profiled.
    ``interpreter`` is the sample's start-up and shutdown outside the
    profile, which is ``python`` time too.
    """
    layers = self_times(stats)
    layers["python"] += interpreter
    return {
        "layers": layers,
        "phases": {name: outermost(stats, specs)[0] for name, specs in PHASES.items()},
        "calls": {name: outermost(stats, specs)[1] for name, specs in CALLS.items()},
        "accounted_share": sum(layers.values()) / traced_wall,
    }
