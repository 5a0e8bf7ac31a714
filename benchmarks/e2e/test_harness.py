"""Tier-1 checks of the end-to-end benchmark harness (well under 15 s).

Covers the benchmark definition (``BENCHMARK.json`` plus ``reference.json``),
profile attribution on a synthetic profile, the normalisation, quartile
and verdict maths, and one real ``serve-numa`` sample against its digest.
"""

from __future__ import annotations

import json
import re
import statistics

import pytest

import layers
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def definition() -> dict:
    """``BENCHMARK.json`` (``benchmark`` is pytest-benchmark's fixture name)."""
    return run.load_json(run.ROOT / "BENCHMARK.json")


@pytest.fixture(scope="module")
def reference() -> dict:
    return run.load_json(run.REFERENCE)


def test_benchmark_json_is_well_formed(definition):
    assert set(definition) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert definition["paths"] == ["benchmarks/e2e"]
    assert definition["command"][1:] == ["benchmarks/e2e/run.py"]
    assert isinstance(definition["run_seconds"], int) and 1 <= definition["run_seconds"] <= 60
    assert 2 <= len(definition["workloads"]) <= 8
    assert 1 <= len(definition["end_to_end"]) <= 16
    assert 1 <= len(definition["per_layer"]) <= 128
    names = []
    for workload in definition["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and 0 < len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in definition["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in definition["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in definition["end_to_end"] + definition["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in definition["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in definition["end_to_end"])


def test_reference_covers_every_workload_and_layer_metric(definition, reference):
    workloads = [workload["name"] for workload in definition["workloads"]]
    assert sorted(reference["workloads"]) == sorted(workloads)
    for entry in reference["workloads"].values():
        assert re.fullmatch(r"[0-9a-f]{64}", entry["digest"])
        assert entry["samples"] >= 1 and entry["error_bound"] >= 0
    assert reference["c_ref"] > 0
    e2e = {metric["name"] for metric in definition["end_to_end"]}
    targeted = []
    for target in reference["targets"]:
        assert target["why"] and set(target["moves"]) <= e2e, target
        assert target["on"] and set(target["on"]) <= set(workloads), target
        targeted += target["layer"]
    assert sorted(targeted) == sorted(m["name"] for m in definition["per_layer"])


def test_per_layer_metrics_are_the_ones_the_harness_produces(definition):
    produced = {f"layer.{layer}.self_s" for layer in layers.LAYERS}
    produced |= {f"phase.{name}_s" for name in layers.PHASES}
    produced |= {f"calls.{name}" for name in layers.CALLS}
    declared = {m["name"] for m in definition["per_layer"]}
    assert produced <= declared


SRC = "/checkout/src/repro/"


def _func(path, name, line=1):
    return (path, line, name)


def test_builtin_time_is_charged_to_its_callers():
    access = _func(SRC + "memory/cache.py", "access")
    helper = _func("/usr/lib/python3/heapq.py", "merge")
    builtin = _func("~", "<built-in method _heapq.heappush>", 0)
    stats = {
        # (cc, nc, tottime, cumtime, callers{caller: (nc, cc, tt, ct)})
        access: (10, 10, 0.5, 1.0, {}),
        helper: (1, 1, 0.1, 0.3, {}),
        builtin: (30, 30, 0.6, 0.6, {access: (20, 20, 0.4, 0.4), helper: (10, 10, 0.2, 0.2)}),
    }
    times = layers.self_times(stats)
    assert times["memory.cache"] == pytest.approx(0.9)
    assert times["python"] == pytest.approx(0.3)
    result = layers.attribute(stats, traced_wall=1.5, interpreter=0.1)
    assert result["layers"]["python"] == pytest.approx(0.4)
    assert result["accounted_share"] == pytest.approx(1.3 / 1.5)


def test_layer_of_maps_sources_to_layers():
    assert layers.layer_of(SRC + "memory/mshr.py") == "memory.mshr"
    assert layers.layer_of(SRC + "memory/replacement.py") == "memory.other"
    assert layers.layer_of(SRC + "streams/config.py") == "topology"
    assert layers.layer_of(SRC + "obs/ledger.py") == "observers"
    assert layers.layer_of(SRC + "config.py") == "session"
    assert layers.layer_of("/usr/lib/python3.11/json/decoder.py") == "python"
    assert layers.layer_of(SRC + "runspec.py") == "runspec"


def test_phase_is_taken_once_at_its_outermost_call():
    session = _func(SRC + "session.py", "begin")
    derived = _func(SRC + "workloads/deepbench.py", "build_trace", 269)
    base = _func(SRC + "workloads/deepbench.py", "build_trace", 190)
    stats = {
        session: (1, 1, 0.1, 2.0, {}),
        # super().build_trace(): the base runs inside the derived builder
        derived: (2, 2, 0.2, 1.5, {session: (2, 2, 0.2, 1.5)}),
        base: (2, 2, 1.0, 1.0, {derived: (2, 2, 1.0, 1.0)}),
    }
    assert layers.outermost(stats, layers.PHASES["trace_build"]) == (pytest.approx(1.5), 2)


def test_normalisation_and_quartiles():
    assert run.normalise(2.0, c=2e-3, c_ref=1e-3) == pytest.approx(1.0)
    values = [1.0, 2.0, 3.0, 4.0, 10.0]
    q1, med, q3 = run.quartiles(values)
    assert (q1, med, q3) == tuple(statistics.quantiles(values, n=4))
    assert run.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert run.medians([{"a": 1, "b": 4}, {"a": 3}]) == {"a": 2, "b": 2}


def _stat(values):
    return run.summary(values)


def test_compare_verdicts():
    lower = {"name": "wall_s", "better": "lower", "bound": 0.1}
    tight = _stat([1.0, 1.01, 0.99, 1.0, 1.02])
    assert run.verdict(lower, tight, _stat([1.05, 1.06, 1.04, 1.05, 1.05])) == "no-worse"
    assert run.verdict(lower, tight, _stat([1.2, 1.21, 1.19, 1.2, 1.2])) == "worse"
    wide = _stat([0.7, 0.9, 1.0, 1.1, 1.3])
    assert run.verdict(lower, wide, _stat([0.95, 1.0, 1.05, 1.0, 1.0])) == "unresolved"
    assert run.verdict(lower, wide, _stat([0.5, 0.6, 0.55, 0.6, 0.65])) == "no-worse"
    higher = {"name": "hit", "better": "higher", "bound": 0.1}
    assert run.verdict(higher, tight, _stat([0.8, 0.8, 0.81, 0.79, 0.8])) == "worse"


def test_compare_mode_exits_nonzero_on_worse(tmp_path, capsys):
    def results(wall):
        return {"workloads": {"serve-numa": {
            "failed_frac": 0.0,
            "metrics": {"wall_s": _stat(wall)},
        }}}

    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps(results([1.0, 1.0, 1.01, 0.99, 1.0])))
    change.write_text(json.dumps(results([1.3, 1.31, 1.29, 1.3, 1.3])))
    assert run.main(["--compare", str(parent), str(change)]) == 1
    assert re.search(r"\sworse$", capsys.readouterr().out, re.MULTILINE)
    assert run.main(["--compare", str(parent), str(parent)]) == 0


def test_real_serve_numa_sample_matches_its_digest(reference):
    sample = run.Sampler(reference).run("serve-numa")
    assert sample.ok, sample.error
    assert sample.result["digest"] == reference["workloads"]["serve-numa"]["digest"]
    assert 0 < sample.setup < sample.wall and sample.c > 0 and sample.peak_rss_mb > 0
    assert sample.result["sim"]["remote_fraction"] > 0
