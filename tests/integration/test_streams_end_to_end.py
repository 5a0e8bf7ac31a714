"""End-to-end tests of the multi-tenant serving subsystem.

Covers the stream scheduler (shared and partitioned CU dispatch, staggered
arrivals, composition with multi-device topologies), stream-scoped kernel
boundary synchronization, per-stream accounting and interference metrics,
the serving registry, store-backed interference sweeps, and the ``serve``
CLI.  The bit-identity of the one-stream wiring is proven separately in
``test_core_equivalence.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.config import scaled_config
from repro.core.policies import CACHE_RW, UNCACHED
from repro.experiments.interference import INTERFERENCE_COLUMNS, figure_interference
from repro.experiments.jobs import JobSpec, SweepExecutor
from repro.experiments.runner import ExperimentRunner
from repro.experiments.study import summarize
from repro.session import SimulationSession, simulate
from repro.streams import (
    MIX_NAMES,
    SERVING_MIXES,
    ServingMix,
    StreamConfig,
    mix_by_name,
)
from repro.streams.address_space import isolate_traces, rebase_trace
from repro.topology import TopologyConfig
from repro.workloads.registry import get_workload

TINY = scaled_config(2)

TWO_TENANTS = (
    StreamConfig(workload="FwFc", scale=0.1),
    StreamConfig(workload="FwSoft", scale=0.1),
)


def _serving_report(streams, policy=CACHE_RW, config=TINY, **kwargs):
    return simulate(policy=policy, config=config, streams=streams, **kwargs)


class TestStreamConfigAndMixes:
    def test_stream_config_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(workload="FwFc", scale=0.0)
        with pytest.raises(ValueError):
            StreamConfig(workload="FwFc", launch_cycle=-1)
        with pytest.raises(ValueError):
            StreamConfig(workload="FwFc", cu_share="exclusive")
        with pytest.raises(ValueError):
            StreamConfig(workload="")

    def test_mix_requires_uniform_cu_share(self):
        with pytest.raises(ValueError):
            ServingMix(
                name="bad",
                streams=(
                    StreamConfig(workload="FwFc"),
                    StreamConfig(workload="FwSoft", cu_share="partitioned"),
                ),
            )

    def test_registered_mixes_are_well_formed(self):
        assert set(MIX_NAMES) == set(SERVING_MIXES)
        for name, mix in SERVING_MIXES.items():
            assert mix.name == name
            assert mix.num_streams >= 2
            assert mix.cu_share == "shared"
            assert len(mix.tenant_labels()) == mix.num_streams

    def test_mix_lookup_and_retagging(self):
        mix = mix_by_name("MHA+FWLSTM")  # case-insensitive
        assert mix.name == "mha+fwlstm"
        with pytest.raises(KeyError):
            mix_by_name("nope")
        partitioned = mix.with_cu_share("partitioned")
        assert partitioned.cu_share == "partitioned"
        assert partitioned.fingerprint() != mix.fingerprint()
        scaled = mix.scaled(0.5)
        assert scaled.streams[0].scale == pytest.approx(0.5)
        assert scaled.fingerprint() != mix.fingerprint()
        assert mix.scaled(1.0) is mix

    def test_fingerprint_excludes_display_names(self):
        base = StreamConfig(workload="FwFc", scale=0.1)
        labelled = StreamConfig(workload="FwFc", scale=0.1, label="tenant-a")
        assert base.fingerprint() == labelled.fingerprint()
        assert base.fingerprint() != StreamConfig(workload="FwFc", scale=0.2).fingerprint()


class TestAddressSpaceIsolation:
    def test_streams_get_disjoint_line_ranges(self):
        traces = [
            get_workload("FwFc", scale=0.1).build_trace(),
            get_workload("FwFc", scale=0.1).build_trace(),
        ]
        isolated = isolate_traces(traces, alignment=64)
        ranges = []
        for trace in isolated:
            lines = set()
            for kernel in trace.kernels:
                lines.update(kernel.touched_lines())
            ranges.append((min(lines), max(lines)))
        assert ranges[0][1] < ranges[1][0]
        # stream 0 is untouched (identity), preserving bit-identity
        assert isolated[0] is traces[0]

    def test_footprint_is_scanned_only_to_place_a_next_stream(self, monkeypatch):
        from repro.memory.request import AccessType
        from repro.streams import address_space
        from repro.workloads.trace import (
            KernelTrace,
            MemInstr,
            WavefrontProgram,
            WorkloadTrace,
        )

        def one_load(name, top):
            kernel = KernelTrace(name="k")
            kernel.add_wavefront(
                WavefrontProgram([MemInstr(AccessType.LOAD, (0, top), pc=4)])
            )
            trace = WorkloadTrace(name=name)
            trace.add_kernel(kernel)
            return trace

        def placed(trace):
            (instr,) = trace.kernels[0].wavefronts[0].instructions
            return instr.line_addresses, instr.pc

        scans = []
        real = address_space._max_line_address

        def counting(trace):
            scans.append(trace.name)
            return real(trace)

        monkeypatch.setattr(address_space, "_max_line_address", counting)
        traces = [one_load("a", 4096), one_load("b", 2048), one_load("c", 64)]
        isolated = isolate_traces(traces, alignment=1024)
        # n traces, n - 1 scans: the last stream places nothing after it
        assert scans == ["a", "b"]
        stride = address_space.PC_REGION_STRIDE
        assert [placed(trace) for trace in isolated] == [
            ((0, 4096), 4),
            ((5120, 7168), 4 + stride),  # past 4096, aligned up to 1024
            ((8192, 8256), 4 + 2 * stride),  # past 7168
        ]
        scans.clear()
        (only,) = isolate_traces(traces[:1], alignment=1024)
        assert only is traces[0] and scans == []

    def test_rebase_preserves_structure(self):
        trace = get_workload("FwSoft", scale=0.1).build_trace()
        rebased = rebase_trace(trace, 1 << 20, pc_offset=1 << 32)
        assert rebased.num_kernels == trace.num_kernels
        assert rebased.line_requests == trace.line_requests
        assert rebased.vector_ops == trace.vector_ops
        assert rebase_trace(trace, 0) is trace
        with pytest.raises(ValueError):
            rebase_trace(trace, -64)


class TestServingExecution:
    def test_two_tenant_run_completes_with_per_stream_accounting(self):
        report = _serving_report(TWO_TENANTS)
        assert report.num_streams == 2
        per_stream = report.per_stream
        assert set(per_stream) == {0, 1}
        for index in (0, 1):
            sub = per_stream[index]
            assert sub["kernels_completed"] == sub["kernels_total"]
            assert sub["mem_requests"] > 0
            assert 0 < sub["cycles"] <= report.cycles
        # the whole run ends when the last stream ends
        assert report.cycles == max(
            per_stream[i]["finish_cycle"] for i in per_stream
        )
        # per-stream requests sum to the global total
        assert (
            sum(per_stream[i]["mem_requests"] for i in per_stream)
            == report.gpu_mem_requests
        )

    @pytest.mark.parametrize("mix_name", MIX_NAMES)
    def test_every_tenant_launches_each_kernel_once(self, mix_name):
        mix = mix_by_name(mix_name).scaled(0.1)
        report = _serving_report(mix.streams)
        expected = [
            get_workload(stream.workload, scale=stream.scale).build_trace().num_kernels
            for stream in mix.streams
        ]
        for index, kernels in enumerate(expected):
            for counter in ("kernels_total", "kernels_launched", "kernels_completed"):
                assert report.counters[f"stream{index}.{counter}"] == kernels, counter
        assert report.counters["gpu.kernels_launched"] == sum(expected)

    def test_staggered_arrival_is_honoured(self):
        streams = (
            StreamConfig(workload="FwFc", scale=0.1),
            StreamConfig(workload="FwSoft", scale=0.1, launch_cycle=5_000),
        )
        report = _serving_report(streams)
        late = report.per_stream[1]
        assert late["launch_cycle"] == 5_000
        assert late["finish_cycle"] > 5_000
        assert late["cycles"] == late["finish_cycle"] - 5_000

    def test_partitioned_dispatch_respects_cu_blocks(self):
        streams = tuple(
            StreamConfig(workload=w, scale=0.1, cu_share="partitioned")
            for w in ("FwFc", "FwSoft")
        )
        session = SimulationSession(policy=CACHE_RW, config=TINY, streams=streams)
        session.gpu.dispatch_log = []
        report = session.run()
        assert report.num_streams == 2
        ranges = [session.gpu.cu_partition_of(i) for i in range(2)]
        assert ranges[0] == [(0, 1)] and ranges[1] == [(1, 1)]
        assert session.gpu.dispatch_log, "no wavefronts were dispatched"
        for stream_id, cu_id, _wavefront_id in session.gpu.dispatch_log:
            base, count = ranges[stream_id][0]
            assert base <= cu_id < base + count

    def test_partitioning_more_streams_than_cus_fails_loudly(self):
        streams = tuple(
            StreamConfig(workload="FwFc", scale=0.05, cu_share="partitioned")
            for _ in range(3)
        )
        with pytest.raises(ValueError, match="partition"):
            _serving_report(streams)

    def test_gpu_stays_usable_after_a_rejected_run(self):
        """Validation failures must not wedge the scheduler (no state is
        mutated before every stream checks out)."""
        session = SimulationSession(policy=CACHE_RW, config=TINY, streams=TWO_TENANTS)
        bad = [get_workload(s.workload, scale=s.scale).build_trace() for s in TWO_TENANTS]
        bad[1].kernels.clear()  # invalid: a stream with no kernels
        with pytest.raises(ValueError, match="no kernels"):
            session.gpu.run_streams(bad, list(TWO_TENANTS))
        assert not session.gpu.running
        report = session.run()  # the same GPU accepts the real run
        assert report.num_streams == 2

    def test_serving_composes_with_topology(self):
        topology = TopologyConfig(num_devices=2)
        report = _serving_report(TWO_TENANTS, topology=topology)
        assert report.num_streams == 2
        assert report.remote_requests > 0  # interleaving produces fabric traffic
        per_stream = report.per_stream
        assert (
            sum(per_stream[i]["mem_requests"] for i in per_stream)
            == report.gpu_mem_requests
        )

    def test_run_rejects_workload_and_streams_together(self):
        session = SimulationSession(policy=CACHE_RW, config=TINY, streams=TWO_TENANTS)
        with pytest.raises(ValueError):
            session.run(get_workload("FwFc", scale=0.1))

    def test_mix_label_and_policy_recorded(self):
        report = _serving_report(mix_by_name("mha+fwlstm").scaled(0.05))
        assert report.workload == "mha+fwlstm"
        assert report.policy == CACHE_RW.name


class TestStreamScopedBoundaries:
    def test_boundary_of_one_tenant_preserves_the_others_lines(self):
        """Direct cache-level check of the scoped walk (see also the unit
        tests): tenant 0's boundary must not drop tenant 1's lines."""
        from repro.memory.cache import Cache, LineState
        from repro.engine import Simulator
        from repro.stats import StatsCollector

        sim = Simulator()
        stats = StatsCollector()
        cache = Cache(
            name="l2",
            config=TINY.l2,
            sim=sim,
            stats=stats,
            downstream=lambda request, on_done: sim.schedule(
                1, lambda: on_done(request)
            ),
            stat_prefix="l2",
        )
        from repro.memory.request import AccessType, MemoryRequest

        def load(address, stream_id):
            request = MemoryRequest(
                access=AccessType.LOAD, address=address, stream_id=stream_id
            )
            cache.access(request, lambda r: None)
            sim.run()

        load(0, 0)
        load(64, 1)
        load(128, 1)
        assert len(cache.contents()) == 3
        dropped = cache.invalidate_clean(stream_id=0)
        assert dropped == 1
        surviving = cache.contents()
        assert set(surviving) == {64, 128}
        assert all(state is LineState.VALID for state in surviving.values())
        # unscoped walk still drops everything (single-stream behaviour)
        assert cache.invalidate_clean() == 2

    def test_scoped_flush_only_writes_back_own_dirty_lines(self):
        from repro.memory.cache import Cache
        from repro.engine import Simulator
        from repro.stats import StatsCollector
        from repro.memory.request import AccessType, MemoryRequest

        sim = Simulator()
        stats = StatsCollector()
        writebacks = []
        cache = Cache(
            name="l2",
            config=TINY.l2,
            sim=sim,
            stats=stats,
            downstream=lambda request, on_done: (
                writebacks.append(request.address),
                sim.schedule(1, lambda: on_done(request)),
            )[-1],
            stat_prefix="l2",
        )

        def store(address, stream_id):
            request = MemoryRequest(
                access=AccessType.STORE, address=address, stream_id=stream_id
            )
            cache.access(request, lambda r: None)
            sim.run()

        store(0, 0)
        store(64, 1)
        store(128, 1)
        flushed = cache.flush_dirty(lambda: None, stream_id=1)
        sim.run()
        assert flushed == 2
        assert sorted(writebacks) == [64, 128]
        assert cache.dirty_line_count() == 1  # stream 0's line is untouched


class TestInterferenceMetrics:
    def test_interference_requires_matching_baselines(self):
        report = _serving_report(TWO_TENANTS)
        with pytest.raises(ValueError):
            report.interference([1000])

    def test_slowdowns_and_unfairness_computed_per_tenant(self):
        report = _serving_report(TWO_TENANTS)
        solo = [
            simulate(
                get_workload(s.workload, scale=s.scale), CACHE_RW, config=TINY
            ).cycles
            for s in TWO_TENANTS
        ]
        metrics = report.interference(solo)
        assert len(metrics["slowdowns"]) == 2
        for slowdown in metrics["slowdowns"]:
            assert slowdown > 0.9  # sharing cannot speed a tenant up materially
        assert metrics["unfairness"] >= 1.0
        assert metrics["max_slowdown"] == max(metrics["slowdowns"])

    def test_stream_cycles_raises_outside_serving_runs(self):
        report = simulate(get_workload("FwFc", scale=0.1), CACHE_RW, config=TINY)
        assert report.num_streams == 0
        assert report.per_stream == {}
        with pytest.raises(KeyError):
            report.stream_cycles(0)


class TestServingJobsAndStore:
    def test_jobspec_fingerprint_covers_stream_configs(self):
        base = JobSpec(workload="mix", policy=CACHE_RW, config=TINY, streams=TWO_TENANTS)
        same = JobSpec(workload="other-label", policy=CACHE_RW, config=TINY, streams=TWO_TENANTS)
        # the label must not split identical mixes across store entries
        assert base.fingerprint() == same.fingerprint()
        retagged = JobSpec(
            workload="mix",
            policy=CACHE_RW,
            config=TINY,
            streams=tuple(
                StreamConfig(
                    workload=s.workload, scale=s.scale, cu_share="partitioned"
                )
                for s in TWO_TENANTS
            ),
        )
        assert retagged.fingerprint() != base.fingerprint()
        assert (
            JobSpec(workload="mix", policy=UNCACHED, config=TINY, streams=TWO_TENANTS)
            .fingerprint()
            != base.fingerprint()
        )
        assert "streams" in base.summary()

    def test_the_executor_runs_the_mix(self):
        (report,) = SweepExecutor().run(
            [JobSpec(workload="mix", policy=CACHE_RW, config=TINY, streams=TWO_TENANTS)]
        )
        assert report.num_streams == 2

    def test_warm_interference_sweep_simulates_nothing(self, tmp_path):
        mixes = [
            ServingMix(
                name="tiny",
                streams=(
                    StreamConfig(workload="FwFc", scale=0.1),
                    StreamConfig(workload="FwSoft", scale=0.1),
                ),
            )
        ]

        def build_runner():
            return ExperimentRunner(config=TINY, cache_dir=str(tmp_path / "store"))

        cold = build_runner()
        figure = figure_interference(cold, mixes=mixes, policies=(CACHE_RW,))
        assert cold.runs_simulated > 0 and cold.runs_loaded == 0
        warm = build_runner()
        repeat = figure_interference(warm, mixes=mixes, policies=(CACHE_RW,))
        assert warm.runs_simulated == 0
        assert warm.runs_loaded == cold.runs_simulated
        assert repeat == figure

    def test_serving_sweep_memoizes_in_process(self):
        runner = ExperimentRunner(config=TINY)
        mix = ServingMix(name="tiny", streams=TWO_TENANTS)
        job = lambda: JobSpec(  # noqa: E731 - a fresh but equal spec per call
            workload=mix.name,
            policy=CACHE_RW,
            config=TINY,
            streams=mix.scaled(runner.scale).streams,
        )
        first = runner.run([job()])
        again = runner.run([job()])
        assert first == again
        assert runner.runs_simulated == 1
        assert runner.memo_hits == 1

    def test_figure_interference_shape_and_summary(self, tmp_path):
        mixes = [ServingMix(name="tiny", streams=TWO_TENANTS)]
        runner = ExperimentRunner(config=TINY)
        figure = figure_interference(
            runner, mixes=mixes, policies=(CACHE_RW,), modes=("shared",)
        )
        assert set(figure) == {"tiny"}
        cell = figure["tiny"][f"{CACHE_RW.name}@shared"]
        assert set(cell) >= {
            "mean_slowdown",
            "max_slowdown",
            "unfairness",
            "cycles",
            "tenants",
        }
        assert len(cell["tenants"]) == 2
        summary = summarize(figure, INTERFERENCE_COLUMNS)
        assert f"{CACHE_RW.name}@shared" in summary


class TestServeCli:
    def test_serve_cli_writes_interference_artifact(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "interference.json"
        code = main(
            [
                "--scale",
                "0.05",
                "--cus",
                "2",
                "serve",
                "--mix",
                "mha+fwlstm",
                "--no-cache",
                "--json-out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "slowdown" in captured.out
        blob = json.loads(out.read_text())
        assert blob["schema"] == 1
        assert "mha+fwlstm" in blob["figure_interference"]
        for series in blob["figure_interference"]["mha+fwlstm"].values():
            assert "unfairness" in series and "tenants" in series

    def test_list_json_includes_serving_mixes(self, capsys):
        from repro.cli import main

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["serving_mixes"]) == set(MIX_NAMES)
        mix = payload["serving_mixes"]["mha+fwlstm"]
        assert [s["workload"] for s in mix["streams"]] == ["MHA", "FwLSTM"]
