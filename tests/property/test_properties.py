"""Property-based tests (hypothesis) for the core data structures.

These check structural invariants over randomly generated inputs: the event
queue's ordering guarantee, coalescer correctness, address-mapping
consistency, dirty-block-index bookkeeping, predictor counter bounds,
tensor allocation safety and cache/backend consistency under arbitrary
access sequences.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, DramConfig
from repro.core.dirty_block_index import DirtyBlockIndex
from repro.core.reuse_predictor import PredictorConfig, ReusePredictor
from repro.engine import Simulator
from repro.engine.event_queue import EventQueue
from repro.gpu.coalescer import coalesce_addresses
from repro.memory.address_mapping import AddressMapping, DramCoordinates
from repro.memory.cache import Cache
from repro.memory.replacement import LruReplacement
from repro.memory.request import AccessType, MemoryRequest
from repro.stats import StatsCollector
from repro.workloads.tensor import AddressSpace

# keep hypothesis fast and deterministic inside CI-style runs
FAST = settings(max_examples=50, deadline=None)


class TestEventQueueProperties:
    @FAST
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
    def test_events_always_fire_in_nondecreasing_time_order(self, delays):
        queue = EventQueue()
        fired: list[int] = []
        for delay in delays:
            queue.schedule(delay, lambda: fired.append(queue.now))
        queue.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @FAST
    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=100))
    def test_run_executes_every_scheduled_event_exactly_once(self, delays):
        queue = EventQueue()
        counter = {"n": 0}
        for delay in delays:
            queue.schedule(delay, lambda: counter.__setitem__("n", counter["n"] + 1))
        queue.run()
        assert counter["n"] == len(delays)


class TestCoalescerProperties:
    @FAST
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=128))
    def test_coalesced_lines_cover_every_address(self, addresses):
        lines = coalesce_addresses(addresses, 64)
        line_set = set(lines)
        assert all(addr - addr % 64 in line_set for addr in addresses)

    @FAST
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=128))
    def test_coalesced_lines_are_unique_and_aligned(self, addresses):
        lines = coalesce_addresses(addresses, 64)
        assert len(lines) == len(set(lines))
        assert all(line % 64 == 0 for line in lines)
        assert len(lines) <= len(addresses)


class TestAddressMappingProperties:
    @FAST
    @given(st.integers(min_value=0, max_value=1 << 28))
    def test_coordinates_within_bounds_and_row_id_consistent(self, address):
        config = DramConfig(channels=4, banks_per_channel=8, row_bytes=1024)
        mapping = AddressMapping(config, line_bytes=64)
        loc = mapping.locate(address)
        assert 0 <= loc.channel < config.channels
        assert 0 <= loc.bank < config.banks_per_channel
        assert 0 <= loc.column < config.row_bytes // 64
        same_line = address - address % 64
        assert mapping.row_id(address) == mapping.row_id(same_line)

    @FAST
    @given(st.integers(min_value=0, max_value=1 << 22))
    def test_addresses_in_same_row_share_row_id(self, line_index):
        config = DramConfig(channels=2, banks_per_channel=4, row_bytes=512)
        mapping = AddressMapping(config, line_bytes=64)
        address = line_index * 64
        loc = mapping.locate(address)
        # every line of the row, enumerated from its coordinates
        for column in range(mapping.lines_per_row):
            peer = mapping.address_of(DramCoordinates(loc.channel, loc.bank, loc.row, column))
            peer_loc = mapping.locate(peer)
            assert (peer_loc.channel, peer_loc.bank, peer_loc.row) == (
                loc.channel,
                loc.bank,
                loc.row,
            )
            assert mapping.row_id(peer) == mapping.row_id(address)


class TestDirtyBlockIndexProperties:
    @FAST
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=255)),
            min_size=1,
            max_size=300,
        )
    )
    def test_dirty_count_matches_reference_model(self, operations):
        dbi = DirtyBlockIndex(row_of=lambda addr: addr // 1024)
        reference: set[int] = set()
        for mark, line in operations:
            address = line * 64
            if mark:
                dbi.mark_dirty(address)
                reference.add(address)
            else:
                dbi.clear(address)
                reference.discard(address)
        assert dbi.dirty_count() == len(reference)
        for address in reference:
            assert dbi.is_dirty(address)
        collected = {
            address for row in dbi.rows() for address in dbi.dirty_lines_in_row(row)
        }
        assert collected == reference


class TestPredictorProperties:
    @FAST
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 16),
                st.sampled_from(["reuse", "dead", "predict"]),
            ),
            min_size=1,
            max_size=500,
        )
    )
    def test_counters_stay_within_bounds(self, events):
        config = PredictorConfig(table_entries=64, counter_bits=3)
        predictor = ReusePredictor(config)
        for pc, kind in events:
            if kind == "reuse":
                predictor.train_reuse(pc)
            elif kind == "dead":
                predictor.train_eviction(pc, reused=False)
            else:
                predictor.should_bypass(pc)
        assert all(0 <= value <= config.max_value for value in predictor.table_snapshot())
        assert 0.0 <= predictor.bypass_fraction() <= 1.0


class TestTensorProperties:
    @FAST
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10_000),
                st.sampled_from([2, 4, 8]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_allocations_never_overlap(self, shapes):
        space = AddressSpace(alignment=256)
        for index, (elements, width) in enumerate(shapes):
            space.allocate(f"t{index}", elements, element_bytes=width)
        assert space.overlapping() == []
        assert space.total_bytes() == sum(n * w for n, w in shapes)


class TestReplacementProperties:
    @FAST
    @given(
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=100),
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
    )
    def test_lru_victim_always_a_candidate(self, touches, candidate_pool):
        # ways outside the candidate pool are pending, so never victims
        lru = LruReplacement(num_sets=1, assoc=8)
        for way in range(8):
            lru.on_fill(0, way, 0)
        for cycle, way in enumerate(touches):
            lru.on_access(0, way, cycle)
        candidates = sorted(set(candidate_pool))
        for way in range(8):
            if way not in candidates:
                lru.on_pending(0, way)
        assert lru.victim(0) in candidates


class TestCacheProperties:
    @FAST
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=63),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_every_request_completes_and_traffic_is_bounded(self, accesses):
        """Whatever the access sequence, every request completes exactly once
        and the backend never sees more loads than there are load requests."""
        sim = Simulator()
        stats = StatsCollector()
        backend_loads = []

        def backend(request, on_done):
            if request.is_load:
                backend_loads.append(request.address)
            sim.schedule(40, lambda: on_done(request))

        cache = Cache(
            name="prop",
            config=CacheConfig(size_bytes=1024, line_bytes=64, assoc=2, hit_latency=5, mshrs=3),
            sim=sim,
            stats=stats,
            downstream=backend,
            stat_prefix="l1",
        )
        completed = []
        issued_loads = 0
        for is_store, line in accesses:
            address = line * 64
            access = AccessType.STORE if is_store else AccessType.LOAD
            request = MemoryRequest(access=access, address=address, pc=0x10)
            if is_store:
                request.bypass_l1 = True  # stores bypass the L1 in every policy
            else:
                issued_loads += 1
            cache.access(request, lambda r: completed.append(r.req_id))
        sim.run()
        assert len(completed) == len(accesses)
        assert len(set(completed)) == len(completed)
        assert len(backend_loads) <= issued_loads


# ----------------------------------------------------------------------
# multi-tenant serving streams
# ----------------------------------------------------------------------

from repro.config import scaled_config
from repro.core.policies import CACHE_RW
from repro.core.policy_engine import PolicyEngine
from repro.gpu.gpu import Gpu
from repro.memory.hierarchy import MemoryHierarchy
from repro.streams import StreamConfig
from repro.streams.address_space import isolate_traces
from repro.workloads.trace import (
    ComputeInstr,
    KernelTrace,
    MemInstr,
    WavefrontProgram,
    WorkloadTrace,
)

_SERVING_CONFIG = scaled_config(2)

#: one randomly shaped tenant: (kernel shapes, launch_cycle) where each
#: kernel is a list of per-wavefront (line_count, has_store) specs
_stream_shape = st.tuples(
    st.lists(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=6), st.booleans()),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=2,
    ),
    st.integers(min_value=0, max_value=2_000),
)


def _build_trace(index: int, kernels) -> WorkloadTrace:
    trace = WorkloadTrace(name=f"tenant{index}")
    for k, wavefronts in enumerate(kernels):
        kernel = KernelTrace(name=f"k{k}")
        for w, (line_count, has_store) in enumerate(wavefronts):
            program = WavefrontProgram(workgroup_id=w)
            addresses = tuple(64 * (w * 64 + i) for i in range(line_count))
            program.append(MemInstr(access=AccessType.LOAD, line_addresses=addresses, pc=0x40))
            if has_store:
                program.append(
                    MemInstr(access=AccessType.STORE, line_addresses=addresses[:1], pc=0x44)
                )
            program.append(ComputeInstr(vector_ops=2))
            kernel.add_wavefront(program)
        trace.add_kernel(kernel)
    return trace


def _run_serving(shapes, cu_share: str):
    """Assemble a 2-CU system and run one synthetic stream per shape."""
    sim = Simulator()
    stats = StatsCollector()
    engine = PolicyEngine(CACHE_RW)
    hierarchy = MemoryHierarchy(_SERVING_CONFIG, sim, stats, engine)
    gpu = Gpu(_SERVING_CONFIG, sim, stats, hierarchy)
    gpu.dispatch_log = []
    traces = [_build_trace(i, kernels) for i, (kernels, _launch) in enumerate(shapes)]
    configs = [
        StreamConfig(
            workload=trace.name, launch_cycle=launch, cu_share=cu_share
        )
        for trace, (_kernels, launch) in zip(traces, shapes)
    ]
    hierarchy.enable_stream_accounting(len(configs))
    traces = isolate_traces(traces, _SERVING_CONFIG.l2.line_bytes)
    finished = []
    gpu.run_streams(traces, configs, on_complete=lambda: finished.append(sim.now))
    sim.run()
    assert finished, "serving run deadlocked"
    return gpu, stats, traces


class TestServingStreamProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        shapes=st.lists(_stream_shape, min_size=1, max_size=2),
        cu_share=st.sampled_from(["shared", "partitioned"]),
    )
    def test_per_stream_counters_sum_to_global_totals(self, shapes, cu_share):
        gpu, stats, traces = _run_serving(shapes, cu_share)
        num_streams = len(shapes)
        assert (
            sum(stats.get(f"stream{i}.mem_requests") for i in range(num_streams))
            == stats.get("gpu.mem_requests")
        )
        assert (
            sum(stats.get(f"stream{i}.kernels_completed") for i in range(num_streams))
            == stats.get("gpu.kernels_completed")
        )
        for index, trace in enumerate(traces):
            assert stats.get(f"stream{index}.kernels_completed") == trace.num_kernels
            assert stats.get(f"stream{index}.mem_requests") == trace.line_requests
            launch = stats.get(f"stream{index}.launch_cycle")
            finish = stats.get(f"stream{index}.finish_cycle")
            assert finish > launch
            assert stats.get(f"stream{index}.cycles") == finish - launch

    @settings(max_examples=25, deadline=None)
    @given(
        shapes=st.lists(_stream_shape, min_size=1, max_size=2),
        cu_share=st.sampled_from(["shared", "partitioned"]),
    )
    def test_every_wavefront_runs_on_an_allowed_cu(self, shapes, cu_share):
        gpu, stats, traces = _run_serving(shapes, cu_share)
        total_wavefronts = sum(
            kernel.num_wavefronts for trace in traces for kernel in trace.kernels
        )
        log = gpu.dispatch_log
        # every wavefront dispatched exactly once
        assert len(log) == total_wavefronts
        assert len({wavefront_id for _s, _c, wavefront_id in log}) == total_wavefronts
        for stream_id, cu_id, _wavefront_id in log:
            assert 0 <= cu_id < len(gpu.cus)
            ranges = gpu.cu_partition_of(stream_id)
            if ranges is not None:  # partitioned mode with >= 2 streams
                assert any(
                    base <= cu_id < base + count for base, count in ranges
                ), f"stream {stream_id} ran on CU {cu_id} outside {ranges}"
        if cu_share == "partitioned" and len(shapes) > 1:
            assert all(gpu.cu_partition_of(i) is not None for i in range(len(shapes)))
