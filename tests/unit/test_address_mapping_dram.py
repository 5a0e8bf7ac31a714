"""Tests for the DRAM address mapping and the DRAM timing model."""

from __future__ import annotations

import pytest

from repro.config import DramConfig
from repro.engine import Simulator, ThroughputResource
from repro.memory.address_mapping import AddressMapping
from repro.memory.dram import FR_FCFS_STARVATION_LIMIT, DramBank, DramSystem
from repro.memory.request import AccessType, MemoryRequest
from repro.stats import StatsCollector


def _dram_config() -> DramConfig:
    return DramConfig(channels=2, banks_per_channel=4, row_bytes=1024, queue_depth=4)


class TestAddressMapping:
    def test_consecutive_lines_interleave_channels(self):
        mapping = AddressMapping(_dram_config(), line_bytes=64)
        assert mapping.locate(0).channel == 0
        assert mapping.locate(64).channel == 1
        assert mapping.locate(128).channel == 0

    def test_lines_fill_row_before_changing_bank(self):
        cfg = _dram_config()
        mapping = AddressMapping(cfg, line_bytes=64)
        lines_per_row = cfg.row_bytes // 64
        first = mapping.locate(0)
        same_row = mapping.locate(64 * cfg.channels * (lines_per_row - 1))
        next_bank = mapping.locate(64 * cfg.channels * lines_per_row)
        assert first.bank == same_row.bank and first.row == same_row.row
        assert next_bank.bank != first.bank or next_bank.row != first.row

    def test_row_id_unique_per_row_and_bank(self):
        cfg = _dram_config()
        mapping = AddressMapping(cfg, line_bytes=64)
        seen = {}
        for line in range(0, 512):
            address = line * 64
            loc = mapping.locate(address)
            key = (loc.channel, loc.bank, loc.row)
            row_id = mapping.row_id(address)
            if key in seen:
                assert seen[key] == row_id
            else:
                assert row_id not in seen.values()
                seen[key] = row_id

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            AddressMapping(_dram_config()).locate(-1)
        with pytest.raises(ValueError):
            AddressMapping(_dram_config()).split(-1)

    def test_split_matches_locate(self):
        mapping = AddressMapping(_dram_config(), line_bytes=64)
        for address in (0, 63, 64, 1000, 64 * 2 * 16, 123_456, 2**30 + 5):
            loc = mapping.locate(address)
            assert mapping.split(address) == (loc.channel, loc.bank, loc.row, loc.column)

    def test_row_bytes_must_be_line_multiple(self):
        with pytest.raises(ValueError):
            AddressMapping(DramConfig(row_bytes=100), line_bytes=64)

    def test_every_channel_bank_pair_is_reachable(self):
        cfg = _dram_config()
        mapping = AddressMapping(cfg, line_bytes=64)
        lines_per_row = cfg.row_bytes // 64
        # visit (channel, bank) combinations explicitly: channel bits are the
        # low line bits, banks change once a whole row of every channel is spanned
        for bank in range(cfg.banks_per_channel):
            for channel in range(cfg.channels):
                line_index = channel + cfg.channels * lines_per_row * bank
                loc = mapping.locate(line_index * 64)
                assert loc.channel == channel
                assert loc.bank == bank


def _load(address: int) -> MemoryRequest:
    return MemoryRequest(access=AccessType.LOAD, address=address)


def _store(address: int) -> MemoryRequest:
    return MemoryRequest(access=AccessType.STORE, address=address)


class TestDramTiming:
    def _system(self) -> tuple[Simulator, StatsCollector, DramSystem]:
        sim = Simulator()
        stats = StatsCollector()
        return sim, stats, DramSystem(_dram_config(), sim, stats)

    def test_first_access_is_row_miss(self):
        sim, stats, dram = self._system()
        done = []
        dram.access(_load(0), lambda r: done.append(sim.now))
        sim.run()
        assert stats.get("dram.row_misses") == 1
        assert done and done[0] >= _dram_config().row_miss_cycles

    def test_same_row_access_is_row_hit(self):
        sim, stats, dram = self._system()
        dram.access(_load(0), lambda r: None)
        # same channel/bank/row: next line in the same row is channels*64 away
        dram.access(_load(64 * _dram_config().channels), lambda r: None)
        sim.run()
        assert stats.get("dram.row_hits") == 1

    def test_different_row_same_bank_is_conflict(self):
        sim, stats, dram = self._system()
        cfg = _dram_config()
        lines_per_row = cfg.row_bytes // 64
        stride_to_next_row_same_bank = 64 * cfg.channels * lines_per_row * cfg.banks_per_channel
        dram.access(_load(0), lambda r: None)
        dram.access(_load(stride_to_next_row_same_bank), lambda r: None)
        sim.run()
        assert stats.get("dram.row_conflicts") == 1

    def test_row_hits_are_faster_than_conflicts(self):
        cfg = _dram_config()
        sim, stats, dram = self._system()
        finish = {}
        dram.access(_load(0), lambda r: finish.setdefault("first", sim.now))
        dram.access(
            _load(64 * cfg.channels), lambda r: finish.setdefault("hit", sim.now)
        )
        sim.run()
        hit_service = finish["hit"] - finish["first"]
        assert hit_service <= cfg.row_hit_cycles + 2 * cfg.burst_cycles

    def test_reads_and_writes_counted_separately(self):
        sim, stats, dram = self._system()
        dram.access(_load(0), lambda r: None)
        dram.access(_store(64), lambda r: None)
        sim.run()
        assert stats.get("dram.reads") == 1
        assert stats.get("dram.writes") == 1
        assert stats.get("dram.accesses") == 2

    def test_sequential_stream_has_high_row_hit_rate(self):
        sim, stats, dram = self._system()
        for line in range(128):
            dram.access(_load(line * 64), lambda r: None)
        sim.run()
        assert dram.row_hit_rate() > 0.85

    def test_random_stream_has_low_row_hit_rate(self):
        sim, stats, dram = self._system()
        address = 12345
        for _ in range(128):
            address = (address * 1103515245 + 12345) % (1 << 24)
            dram.access(_load((address // 64) * 64), lambda r: None)
        sim.run()
        assert dram.row_hit_rate() < 0.5

    def test_on_accepted_fires_before_completion(self):
        sim, stats, dram = self._system()
        events = []
        dram.access(
            _store(0),
            on_done=lambda r: events.append("done"),
            on_accepted=lambda: events.append("accepted"),
        )
        sim.run()
        assert events == ["accepted", "done"]

    def test_queue_full_defers_acceptance(self):
        cfg = _dram_config()
        sim, stats, dram = self._system()
        accepted = []
        # flood one bank (channel 0, bank 0) far beyond its queue depth
        lines_per_row = cfg.row_bytes // 64
        same_bank_stride = 64 * cfg.channels * lines_per_row * cfg.banks_per_channel
        for i in range(cfg.queue_depth * 3):
            dram.access(
                _store(i * same_bank_stride),
                on_done=lambda r: None,
                on_accepted=lambda i=i: accepted.append(i),
            )
        assert len(accepted) <= cfg.queue_depth + 1
        sim.run()
        assert len(accepted) == cfg.queue_depth * 3
        assert stats.get("dram.queue_full_stalls") > 0

    def test_pending_drains_to_zero(self):
        sim, stats, dram = self._system()
        for line in range(32):
            dram.access(_load(line * 64), lambda r: None)
        assert dram.pending() > 0
        sim.run()
        assert dram.pending() == 0


class TestDramBankService:
    """Exact service timing and FR-FCFS order of one bank.

    Timings are the :class:`DramConfig` defaults: row hit 50, row miss
    100, row conflict 150 cycles, then a 4-cycle burst on the channel bus.
    """

    def _bank(self, name: str = "bank", bus: ThroughputResource | None = None):
        sim, stats = Simulator(), StatsCollector()
        config = DramConfig()
        bus = bus or ThroughputResource(cycles_per_grant=config.burst_cycles)
        return sim, stats, DramBank(name, config, sim, stats, bus)

    @staticmethod
    def _finish(sim, log, tag):
        return lambda _request: log.append((tag, sim.now))

    def test_row_miss_completes_after_array_access_and_burst(self):
        sim, _stats, bank = self._bank()
        log = []
        bank.enqueue(_load(0), 1, self._finish(sim, log, "a"))
        sim.run()
        assert log == [("a", 100 + 4)]

    def test_row_hit_follows_at_hit_latency(self):
        sim, _stats, bank = self._bank()
        log = []
        bank.enqueue(_load(0), 1, self._finish(sim, log, "a"))
        bank.enqueue(_load(64), 1, self._finish(sim, log, "b"))
        sim.run()
        assert log == [("a", 104), ("b", 104 + 50 + 4)]

    def test_row_conflict_pays_precharge_and_activate(self):
        sim, _stats, bank = self._bank()
        log = []
        bank.enqueue(_load(0), 1, self._finish(sim, log, "a"))
        bank.enqueue(_load(64), 2, self._finish(sim, log, "b"))
        sim.run()
        assert log == [("a", 104), ("b", 104 + 150 + 4)]

    def test_each_outcome_is_counted_once(self):
        sim, stats, bank = self._bank()
        for row in (1, 1, 2):
            bank.enqueue(_load(0), row, lambda _r: None)
        sim.run()
        assert stats.get("dram.enqueued") == 3
        assert stats.get("dram.accesses") == 3
        assert stats.get("dram.row_misses") == 1
        assert stats.get("dram.row_hits") == 1
        assert stats.get("dram.row_conflicts") == 1

    def test_queued_row_hit_is_served_before_an_older_conflict(self):
        sim, _stats, bank = self._bank()
        log = []
        bank.enqueue(_load(0), 1, self._finish(sim, log, "open"))
        bank.enqueue(_load(64), 2, self._finish(sim, log, "conflict"))
        bank.enqueue(_load(128), 1, self._finish(sim, log, "hit"))
        sim.run()
        assert [tag for tag, _ in log] == ["open", "hit", "conflict"]

    def test_starvation_limit_forces_the_oldest_request(self):
        sim, _stats, bank = self._bank()
        order = []
        bank.enqueue(_load(0), 1, lambda _r: order.append("open"))
        bank.enqueue(_load(64), 2, lambda _r: order.append("old"))
        for _ in range(FR_FCFS_STARVATION_LIMIT + 4):
            bank.enqueue(_load(128), 1, lambda _r: order.append("hit"))
        sim.run()
        # the limit's worth of row hits overtake it, then it is forced
        assert order.index("old") == 1 + FR_FCFS_STARVATION_LIMIT
        assert order.count("hit") == FR_FCFS_STARVATION_LIMIT + 4

    def test_banks_sharing_a_bus_serialize_their_bursts(self):
        sim, stats = Simulator(), StatsCollector()
        config = DramConfig()
        bus = ThroughputResource(cycles_per_grant=config.burst_cycles)
        banks = [DramBank(f"b{i}", config, sim, stats, bus) for i in range(2)]
        log = []
        for index, bank in enumerate(banks):
            bank.enqueue(_load(64 * index), 1, self._finish(sim, log, index))
        sim.run()
        # both arrays finish at 100; the second burst waits for the first
        assert log == [(0, 104), (1, 108)]

    def test_idle_bank_keeps_its_row_open_and_restarts_on_arrival(self):
        sim, _stats, bank = self._bank()
        log = []
        bank.enqueue(_load(0), 1, self._finish(sim, log, "first"))
        sim.run()
        assert not bank.busy and bank.pending() == 0
        later = self._finish(sim, log, "later")
        sim.schedule(500 - sim.now, lambda: bank.enqueue(_load(64), 1, later))
        sim.run()
        assert log == [("first", 104), ("later", 500 + 50 + 4)]
        assert bank.pending() == 0
