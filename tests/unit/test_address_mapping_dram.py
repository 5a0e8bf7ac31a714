"""Tests for the DRAM address mapping and the DRAM timing model."""

from __future__ import annotations

import pytest

from repro.config import DramConfig
from repro.engine import Simulator
from repro.memory.address_mapping import AddressMapping
from repro.memory.dram import DramSystem
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

    def test_global_bank_is_unique(self):
        cfg = _dram_config()
        mapping = AddressMapping(cfg, line_bytes=64)
        lines_per_row = cfg.row_bytes // 64
        ids = set()
        # visit (channel, bank) combinations explicitly: channel bits are the
        # low line bits, banks change once a whole row of every channel is spanned
        for bank in range(cfg.banks_per_channel):
            for channel in range(cfg.channels):
                line_index = channel + cfg.channels * lines_per_row * bank
                loc = mapping.locate(line_index * 64)
                assert loc.channel == channel
                assert loc.bank == bank
                ids.add(loc.global_bank(cfg.banks_per_channel))
        assert len(ids) == cfg.channels * cfg.banks_per_channel


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
