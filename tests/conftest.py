"""Shared fixtures for the test suite.

The tests favour small configurations (2 CUs) and tiny workload scales so
the whole suite runs in well under a minute; the benchmark harness under
``benchmarks/`` is where full-scale sweeps live.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.config import SystemConfig, scaled_config
from repro.engine import Simulator
from repro.memory.request import AccessType, MemoryRequest
from repro.stats import StatsCollector
from repro.workloads.trace import (
    ComputeInstr,
    KernelTrace,
    MemInstr,
    WavefrontProgram,
    WorkloadTrace,
)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a live ``multiprocessing`` child behind."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def no_pool(monkeypatch):
    """Fail any attempt to start a process pool."""

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator/event queue."""
    return Simulator()


@pytest.fixture
def stats() -> StatsCollector:
    """A fresh counter store."""
    return StatsCollector()


@pytest.fixture
def tiny_config() -> SystemConfig:
    """A 2-CU system: fast to simulate, all mechanisms still exercised."""
    return scaled_config(2)


def make_load(address: int, pc: int = 0x100) -> MemoryRequest:
    """Convenience constructor for a load request."""
    return MemoryRequest(access=AccessType.LOAD, address=address, pc=pc)


def make_store(address: int, pc: int = 0x200) -> MemoryRequest:
    """Convenience constructor for a store request."""
    return MemoryRequest(access=AccessType.STORE, address=address, pc=pc)


def single_wave_trace(instructions, name: str = "test") -> WorkloadTrace:
    """Wrap a list of instructions into a one-wavefront, one-kernel trace."""
    program = WavefrontProgram(instructions=list(instructions))
    kernel = KernelTrace(name=f"{name}_kernel", wavefronts=[program])
    return WorkloadTrace(name=name, kernels=[kernel])


def streaming_trace(
    num_lines: int, line_bytes: int = 64, stores: bool = False, name: str = "stream"
) -> WorkloadTrace:
    """A trace that touches ``num_lines`` distinct lines exactly once."""
    instructions = []
    access = AccessType.STORE if stores else AccessType.LOAD
    for i in range(num_lines):
        instructions.append(MemInstr(access=access, line_addresses=(i * line_bytes,), pc=0x40))
        instructions.append(ComputeInstr(vector_ops=1))
    return single_wave_trace(instructions, name=name)


def reuse_trace(num_lines: int, passes: int = 3, line_bytes: int = 64) -> WorkloadTrace:
    """A trace that reads the same ``num_lines`` lines ``passes`` times."""
    instructions = []
    for _ in range(passes):
        for i in range(num_lines):
            instructions.append(
                MemInstr(access=AccessType.LOAD, line_addresses=(i * line_bytes,), pc=0x80)
            )
        instructions.append(ComputeInstr(vector_ops=4))
    return single_wave_trace(instructions, name="reuse")


@pytest.fixture
def trace_helpers():
    """Expose the trace-building helpers to tests as one object."""

    class Helpers:
        make_load = staticmethod(make_load)
        make_store = staticmethod(make_store)
        single_wave_trace = staticmethod(single_wave_trace)
        streaming_trace = staticmethod(streaming_trace)
        reuse_trace = staticmethod(reuse_trace)

    return Helpers
