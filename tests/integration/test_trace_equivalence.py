"""Trace-content pin for the workload generators.

Every timing result is a function of the generated traces, so a trace
builder may get faster but must never change what it emits.  This test
hashes the full content of every registry workload's trace -- kernel names
and order, each wavefront's ``workgroup_id`` and ``device``, and per
instruction its kind, access type, ``pc``, vector op count and line tuple
(element for element, so first-touch order is pinned too) -- and compares
it with digests recorded from the per-lane reference builder.

If a future change alters a generator on purpose, re-record the digests
with ``python tests/integration/test_trace_equivalence.py`` and say so in
the commit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.workloads.deepbench import RnnForwardBackward
from repro.workloads.registry import WORKLOAD_NAMES, get_workload
from repro.workloads.trace import ComputeInstr, WorkloadTrace

#: (workload, scale) pairs the pin covers
CASES: tuple[tuple[str, float], ...] = tuple((name, 0.2) for name in WORKLOAD_NAMES) + (
    ("FwBwLSTM", 2.0),
    ("FwBwGRU", 2.0),
)

EXPECTED_DIGESTS: dict[str, str] = {
    "DGEMM@0.2": "81329771d380b3bcceec07a96b28f55645191900fe0ad3abedae7f90e7f7345e",
    "SGEMM@0.2": "49465ebff57cc0af43b85e3826fab24bd3978023219cd01184c415da73cf2c1d",
    "CM@0.2": "f8c132636e16c210a39415614b7a5fc2517c6fb40533d36696d213bbb7c43639",
    "FwBN@0.2": "5f31f29f3406f713b02f598003a5dd1ddf0c9c91adcf95cd181789b3d4deb5a7",
    "FwPool@0.2": "cd68f050b104cca199e234fac541181197b6de9d19646047769242e23ba0af37",
    "FwSoft@0.2": "07104151f501941abb4701017a391fb7e5d668872e9f48b3181de0dc3b714819",
    "BwSoft@0.2": "63803ec2981f5333a9ee8239b4a9b0da19da4adcc23a8b0ffd8729989df292e4",
    "BwPool@0.2": "781e6a4152cda2465bc5ce188ecaabda0b3f759530df5099ce3c7362bc52066f",
    "FwGRU@0.2": "3ac69f5ed7e58abcaf79a61fb4780a22beb4f1b2daf33dc902925ef1597b06ee",
    "FwLSTM@0.2": "0c33df6a0bf91863e5d36b48c0c410950c0c7cca284ff81ced3ccf0af99b5560",
    "FwBwGRU@0.2": "55c697124bf48928c32ee7d25e471f689c1d6237c9c48612c7288c7e93fb0786",
    "FwBwLSTM@0.2": "acb3658dea73b30f29d15102db243201455a0619984afb6dc97d544e881e152d",
    "BwBN@0.2": "48737005d357d488a7ba18316ba90d0152572e3c1a47135c5274a96ff04ebae1",
    "FwFc@0.2": "e08ce5a217039c05e3373ee0e2b6473d1819194216579d51c04614930b2d4db7",
    "FwAct@0.2": "99877b000fea0d75e4d5c1f12d37185ad17dc05e873781bf2103260ccff04b63",
    "FwLRN@0.2": "990a56a9467ce09b856e77b4389c7f534287442296294a817405d78c47d305f5",
    "BwAct@0.2": "2b011f429993d14eec0f8398dc166a2b6967ad6d5f839ab08cc3d5f4fbfa96b5",
    "MHA@0.2": "9b9f069e9b279ab54fb76b032229f2803ba07fe0c96ef6c24c249c851baecd66",
    "FwBwLSTM@2.0": "a71aa821e12860d1605ac95a777b9b45f115e21881985aea83da6b6d01704a9a",
    "FwBwGRU@2.0": "1d184d584349db69abbb0c155ec2d522317e8f803aeed6dfcd85cbe57d398bdd",
}


def trace_digest(trace: WorkloadTrace) -> str:
    """SHA-256 over the full, ordered content of ``trace``."""
    digest = hashlib.sha256()
    for kernel in trace.kernels:
        digest.update(f"K {kernel.name}\n".encode())
        for program in kernel.wavefronts:
            digest.update(f"W {program.workgroup_id} {program.device}\n".encode())
            for instr in program.instructions:
                if isinstance(instr, ComputeInstr):
                    digest.update(f"C {instr.vector_ops}\n".encode())
                else:
                    digest.update(
                        f"M {instr.access.value} {instr.pc} {instr.line_addresses}\n".encode()
                    )
    return digest.hexdigest()


def case_id(name: str, scale: float) -> str:
    return f"{name}@{scale}"


@pytest.mark.parametrize("name,scale", CASES, ids=[case_id(*case) for case in CASES])
def test_trace_content_is_pinned(name: str, scale: float) -> None:
    trace = get_workload(name, scale=scale).build_trace()
    assert trace_digest(trace) == EXPECTED_DIGESTS[case_id(name, scale)]


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("sequence_length", [2, 10, 37])
def test_rnn_training_trace_aliases_three_kernels(cell: str, sequence_length: int) -> None:
    workload = RnnForwardBackward(cell=cell, sequence_length=sequence_length)
    trace = workload.build_trace()
    # gate + pointwise per forward timestep, then one backward per timestep
    assert trace.num_kernels == 3 * workload.sequence_length
    assert len({id(kernel) for kernel in trace.kernels}) == 3


if __name__ == "__main__":  # re-record the digests
    for case in CASES:
        trace = get_workload(case[0], scale=case[1]).build_trace()
        print(f'    "{case_id(*case)}": "{trace_digest(trace)}",')
