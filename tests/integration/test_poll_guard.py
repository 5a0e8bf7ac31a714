"""Digest and event-count pins for the 18-workload x {CacheR, CacheRW} grid.

A request that finds its cache's MSHR file full re-polls every 64 cycles,
and where each poll sits in its cycle's event bucket decides the order of
port grants.  These pins cover every workload under both static write
policies at scale 0.5 on an 8-CU system: the full ``RunReport.to_dict()``
digest of each cell and the number of events its queue executed.  A change
to how the MSHR-full polls are scheduled or fired cannot move a grant, a
counter or the event accounting without failing here.

The FwAct, FwLRN and BwAct cells under CacheRW must block on full L1
MSHR files, so the grid really exercises the polling path (the L2's
256-entry file does not fill at this scale).

If a change alters these pins on purpose, re-record with
``PYTHONPATH=src python tests/integration/test_poll_guard.py`` and say so
in the commit.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import scaled_config
from repro.session import SimulationSession
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

CONFIG = scaled_config(8)
SCALE = 0.5
POLICIES = ("CacheR", "CacheRW")
#: the throughput-sensitive cells whose stalls come from MSHR exhaustion
POLLING = ("FwAct", "FwLRN", "BwAct")

#: "workload/policy" -> (report digest, queue.executed)
EXPECTED = {
    "DGEMM/CacheR": ("09134bc4f84e02e79b11772a2cc84f310b494e72e7098a7edcb0f68840b0834d", 88993),
    "DGEMM/CacheRW": ("6dbff6bae28060806f310fc098967babd20df4752cb93c4f39e4949fce785a32", 87998),
    "SGEMM/CacheR": ("292294fc2ab9f80c1fd18ed7849fb4c906582fdad59d96d5c9aa544e84d71981", 80129),
    "SGEMM/CacheRW": ("103cd3825d24d00684483351576ed1683af6ee86c777f1af42eebdcbea38d408", 79142),
    "CM/CacheR": ("1bcdb9bbfd3aada180da43056f26c1f1a8295711ef32605872d83c2ad120951b", 41191),
    "CM/CacheRW": ("20146c49945bac9f80f5c1487f9ccf6026050396debab81f50af334b1367ce49", 42208),
    "FwBN/CacheR": ("17afb0cf27fb31db66ecd0e84e2b508608a04fe7e4ad0e53efafba492d401be8", 87916),
    "FwBN/CacheRW": ("3443fcb57e3f8db3dea30ac6f13ffdfa8dd00ee85dc7486fc81ef30e2ae55382", 88784),
    "FwPool/CacheR": ("63666189235a69a1824a9ad29cca83ef931490d1094d9c646bf6c702d83df926", 18357),
    "FwPool/CacheRW": ("e94c188c342750c8dab68b5a440579476fef90fb19d14e28f03dbc759b178fe8", 18825),
    "FwSoft/CacheR": ("41ed75ee7e311781a60252d750aa1e1524673fde8a2b88dccf8ac303a7525cb2", 24147),
    "FwSoft/CacheRW": ("521b25180b88b899393ddcaa37059775a9bdc838ba2fa5d44507f0525f0e6140", 25170),
    "BwSoft/CacheR": ("865e688256c4a03ebfe5fd0d9f0241a086a9335221cefcbf9cdb1308dbb38e88", 25969),
    "BwSoft/CacheRW": ("5259fe415581d44474f11df3a77e2feb016eb8e33e0b749bf71a88e3630f6c53", 26758),
    "BwPool/CacheR": ("7ef72854d30aa3c3dbdcaabad6f9d579259a35f6bcd21e1b3d34dd90da5cfc21", 15299),
    "BwPool/CacheRW": ("5eec81ec2d7c046cdcdd71d73ed3d998375583bb31bb017f3b05f61dbf4b8a6c", 15312),
    "FwGRU/CacheR": ("7b9f5470049b62c0e05b493af234a0428fc8d9c60f07d5bc11c9bf232c94f14b", 18013),
    "FwGRU/CacheRW": ("f516c1005d3baa74f98f394717c3050f125528877b12683abd22dd88ba826d15", 18023),
    "FwLSTM/CacheR": ("1445c1c4ec8be36846085474e4db2fdeebe18b67132faf19b3968d2a112eaebb", 23743),
    "FwLSTM/CacheRW": ("6f3f59870037781ac1fbc9b7386ab85abb9ca49f905d4fde70d16cf00edb5a1e", 23761),
    "FwBwGRU/CacheR": ("2356f116dbc921c3e38fe72ac92d34516116d89fb9970739d7d63f2b0d7bc4e7", 28928),
    "FwBwGRU/CacheRW": ("1e85e44b49bed9c80e120f855bfb7773525462d39e628073a7f8677e8bf59933", 28927),
    "FwBwLSTM/CacheR": ("e9e9be9ebbb1cb67fcf4a4dc7614c131bb20e9914f160d3845ecccff27afa210", 38020),
    "FwBwLSTM/CacheRW": ("9400ce0e0de692e4f9948e3ddf3bb1ef484c01cb497a0fce2812d592ca529f75", 38041),
    "BwBN/CacheR": ("d927a45bfcd28d3743a245e6b9645daa2e250d33651a7c05ec21e826b2b358af", 62095),
    "BwBN/CacheRW": ("b1a0677fd2793469aa4569e8611429776400b5645a9ee51e43da6b2055ffb5e1", 84931),
    "FwFc/CacheR": ("f9b994edf922097496a61fe6eb09879f78c719e2589b325cd25683043b1b223c", 59311),
    "FwFc/CacheRW": ("13b97b33192676cea456cfd9eab186efc967826766b4465e6303009eb83dfb84", 61347),
    "FwAct/CacheR": ("63869c2845ede3b662aafe84075393228b073a89ef3712bd0e7973faf877d200", 298708),
    "FwAct/CacheRW": ("e72ea87bd610561b8a1d543bb04dc8e5c331c22dc19d2b9b8372b01e3bcc7be6", 223960),
    "FwLRN/CacheR": ("cbe9077b53b3cd19d8aabd530936716638d91d537fc6aacb3251847bf6cbd2d3", 261168),
    "FwLRN/CacheRW": ("8441c892e71ead5ae4e15756317aebfb68d2dd5a8bbd2b8331600a1029b2c9eb", 216437),
    "BwAct/CacheR": ("a989062ac62eb6a17edf4f8f14ef9f9e5c5f27e1fa7181ce23a6de02f5478c01", 325465),
    "BwAct/CacheRW": ("ada055f5ba202b8081197afef6e41a996b8e1e15070d3c9a3afc1fdd92fec20a", 269973),
    "MHA/CacheR": ("930f429537f8f59bcbf901bf61e5f2883620e688e96b4750577c6b31b513c245", 23659),
    "MHA/CacheRW": ("1ce90e211dcb9e82f83e8e11a9feb820a6fe54569412e4f399b796538a670986", 21573),
}


def run_cell(workload: str, policy: str):
    session = SimulationSession(policy=policy, config=CONFIG)
    report = session.run(get_workload(workload, scale=SCALE))
    encoded = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
    return report, digest, session.sim.queue.executed


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_cell_is_pinned(workload, policy):
    report, digest, executed = run_cell(workload, policy)
    assert (digest, executed) == EXPECTED[f"{workload}/{policy}"]
    if policy == "CacheRW" and workload in POLLING:
        assert report.get("l1.blocked_mshr_full") > 0


if __name__ == "__main__":
    for workload in WORKLOAD_NAMES:
        for policy in POLICIES:
            _, digest, executed = run_cell(workload, policy)
            print(f'    "{workload}/{policy}": ("{digest}", {executed}),')
