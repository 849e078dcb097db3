"""Shape tests for the per-layer ledger.

Run from the repository root::

    python3 -m pytest perfbench/test_ledger.py
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import pytest

import ledger


def span(span_id, parent_id, start, end, caller="silo-0", **parts):
    fields = {"queue": 0.0, "cpu": 0.0, "network": 0.0, "storage": 0.0}
    fields.update(parts)
    return SimpleNamespace(
        span_id=span_id, parent_id=parent_id, start=start, end=end,
        caller=caller, **fields,
    )


class FakeSampler:
    interval = ledger.SAMPLE_INTERVAL

    def __init__(self, modules):
        self._modules = Counter(modules)

    def modules(self):
        return self._modules


def counts():
    return {
        name: 1.0
        for name in ledger.PER_LAYER
        if not name.endswith(("self_share", "vshare_p99"))
        and name != "obs.trace_overhead"
    }


def make_doc(spans=()):
    sampler = FakeSampler({
        "repro.kernel.scheduler": 50,
        "repro.runtime.activation": 30,
        "repro.bench.metrics": 5,
        "heapq": 10,
        "workloads": 5,
    })
    return ledger.build_ledger("ingest", 7, sampler, list(spans), counts(), 1.05)


@pytest.mark.parametrize(
    ("filename", "module", "layer"),
    [
        ("/x/src/repro/kernel/scheduler.py", "repro.kernel.scheduler", "kernel"),
        ("/x/src/repro/storage/tsblocks.py", "repro.storage.tsblocks", "storage"),
        ("/x/src/repro/bench/workload.py", "repro.bench.workload", "other"),
        ("/x/src/repro/errors.py", "repro.errors", "other"),
        ("/usr/lib/python3/heapq.py", "heapq", "other"),
        ("/x/perfbench/workloads.py", "workloads", "other"),
    ],
)
def test_module_and_layer_map(filename, module, layer):
    assert ledger.module_of(filename) == module
    assert ledger.layer_of(module) == layer


def test_built_ledger_is_valid_and_shares_sum_to_one():
    doc = make_doc()
    assert ledger.validate_ledger(doc) == []
    assert set(doc["self_share"]) == set(ledger.LAYERS)
    assert sum(doc["self_share"].values()) == pytest.approx(1.0)
    assert doc["self_share"]["kernel"] == pytest.approx(0.5)
    assert doc["self_share"]["other"] == pytest.approx(0.2)
    assert doc["modules"]["heapq"]["layer"] == "other"
    assert set(doc["metrics"]) == set(ledger.PER_LAYER)


def test_virtual_split_follows_the_waited_for_child():
    spans = [
        # A client request of 1.0 s: 0.1 cpu, then waits on its child.
        span(1, None, 0.0, 1.0, caller="client", cpu=0.1, network=0.05),
        span(2, 1, 0.2, 0.9, queue=0.3, storage=0.2),
        # A one-way tell that outlives the request is not waited for.
        span(3, 1, 0.2, 5.0, cpu=4.0),
        # A request from inside the system is not a client request.
        span(4, None, 0.0, 9.0, cpu=9.0),
    ]
    split, used, clients = ledger.virtual_split(spans)
    assert (used, clients) == (1, 1)
    assert split == pytest.approx(
        {"queue": 0.3, "cpu": 0.1, "network": 0.05, "storage": 0.2,
         "other": 0.35}
    )
    doc = make_doc(spans)
    assert ledger.validate_ledger(doc) == []
    assert sum(doc["vshare_p99"].values()) == pytest.approx(1.0)
    assert doc["metrics"]["runtime.queue_vshare_p99"] == pytest.approx(0.3)


def test_virtual_split_without_client_requests_is_all_other():
    split, used, clients = ledger.virtual_split([])
    assert (used, clients) == (0, 0)
    assert split["other"] == 1.0


def test_validate_flags_broken_ledgers():
    doc = make_doc()
    doc["self_share"]["kernel"] += 0.1
    assert any("self shares sum" in p for p in ledger.validate_ledger(doc))

    doc = make_doc()
    del doc["metrics"]["net.lost"]
    assert any("PER_LAYER" in p for p in ledger.validate_ledger(doc))

    doc = make_doc()
    doc["vshare_p99"]["queue"] = -0.5
    doc["vshare_p99"]["other"] += 0.5
    assert any("negative" in p for p in ledger.validate_ledger(doc))

    doc = make_doc()
    doc["modules"]["repro.net.network"] = {"layer": "kernel", "self_share": 0.0}
    assert any("mapped to" in p for p in ledger.validate_ledger(doc))
