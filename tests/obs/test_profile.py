"""Unit tests for the continuous profiler: records, caps, coverage, report."""

import pytest

from repro.kernel.scheduler import Scheduler
from repro.obs.profile import (
    ProfileRecord,
    Profiler,
    build_report,
    mailbox_backlogs,
)
from repro.runtime import AodbRuntime
from repro.runtime.key import ActorKey


def test_record_accumulates_and_serializes():
    record = ProfileRecord("Sensor.ingest")
    record.calls += 2
    record.cpu_service += 0.5
    record.cpu_wait += 0.1
    record.queue_wait += 0.2
    record.storage_wait += 0.05
    assert record.busy == pytest.approx(0.85)
    view = record.as_dict()
    assert view["label"] == "Sensor.ingest"
    assert view["calls"] == 2
    assert view["cpu_service"] == 0.5


def test_method_records_are_get_or_create_and_sorted():
    profiler = Profiler(enabled=True)
    hot = profiler.method_record("Sensor", "ingest")
    cold = profiler.method_record("Sensor", "latest")
    assert profiler.method_record("Sensor", "ingest") is hot
    hot.cpu_service += 1.0
    cold.cpu_service += 0.1
    rows = profiler.method_rows()
    assert [row.label for row in rows] == ["Sensor.ingest", "Sensor.latest"]


def test_activation_records_keyed_by_actor_key():
    profiler = Profiler(enabled=True)
    key = ActorKey("Sensor", "org-0/s-1")
    record = profiler.activation_record(key)
    assert profiler.activation_record(ActorKey("Sensor", "org-0/s-1")) is record
    assert record.label == "Sensor/org-0/s-1"


def test_method_cap_collapses_into_other_bucket():
    profiler = Profiler(enabled=True, max_methods=2)
    profiler.method_record("A", "m1").cpu_service += 1.0
    profiler.method_record("A", "m2").cpu_service += 1.0
    overflow = profiler.method_record("A", "m3")
    overflow.cpu_service += 5.0
    assert overflow.label == "(other methods)"
    assert profiler.method_overflow == 1
    # Attribution stays complete: the sink's CPU still counts.
    assert profiler.attributed_cpu() == pytest.approx(7.0)
    assert any(r.label == "(other methods)" for r in profiler.method_rows())


def test_activation_cap_collapses_into_other_bucket():
    profiler = Profiler(enabled=True, max_activations=1)
    profiler.activation_record(ActorKey("S", "a")).cpu_service += 1.0
    sink = profiler.activation_record(ActorKey("S", "b"))
    sink.calls += 1
    assert sink.label == "(other activations)"
    assert profiler.activation_overflow == 1
    labels = [r.label for r in profiler.hot_activations()]
    assert "(other activations)" in labels


def test_hot_activations_returns_top_by_cpu():
    profiler = Profiler(enabled=True)
    for index in range(5):
        record = profiler.activation_record(ActorKey("S", f"a{index}"))
        record.cpu_service += float(index)
    top = profiler.hot_activations(top=2)
    assert [r.label for r in top] == ["S/a4", "S/a3"]


def test_coverage_against_kernel_ledger():
    profiler = Profiler(enabled=True)
    assert profiler.coverage(0.0) == 1.0  # nothing ran, nothing missing
    profiler.method_record("S", "m").cpu_service += 1.0
    assert profiler.coverage(0.0) == float("inf")  # silo churn case
    assert profiler.coverage(2.0) == pytest.approx(0.5)
    assert profiler.coverage(1.0) == pytest.approx(1.0)


def test_clear_resets_everything():
    profiler = Profiler(enabled=True)
    profiler.turns = 7
    profiler.method_record("S", "m").cpu_service += 1.0
    profiler.activation_record(ActorKey("S", "a")).calls += 1
    profiler.clear()
    assert profiler.turns == 0
    assert profiler.attributed_cpu() == 0.0
    assert profiler.method_rows() == []
    assert profiler.hot_activations() == []


def test_register_metrics_exports_probes():
    profiler = Profiler(enabled=True)
    runtime = AodbRuntime(profiler=profiler)
    profiler.turns = 3
    profiler.method_record("S", "m").cpu_service += 0.25
    snapshot = runtime.metrics.snapshot()
    assert snapshot["profile.turns"] == 3
    assert snapshot["profile.attributed_cpu_seconds"] == pytest.approx(0.25)
    assert snapshot["profile.method_overflow"] == 0


class _FakeActivation:
    def __init__(self, key, depth):
        self.key = key
        self.mailbox = [None] * depth


class _FakeSilo:
    def __init__(self, silo_id, depths):
        self.silo_id = silo_id
        self._activations = [
            _FakeActivation(ActorKey("S", f"a{i}"), depth)
            for i, depth in enumerate(depths)
        ]

    def activations(self):
        return list(self._activations)


def test_mailbox_backlogs_sorted_and_filtered():
    silos = [_FakeSilo("s1", [0, 3]), _FakeSilo("s2", [5, 1])]
    rows = mailbox_backlogs(silos, top=2)
    assert rows == [("S/a0", 5, "s2"), ("S/a1", 3, "s1")]
    # minimum filters shallow mailboxes entirely.
    assert mailbox_backlogs(silos, top=10, minimum=6) == []


def test_build_report_sums_kernel_ledger():
    scheduler = Scheduler()

    class _CpuSilo(_FakeSilo):
        def __init__(self, silo_id, busy):
            super().__init__(silo_id, [])
            from repro.kernel.resources import CpuResource

            self.cpu = CpuResource(scheduler, cores=1)
            self.cpu.busy_seconds = busy

    profiler = Profiler(enabled=True)
    profiler.method_record("S", "m").cpu_service += 1.5
    profiler.turns = 4
    report = build_report(profiler, [_CpuSilo("s1", 1.0), _CpuSilo("s2", 0.5)])
    assert report.total_cpu_seconds == pytest.approx(1.5)
    assert report.attributed_cpu_seconds == pytest.approx(1.5)
    assert report.coverage == pytest.approx(1.0)
    assert report.turns == 4
    assert report.rows[0].label == "S.m"
