"""The metric catalogue: every probe name a fully instrumented runtime exports.

The literal below was recorded before the probes moved onto
``MetricsRegistry.register_fields``; perfbench and the health rules read
these names, so a rename or a lost registration fails here.
"""

from types import SimpleNamespace

from repro.aodb import AodbDatabase, ViewDef
from repro.elastic import Autoscaler, Rebalancer, SiloSpec
from repro.ingest import IngestGateway, default_registry
from repro.kernel import Scheduler
from repro.obs import FlightRecorder, HealthMonitor, Profiler, default_slo_rules
from repro.obs.telemetry import TelemetryPump
from repro.runtime import Actor, AodbRuntime, RuntimeConfig
from repro.storage import ProvisionedKVStore


class Meter(Actor):
    """A view source; registering a view needs only its type."""


def build_instrumented_runtime() -> AodbRuntime:
    """One runtime with every metrics registrant attached."""
    sched = Scheduler()
    config = RuntimeConfig(
        enable_batching=True, enable_group_commit=True, redo_lag=1.0
    )
    runtime = AodbRuntime(
        sched,
        config=config,
        grain_storage=ProvisionedKVStore(sched),
        profiler=Profiler(enabled=True),
    )
    runtime.add_silo("silo-1")
    runtime.add_silo("silo-2")
    db = AodbDatabase(runtime)
    db.register_actor(Meter)
    db.register_view(ViewDef(name="v", source="Meter"))
    IngestGateway(SimpleNamespace(runtime=runtime), default_registry())
    monitor = HealthMonitor(runtime.metrics, default_slo_rules())
    Autoscaler(runtime, monitor, [SiloSpec("scale-1")])
    Rebalancer(runtime)
    FlightRecorder(sched).attach(runtime, monitor)
    TelemetryPump(runtime, monitor=monitor).install()
    return runtime


CATALOGUE = [
    "batch.cohort_size",
    "batch.flushes",
    "batch.immediate_flushes",
    "cluster.cpu_imbalance",
    "cluster.membership_epoch",
    "cluster.quarantined_silos",
    "cluster.silos_active",
    "cluster.silos_suspected",
    "directory.cache_hits",
    "directory.cache_invalidations",
    "directory.cache_misses",
    "elastic.pool_available",
    "elastic.rebalancer_cycles",
    "elastic.rebalancer_migrations",
    "elastic.scale_downs",
    "elastic.scale_ups",
    "elastic.silos_draining",
    "groupcommit.batched_writes",
    "groupcommit.batches",
    "groupcommit.largest_batch",
    "groupcommit.round_trips_saved",
    "health.active_alerts",
    "health.alerts_emitted",
    "health.evaluations",
    "ingest.accepted",
    "ingest.coalesced",
    "ingest.dispatched",
    "ingest.dropped",
    "ingest.parse_errors",
    "ingest.queue_depth",
    "ingest.redispatched",
    "ingest.rejected",
    "ingest.shed",
    "ingest.throttled",
    "kernel.events_processed",
    "kernel.pending_events",
    "kernel.timer_cancels",
    "kernel.timer_near_heap_depth",
    "kernel.timer_wheel_cancelled",
    "kernel.timer_wheel_occupancy",
    "kernel.virtual_time",
    "metrics.dropped_label_sets",
    "net.batched_messages",
    "net.duplicated_messages",
    "net.envelopes",
    "net.largest_envelope",
    "net.loopback_messages",
    "net.lost_messages",
    "net.messages",
    "net.partitioned_messages",
    "net.remote_messages",
    "net.total_latency_seconds",
    "pool.invocation_hit_rate",
    "pool.invocation_hits",
    "pool.invocation_misses",
    "pool.invocation_size",
    "profile.activation_overflow",
    "profile.attributed_cpu_seconds",
    "profile.method_overflow",
    "profile.turns",
    "recorder.downsampled_traces",
    "recorder.postmortems",
    "recorder.retained_evicted",
    "recorder.ring_entries",
    "runtime.activation_failures",
    "runtime.activations_collected",
    "runtime.activations_crashed",
    "runtime.activations_created",
    "runtime.activations_replaced",
    "runtime.ask_latency_seconds",
    "runtime.asks",
    "runtime.calls_retried",
    "runtime.deadlines_exceeded",
    "runtime.dropped_messages",
    "runtime.errors",
    "runtime.migration_failures",
    "runtime.migrations",
    "runtime.reminders_delivered",
    "runtime.replies",
    "runtime.silos_drained",
    "runtime.silos_evicted",
    "runtime.silos_quarantined",
    "runtime.silos_rejoined",
    "runtime.silos_suspected",
    "runtime.tells",
    "runtime.total_activations",
    "silo.activations{silo=silo-1}",
    "silo.activations{silo=silo-2}",
    "silo.cpu_utilization{silo=silo-1}",
    "silo.cpu_utilization{silo=silo-2}",
    "silo.mailbox_depth{silo=silo-1}",
    "silo.mailbox_depth{silo=silo-2}",
    "storage.batched_round_trips_saved",
    "storage.block_bytes",
    "storage.block_skip_rate",
    "storage.blocks_decoded",
    "storage.blocks_evicted",
    "storage.blocks_sealed",
    "storage.compression_ratio",
    "storage.fenced_writes",
    "storage.head_bytes",
    "storage.rcu_consumed",
    "storage.reads",
    "storage.summary_answers",
    "storage.throttle_stall_seconds",
    "storage.throttled_reads",
    "storage.throttled_writes",
    "storage.wcu_consumed",
    "storage.write_batches",
    "storage.writes",
    "telemetry.tick_errors",
    "telemetry.ticks",
    "trace.dropped_spans",
    "trace.retained_traces",
    "trace.spans_dropped",
    "trace.spans_recorded",
    "views.deltas_emitted",
    "views.duplicate_flushes",
    "views.failed_flushes",
    "views.flushes",
    "views.fold_seconds",
    "views.pending_deltas",
    "views.registered",
    "views.staleness_seconds",
    "wal.appends",
    "wal.pending_records",
    "wal.replayed_records",
    "wal.skipped_appends",
    "wal.truncated_records",
]


def test_snapshot_keys_match_the_catalogue():
    runtime = build_instrumented_runtime()
    assert sorted(runtime.metrics.snapshot()) == CATALOGUE


def test_plain_store_exports_only_fenced_writes():
    runtime = AodbRuntime()
    storage = sorted(k for k in runtime.metrics.snapshot() if k.startswith("storage."))
    assert storage == [
        "storage.block_bytes",
        "storage.block_skip_rate",
        "storage.blocks_decoded",
        "storage.blocks_evicted",
        "storage.blocks_sealed",
        "storage.compression_ratio",
        "storage.fenced_writes",
        "storage.head_bytes",
        "storage.summary_answers",
    ]
