"""The benchmark's three workloads, built through the package's public API.

Each workload is a function ``run_<name>(seed, tracing)`` that builds a
fresh deployment (timed as set-up), drives one fixed stretch of virtual
time (timed as the measured phase), checks the outputs and returns a
:class:`WorkloadRun`.  Everything the program receives is generated from
the seed; two calls with the same seed give bit-identical virtual results.

The measured phase is driven in slices of :data:`SLICE` virtual seconds
through ``Scheduler.run_for``.  Between slices no simulation code runs, so
the driver can sample the kernel's pending-event gauge without adding an
event of its own (an added sampler task would perturb event order).
"""

from __future__ import annotations

import contextlib
import gc
import math
import time
from dataclasses import dataclass, field

from repro.aodb.views import ViewDef
from repro.bench.instances import M5_LARGE, M5_XLARGE
from repro.bench.metrics import LatencyRecorder, percentile
from repro.bench.workload import build_deployment, provision, synth_value
from repro.kernel.scheduler import Scheduler
from repro.net.faults import NetworkFaultInjector
from repro.net.latency import ConstantLatency
from repro.runtime.persistence import WritePolicy
from repro.runtime.resilience import RetryPolicy
from repro.shm.channel import PhysicalSensorChannel
from repro.shm.platform import channel_id_for
from repro.storage import ProvisionedKVStore
from repro.storage.tsblocks import TieredSeries

#: Host time is the process's CPU time: the measured code is single-threaded
#: and CPU-bound, and CPU time does not count the time other processes on
#: a shared machine hold the core.
host_clock = time.process_time
#: Virtual seconds between two samples of the kernel's pending-event gauge.
SLICE = 0.01
#: Points per channel per insert request, and their spacing (the paper's
#: client: 10 readings per physical channel, one request per sensor per
#: second).
POINTS_PER_CHANNEL = 10
SAMPLE_DT = 0.1
WAVE_JITTER = 0.02
#: Measurement windows are 1 virtual second; the first and last are
#: trimmed, as in the paper's §6.1 protocol (repro.bench.metrics).
WINDOW = 1.0

#: Query kinds a workload may issue; each gets its own latency series.
READ_KINDS = ("live", "raw", "agg", "view")


@dataclass
class WorkloadRun:
    """Everything one workload run measured.

    ``virtual`` and ``counters`` are deterministic functions of the seed;
    ``setup_s`` and ``run_s`` (the measured phase) are host CPU seconds
    (:data:`host_clock`).
    """

    name: str
    setup_s: float
    run_s: float
    attempted: int
    failed: int
    virtual: dict[str, float]
    samples: dict[str, int]
    counters: dict[str, float]
    problems: list[str]
    spans: list = field(default_factory=list)


class _Ops:
    """Client-side operation ledger: latencies, failures, acked points."""

    def __init__(self) -> None:
        self.recorder = LatencyRecorder()
        self.failures: dict[str, list[tuple[float, float]]] = {}
        self.attempted = 0
        self.points_acked = 0
        self.lateness = 0.0

    def ok(self, kind: str, sent: float, now: float) -> None:
        self.recorder.record(kind, sent, now - sent)

    def fail(self, kind: str, sent: float, now: float) -> None:
        self.failures.setdefault(kind, []).append((sent, now - sent))

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.failures.values())

    @property
    def completed(self) -> int:
        return len(self.recorder)

    def latencies(self, kind: str, start: float, end: float) -> list[float]:
        """Latencies of ops of ``kind`` sent in [start, end), sorted.

        A failed op ranks slower than every completed op: it enters the
        series at the larger of its time-to-failure and the slowest
        completed latency, after every completed op.
        """
        done = sorted(
            r.latency
            for r in self.recorder.records(kind)
            if start <= r.sent_at < end
        )
        slowest = done[-1] if done else 0.0
        failed = sorted(
            max(latency, slowest)
            for sent, latency in self.failures.get(kind, ())
            if start <= sent < end
        )
        return done + failed


def _drive(scheduler, main) -> float:
    """Run ``main`` to completion in slices; return the pending-event peak."""
    task = scheduler.spawn(main, name="workload")
    peak = scheduler.pending_events
    while not task.done():
        scheduler.run_for(SLICE)
        pending = scheduler.pending_events
        if pending > peak:
            peak = pending
    task.result()
    return float(peak)


def _wave_samples(wave_time: float) -> tuple[tuple, tuple]:
    times = [wave_time + i * SAMPLE_DT for i in range(POINTS_PER_CHANNEL)]
    return (
        tuple((ts, synth_value(0, ts)) for ts in times),
        tuple((ts, synth_value(1, ts)) for ts in times),
    )


def _sensor_fleet(
    deployment,
    ops: _Ops,
    stop: float,
    acked: dict | None = None,
    waves: bool = True,
):
    """Closed-loop sensors sending one 20-point request a second until ``stop``.

    With ``waves`` this is the paper's client: the next wave starts one
    second after the previous one began, or as soon as every request of it
    completed when that takes longer, so the slowest request of a wave
    holds back the whole fleet.  Without it every sensor loops on its own:
    its next request goes one second after its previous one was sent, or
    as soon as that one completed.  ``acked`` (when given) collects the
    timestamps of acked requests per channel.
    """
    scheduler = deployment.scheduler
    platform = deployment.platform
    jitter_rng = deployment.rng.stream("bench-wave-jitter")
    channels = {
        sensor_id: (channel_id_for(sensor_id, 0), channel_id_for(sensor_id, 1))
        for sensor_id in deployment.report.sensor_ids
    }

    async def one_insert(sensor_id: str, samples) -> None:
        ids = channels[sensor_id]
        sent = scheduler.now
        ops.attempted += 1
        try:
            await platform.ingest(
                sensor_id, {ids[0]: samples[0], ids[1]: samples[1]}
            )
        except Exception:  # any client-visible failure counts as failed
            ops.fail("insert", sent, scheduler.now)
            return
        ops.ok("insert", sent, scheduler.now)
        ops.points_acked += len(samples[0]) + len(samples[1])
        if acked is not None:
            for channel_id, batch in zip(ids, samples):
                acked.setdefault(channel_id, []).extend(ts for ts, _ in batch)

    async def jittered(sensor_id: str, jitter: float, samples) -> None:
        await scheduler.sleep(jitter)
        await one_insert(sensor_id, samples)

    async def fleet() -> None:
        while scheduler.now < stop:
            wave_time = scheduler.now
            samples = _wave_samples(wave_time)
            await scheduler.gather(
                [
                    scheduler.spawn(
                        jittered(
                            sensor_id, jitter_rng.uniform(0, WAVE_JITTER), samples
                        )
                    )
                    for sensor_id in channels
                ]
            )
            next_wave = wave_time + 1.0
            if scheduler.now < next_wave:
                await scheduler.sleep(next_wave - scheduler.now)

    async def sensor(sensor_id: str, due: float) -> None:
        while due < stop:
            if scheduler.now < due:
                await scheduler.at(due)
            await one_insert(sensor_id, _wave_samples(scheduler.now))
            due = max(due + 1.0, scheduler.now)

    async def sensors() -> None:
        start = scheduler.now
        await scheduler.gather(
            [
                scheduler.spawn(
                    sensor(sensor_id, start + jitter_rng.uniform(0, WAVE_JITTER))
                )
                for sensor_id in channels
            ]
        )

    return fleet() if waves else sensors()


def _counter_snapshot(deployment) -> dict[str, float]:
    totals = dict(deployment.runtime.metrics.cluster_totals())
    stats = deployment.runtime.tsblock_stats
    totals["storage.points"] = float(stats.head_points + stats.sealed_points)
    totals["storage.blocks_considered"] = float(stats.blocks_considered)
    totals["storage.blocks_skipped"] = float(stats.blocks_skipped)
    return totals


def _insert_metrics(ops: _Ops, start: float, stop: float) -> dict[str, float]:
    summary = ops.recorder.summarize("insert", WINDOW, start, stop)
    if summary is None:
        raise RuntimeError("no insert completed inside the trimmed windows")
    # Percentiles over requests sent inside the trimmed windows.
    lat = ops.latencies("insert", start + WINDOW, stop - WINDOW)
    return {
        "insert_rps": summary.throughput_mean,
        "insert_p50_ms": percentile(lat, 0.50) * 1000.0,
        "insert_p99_ms": percentile(lat, 0.99) * 1000.0,
    }


def _finish(
    name: str,
    ops: _Ops,
    phase: "Phase",
    setup_s: float,
    problems: list[str],
    extra_virtual: dict[str, float] | None = None,
    samples: dict[str, int] | None = None,
) -> WorkloadRun:
    """Reduce one run: end-to-end virtual metrics plus layer counters."""
    before, after, start, stop = phase.before, phase.after, phase.start, phase.stop
    delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    ops_done = max(1, ops.completed)
    attempted = max(1, ops.attempted)
    virtual = _insert_metrics(ops, start, stop)
    virtual["completed_frac"] = 1.0 - ops.failed / attempted
    points = after["storage.points"]
    virtual["bytes_per_point"] = (
        after["storage.block_bytes"] + after["storage.head_bytes"]
    ) / max(1.0, points)
    virtual.update(extra_virtual or {})
    all_samples = {"insert": len(ops.latencies("insert", start + WINDOW, stop - WINDOW))}
    all_samples.update(samples or {})

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    reads = sum(len(ops.recorder.records(k)) for k in ("raw", "agg"))
    inserts = len(ops.recorder.records("insert"))
    counters = {
        "kernel.events_per_op": ratio(delta["kernel.events_processed"], ops_done),
        "kernel.pending_peak": phase.pending_peak,
        "kernel.timer_cancels": delta["kernel.timer_cancels"],
        "kernel.cpu_util": phase.cpu_util,
        "runtime.asks_per_op": ratio(delta["runtime.asks"], ops_done),
        "runtime.dir_cache_hit_rate": ratio(
            delta["directory.cache_hits"],
            delta["directory.cache_hits"] + delta["directory.cache_misses"],
        ),
        "runtime.pool_hit_rate": ratio(
            delta["pool.invocation_hits"],
            delta["pool.invocation_hits"] + delta["pool.invocation_misses"],
        ),
        "runtime.retries": delta["runtime.calls_retried"],
        "runtime.deadlines_exceeded": delta["runtime.deadlines_exceeded"],
        "net.msgs_per_envelope": ratio(delta["net.messages"], delta["net.envelopes"]),
        "net.remote_frac": ratio(delta["net.remote_messages"], delta["net.messages"]),
        "net.lost": delta["net.lost_messages"],
        "net.delta_flushes": delta.get("views.flushes", 0.0),
        "net.deltas_per_flush": ratio(
            delta.get("views.deltas_emitted", 0.0), delta.get("views.flushes", 0.0)
        ),
        # Cumulative: on ``dashboard`` the sealing happens in set-up.
        "storage.blocks_sealed": after["storage.blocks_sealed"],
        "storage.blocks_decoded_per_query": ratio(
            delta["storage.blocks_decoded"], reads
        ),
        "storage.block_skip_rate": ratio(
            delta["storage.blocks_skipped"], delta["storage.blocks_considered"]
        ),
        # Of the sealed blocks a query overlapped, the share answered from
        # the block summary without decoding.
        "storage.summary_answer_rate": ratio(
            delta["storage.summary_answers"],
            delta["storage.summary_answers"] + delta["storage.blocks_decoded"],
        ),
        "storage.compression_ratio": after["storage.compression_ratio"],
        "storage.kv_writes_per_insert": ratio(
            delta.get("storage.writes", 0.0), inserts
        ),
        "storage.groupcommit_batch_size": ratio(
            delta["groupcommit.batched_writes"], delta["groupcommit.batches"]
        ),
        "storage.throttled": delta.get("storage.throttled_reads", 0.0)
        + delta.get("storage.throttled_writes", 0.0),
        "shm.points_per_op": ratio(ops.points_acked, ops_done),
        "aodb.view_deltas": delta.get("views.deltas_emitted", 0.0),
    }
    virtual["generator_lateness_ms"] = ops.lateness * 1000.0
    return WorkloadRun(
        name=name,
        setup_s=setup_s,
        run_s=phase.run_s,
        attempted=ops.attempted,
        failed=ops.failed,
        virtual=virtual,
        samples=all_samples,
        counters=counters,
        problems=problems,
        spans=phase.spans,
    )


@dataclass
class Phase:
    """The measured phase: counter snapshots around it and its host time."""

    before: dict[str, float]
    after: dict[str, float]
    start: float
    stop: float
    run_s: float
    pending_peak: float
    cpu_util: float
    spans: list


def _measure(deployment, main_factory, duration: float, profiler=None) -> Phase:
    """Run ``main_factory(stop)`` as the timed, measured phase.

    ``profiler`` is an optional context manager entered around the phase.
    """
    scheduler = deployment.scheduler
    silos = deployment.runtime.silos()
    for silo in silos:
        silo.cpu.reset_accounting()
    tracer = deployment.runtime.tracer
    tracer.clear()
    # Start the timed phase from an empty young generation, so collector
    # passes fall at the same points in every repetition.
    gc.collect()
    before = _counter_snapshot(deployment)
    start = scheduler.now
    main = main_factory(start + duration)
    with profiler if profiler is not None else contextlib.nullcontext():
        t0 = host_clock()
        peak = _drive(scheduler, main)
        run_s = host_clock() - t0
    return Phase(
        before=before,
        after=_counter_snapshot(deployment),
        start=start,
        stop=start + duration,
        run_s=run_s,
        pending_peak=peak,
        cpu_util=sum(s.cpu.utilization() for s in silos) / len(silos),
        spans=tracer.spans() if tracer.enabled else [],
    )


def _build(silos, seed: int, tracing: bool, **kwargs):
    deployment = build_deployment(silos, seed=seed, tracing=tracing, **kwargs)
    # A traced run must keep every span of the measured phase.
    deployment.runtime.tracer.max_spans = 1 << 62
    return deployment


# -- ingest ------------------------------------------------------------------

INGEST_SENSORS = 3600
INGEST_SECONDS = 8.0


def run_ingest(seed: int, tracing: bool, profiler=None) -> WorkloadRun:
    """Fig 6 past the fast path's capacity: one m5.large, 3,600 sensors."""
    gc.collect()
    t0 = host_clock()
    deployment = _build([M5_LARGE], seed, tracing)
    scheduler = deployment.scheduler
    scheduler.run_until_complete(provision(deployment, INGEST_SENSORS))
    setup_s = host_clock() - t0

    ops = _Ops()
    phase = _measure(
        deployment,
        lambda stop: _sensor_fleet(deployment, ops, stop),
        INGEST_SECONDS,
        profiler,
    )
    problems: list[str] = []

    # Points stored equal points acked: every physical channel's count.
    async def stored_points() -> int:
        total = 0
        for sensor_id in deployment.report.sensor_ids:
            for index in (0, 1):
                agg = await deployment.platform.range_aggregate(
                    channel_id_for(sensor_id, index), -math.inf, math.inf
                )
                total += agg["count"]
        return total

    stored = scheduler.run_until_complete(stored_points())
    if stored != ops.points_acked:
        problems.append(f"ingest: {stored} points stored but {ops.points_acked} acked")
    return _finish("ingest", ops, phase, setup_s, problems)


# -- dashboard ---------------------------------------------------------------

DASHBOARD_SENSORS = 400
DASHBOARD_SECONDS = 10.0
DASHBOARD_WINDOW = 4096
#: Points preloaded per physical channel before the measured phase.
PRELOAD_POINTS = 1024
PRELOAD_CHUNK = 128
PRELOAD_DT = 0.1
#: Open-loop read rate per organization per query kind (1/s).
READ_RATE = 30.0
RAW_RANGE_SECONDS = 30.0
VIEW_NAME = "points-by-org"
VIEW_STALENESS_BOUND = 0.25
STALENESS_SAMPLE_EVERY = 0.01
#: Channels whose range_aggregate is checked against the raw fold.
CHECKED_CHANNELS = 16


def _preload(deployment, start: float) -> int:
    """Write ``PRELOAD_POINTS`` of history per channel ending at ``start``."""
    scheduler = deployment.scheduler
    platform = deployment.platform
    first = start - PRELOAD_POINTS * PRELOAD_DT

    async def one_sensor(sensor_id: str) -> int:
        stored = 0
        ids = (channel_id_for(sensor_id, 0), channel_id_for(sensor_id, 1))
        for chunk in range(0, PRELOAD_POINTS, PRELOAD_CHUNK):
            times = [
                first + (chunk + i) * PRELOAD_DT for i in range(PRELOAD_CHUNK)
            ]
            stored += await platform.ingest(
                sensor_id,
                {
                    ids[ch]: [(ts, synth_value(ch, ts)) for ts in times]
                    for ch in (0, 1)
                },
            )
        return stored

    async def everyone() -> int:
        counts = await scheduler.gather(
            [
                scheduler.spawn(one_sensor(sensor_id))
                for sensor_id in deployment.report.sensor_ids
            ]
        )
        return sum(counts)

    return scheduler.run_until_complete(everyone())


def run_dashboard(seed: int, tracing: bool, profiler=None) -> WorkloadRun:
    """Figs 8/9 with a read-heavy open-loop mix on one m5.xlarge."""
    gc.collect()
    t0 = host_clock()
    deployment = _build([M5_XLARGE], seed, tracing, window_capacity=DASHBOARD_WINDOW)
    scheduler = deployment.scheduler
    database = deployment.database
    platform = deployment.platform
    scheduler.run_until_complete(provision(deployment, DASHBOARD_SENSORS))
    history_start = scheduler.now - PRELOAD_POINTS * PRELOAD_DT
    preloaded = _preload(deployment, scheduler.now)
    database.register_view(
        ViewDef(
            name=VIEW_NAME,
            source="Sensor",
            group_by="org_id",
            kind="aggregate",
            staleness_bound=VIEW_STALENESS_BOUND,
        )
    )
    view = database.view(VIEW_NAME)
    setup_s = host_clock() - t0

    ops = _Ops()
    staleness: list[float] = []
    org_ids = list(deployment.report.org_ids)
    org_channels = {
        org_id: [
            channel_id_for(sensor_id, ch)
            for sensor_id in deployment.report.sensor_ids
            if sensor_id.startswith(f"{org_id}/")
            for ch in (0, 1)
        ]
        for org_id in org_ids
    }
    query_rng = deployment.rng.stream("bench-dashboard-reads")

    def query(kind: str, org_id: str):
        now = scheduler.now
        if kind == "live":
            return platform.live_data(org_id)
        if kind == "view":
            return view.get(org_id)
        channels = org_channels[org_id]
        channel_id = channels[query_rng.randrange(len(channels))]
        if kind == "raw":
            return platform.raw_range(channel_id, now - RAW_RANGE_SECONDS, now)
        return platform.range_aggregate(channel_id, history_start, now)

    async def one_read(kind: str, org_id: str, due: float) -> None:
        try:
            await query(kind, org_id)
        except Exception:  # any client-visible failure counts as failed
            ops.fail(kind, due, scheduler.now)
            return
        ops.ok(kind, due, scheduler.now)

    def readers(stop: float):
        """Open loop: each read spawns at its due time."""
        in_flight = []

        async def generator(kind: str, org_id: str) -> None:
            # A Poisson process conditioned on its count: the same number
            # of reads of each kind in every run, at uniform random times.
            start = scheduler.now
            count = round(READ_RATE * (stop - start))
            for due in sorted(
                query_rng.uniform(start, stop) for _ in range(count)
            ):
                await scheduler.at(due)
                ops.lateness = max(ops.lateness, scheduler.now - due)
                ops.attempted += 1
                in_flight.append(scheduler.spawn(one_read(kind, org_id, due)))

        async def all_readers() -> None:
            await scheduler.gather(
                [
                    scheduler.spawn(generator(kind, org_id))
                    for org_id in org_ids
                    for kind in READ_KINDS
                ]
            )
            await scheduler.gather(in_flight)

        return all_readers()

    async def staleness_sampler(stop: float) -> None:
        while scheduler.now < stop:
            await scheduler.sleep(STALENESS_SAMPLE_EVERY)
            staleness.append(database.views.staleness_seconds())

    def main(stop: float):
        async def everything() -> None:
            await scheduler.gather(
                [
                    scheduler.spawn(_sensor_fleet(deployment, ops, stop)),
                    scheduler.spawn(readers(stop)),
                    scheduler.spawn(staleness_sampler(stop)),
                ]
            )

        return everything()

    phase = _measure(deployment, main, DASHBOARD_SECONDS, profiler)
    start, stop = phase.start, phase.stop
    problems: list[str] = []

    # Reads are timed from their due time and kept from the second
    # measurement window on (the first is warm-up, as for inserts).
    reads: dict[str, float] = {}
    samples: dict[str, int] = {}
    for kind in READ_KINDS:
        lat = ops.latencies(kind, start + WINDOW, stop)
        samples[kind] = len(lat)
        reads[f"{kind}_p50_ms"] = percentile(lat, 0.50) * 1000.0
        reads[f"{kind}_p99_ms"] = percentile(lat, 0.99) * 1000.0
    reads["view_staleness_p99_ms"] = percentile(sorted(staleness), 0.99) * 1000.0
    samples["view_staleness"] = len(staleness)

    check_rng = deployment.rng.stream("bench-dashboard-check")
    all_channels = [c for org_id in org_ids for c in org_channels[org_id]]
    checked = check_rng.sample(all_channels, CHECKED_CHANNELS)

    async def verify() -> None:
        await scheduler.sleep(2.0)  # quiesce: open delta buffers flush
        now = scheduler.now
        for channel_id in checked:
            lo = history_start + check_rng.uniform(0, 50.0)
            hi = now - check_rng.uniform(0, 20.0)
            agg = await platform.range_aggregate(channel_id, lo, hi)
            raw = await platform.raw_range(channel_id, lo, hi)
            values = [v for _, v in raw]
            if agg["count"] != len(values):
                problems.append(
                    f"dashboard: {channel_id} aggregate count {agg['count']} "
                    f"!= raw count {len(values)}"
                )
                continue
            if values and (
                agg["min"] != min(values)
                or agg["max"] != max(values)
                or not math.isclose(agg["sum"], math.fsum(values), rel_tol=1e-9)
            ):
                problems.append(f"dashboard: {channel_id} aggregate != raw fold")
        folded = 0
        for org_id in org_ids:
            folded += (await view.get(org_id))["count"]
        if folded != ops.points_acked:
            problems.append(
                f"dashboard: views folded {folded} points, sensors acked "
                f"{ops.points_acked}"
            )
        if database.views.pending_deltas():
            problems.append("dashboard: deltas still pending after quiesce")

    scheduler.run_until_complete(verify())
    if preloaded != DASHBOARD_SENSORS * 2 * PRELOAD_POINTS:
        problems.append(f"dashboard: preload stored {preloaded} points")
    return _finish("dashboard", ops, phase, setup_s, problems, reads, samples)


# -- durable-lossy -----------------------------------------------------------

DURABLE_SENSORS = 1600
DURABLE_SECONDS = 8.0
KV_CAPACITY_UNITS = 5000.0
KV_LATENCY = 0.005
LOSS_RATE = 0.01
#: Retries make lost envelopes visible as latency, not failures; ingest
#: is idempotent (``dedup_ingest``), so at-least-once delivery is safe.
DURABLE_RETRY = RetryPolicy(
    max_attempts=5,
    base_delay=0.05,
    multiplier=2.0,
    max_delay=0.5,
    jitter=0.2,
    attempt_timeout=0.5,
)
DURABLE_CALL_DEADLINE = 10.0
DRAIN_SECONDS = 5.0


def run_durable_lossy(seed: int, tracing: bool, profiler=None) -> WorkloadRun:
    """Write-through ingest into a provisioned KV store under 1% loss."""
    saved = PhysicalSensorChannel.write_policy
    PhysicalSensorChannel.write_policy = WritePolicy.WRITE_THROUGH
    try:
        return _durable_lossy(seed, tracing, profiler)
    finally:
        PhysicalSensorChannel.write_policy = saved


def _durable_lossy(seed: int, tracing: bool, profiler) -> WorkloadRun:
    gc.collect()
    t0 = host_clock()
    scheduler = Scheduler()
    store = ProvisionedKVStore(
        scheduler,
        read_capacity_units=KV_CAPACITY_UNITS,
        write_capacity_units=KV_CAPACITY_UNITS,
        latency=ConstantLatency(KV_LATENCY),
    )
    deployment = _build(
        [M5_XLARGE, M5_XLARGE],
        seed,
        tracing,
        scheduler=scheduler,
        grain_storage=store,
        dedup_ingest=True,
    )
    runtime = deployment.runtime
    runtime.config.default_call_deadline = DURABLE_CALL_DEADLINE
    runtime.config.default_retry_policy = DURABLE_RETRY
    scheduler.run_until_complete(provision(deployment, DURABLE_SENSORS))
    injector = NetworkFaultInjector(
        deployment.rng.stream("bench-envelope-loss"),
        loss_rate=LOSS_RATE,
        start=scheduler.now,
    )
    runtime.network.inject_faults(injector)
    setup_s = host_clock() - t0

    ops = _Ops()
    acked: dict[str, list[float]] = {}
    phase = _measure(
        deployment,
        lambda stop: _sensor_fleet(deployment, ops, stop, acked, waves=False),
        DURABLE_SECONDS,
        profiler,
    )
    problems: list[str] = []

    async def shutdown() -> None:
        runtime.network.inject_faults(None)
        await scheduler.sleep(DRAIN_SECONDS)
        await runtime.stop()

    scheduler.run_until_complete(shutdown())

    async def stored_timestamps() -> dict[str, list[float]]:
        rows = await store.scan("state/PhysicalSensorChannel/")
        out = {}
        for key, item in rows:
            doc = item.value.get("tsdoc")
            series = TieredSeries.from_document(doc) if doc else None
            out[key.split("/", 2)[2]] = (
                [ts for ts, _ in series.range(-math.inf, math.inf)]
                if series is not None
                else []
            )
        return out

    stored = scheduler.run_until_complete(stored_timestamps())
    missing = duplicated = 0
    for channel_id, stamps in acked.items():
        have = stored.get(channel_id, [])
        if len(set(have)) != len(have):
            duplicated += 1
        missing += len(set(stamps) - set(have))
    if missing:
        problems.append(f"durable-lossy: {missing} acked points not in the store")
    if duplicated:
        problems.append(f"durable-lossy: {duplicated} channels double-counted points")
    if injector.injected_losses == 0:
        problems.append("durable-lossy: no envelope was lost; loss is untested")
    return _finish("durable-lossy", ops, phase, setup_s, problems)


WORKLOADS = {
    "ingest": run_ingest,
    "dashboard": run_dashboard,
    "durable-lossy": run_durable_lossy,
}
