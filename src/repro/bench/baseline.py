"""Perf-regression baselines: the BENCH JSON files and their CI gate.

Every bench the CLI can baseline commits ``BENCH_<command>.json`` at the
repository root: ``{"bench": <command>, "modes": {"full": payload,
"smoke": payload}}``.  The ``full`` mode is the committed figure sweep; the
``smoke`` mode is a sweep cheap enough for CI, which replays it::

    python -m repro.bench fig6 --smoke --check-baseline BENCH_fig6.json

Every payload has one schema: ``bench``, ``mode``, ``title``, ``summary``
and ``series: {row_name: {field: value}}`` (a bench may add top-level keys
such as ``checks``; the gate reads only ``series``).  The gate holds every
field of every baseline row *exactly*: the simulator runs on seeded virtual
time, so a healthy checkout reproduces each deterministic field bit for
bit, and any drift is a behaviour change to explain and re-record.  The
only exceptions are the host-measured fields listed in
:data:`HOST_MEASURED`, which vary with the machine the bench runs on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from . import experiments
from .elastic import build_elastic
from .experiments import FigPoint, FigResult
from .partition import build_partition
from .speed import build_speed
from .tsbench import build_tsbench
from .views import build_views

#: Host-measured fields, per bench, keyed ``field`` (every row) or
#: ``row/field`` (one row, taking precedence).  ``None`` means reported,
#: not gated.  A negative number is the fraction the field may drop below
#: its baseline; a positive one the fraction it may rise above it.  Every
#: field not listed here has tolerance 0: it is gated exactly.
HOST_MEASURED: dict[str, dict[str, float | None]] = {
    "speed": {
        # Calibration-normalized events/s: host noise that the paired
        # calibration loop cancels only in part.  The full-stack series mix
        # in allocator and cache effects the loop cannot cancel at all.
        "events_per_mop": -0.10,
        "runtime/events_per_mop": -0.30,
        "chaos/events_per_mop": -0.30,
        # tracemalloc's peak moves with the interpreter build.
        "alloc_peak_bytes_per_event": 0.25,
        "alloc_peak_kb": None,
        "wall_seconds": None,
        "events_per_sec": None,
    },
    # Wall-clock timings and their tiered/raw ratios.
    "tsbench": dict.fromkeys(
        (
            "append_us_per_point_raw",
            "append_us_per_point_tiered",
            "recent_scan_us_raw",
            "recent_scan_us_tiered",
            "cold_scan_us_raw",
            "cold_scan_us_tiered",
            "recent_scan_ratio",
            "cold_scan_ratio",
        )
    ),
}

#: Smoke sweeps: one point in the linear region, one at the seed saturation
#: knee, one past it where only the fast path keeps up.
FIG6_SMOKE = dict(sensor_counts=(600, 1800, 3000), duration=4.0)
FIG7_SMOKE = dict(scale_factors=(1, 2), duration=4.0)


def _row(point: FigPoint) -> dict:
    row = {
        "sensors": point.sensors,
        "servers": point.servers,
        "offered_rps": point.offered_rps,
        "throughput_rps": round(point.throughput, 2),
        "utilization": round(point.utilization, 4),
    }
    if point.insert is not None:
        row["p50_ms"] = round(point.insert.p50 * 1000, 2)
        row["p99_ms"] = round(point.insert.p99 * 1000, 2)
    return row


def _fig_payload(
    bench: str,
    runner: Callable[..., FigResult],
    mode: str,
    smoke_kwargs: dict,
) -> dict:
    """Seed vs fast path, one row per ``<variant>/<sensors>x<servers>``.

    ``seed`` is the pre-fast-path operating point (``fast_path=False``),
    the calibration the paper's Figure 6/7 numbers validate; ``fast`` is
    the ingestion fast path (delivery batching, dispatch-overhead
    amortization, directory caching, group commit).
    """
    kwargs = dict(smoke_kwargs) if mode == "smoke" else {}
    runs = {
        "fast": runner(fast_path=True, **kwargs),
        "seed": runner(fast_path=False, **kwargs),
    }
    series: dict[str, dict] = {}
    saturation: dict[str, float] = {}
    for variant, result in runs.items():
        rows = [_row(point) for point in result.points]
        for row in rows:
            series[f"{variant}/{row['sensors']}x{row['servers']}"] = row
        saturation[variant] = max((row["throughput_rps"] for row in rows), default=0.0)
    return {
        "bench": bench,
        "mode": mode,
        "title": runs["fast"].title,
        "series": series,
        "summary": {
            "seed_saturation_rps": saturation["seed"],
            "fast_saturation_rps": saturation["fast"],
            "speedup": round(saturation["fast"] / max(1e-9, saturation["seed"]), 3),
        },
    }


def build_fig6(smoke: bool = False) -> dict:
    """Figure 6 (single-server saturation), seed vs fast path."""
    return _fig_payload(
        "fig6", experiments.run_fig6, "smoke" if smoke else "full", FIG6_SMOKE
    )


def build_fig7(smoke: bool = False) -> dict:
    """Figure 7 (scale-out), seed vs fast path."""
    return _fig_payload(
        "fig7", experiments.run_fig7, "smoke" if smoke else "full", FIG7_SMOKE
    )


def build_micro(smoke: bool = False) -> dict:
    """Mechanism-level counters proving where the fast path's win comes from.

    Runs one small single-silo load twice (fast path on/off) and reports the
    batching, directory-cache and group-commit counters next to the A/B
    latency numbers — the profiler-style accounting the acceptance criteria
    ask for ("savings come from network/storage, not workload distortion").

    The figure runs follow the paper and disable per-request persistence,
    which leaves group commit idle there; the ``*_durable`` variants rerun
    the same load with write-through channel state against a provisioned
    store so the storage half of the fast path is measured too.
    """
    from ..kernel import Scheduler
    from ..net.latency import ConstantLatency
    from ..runtime.persistence import WritePolicy
    from ..shm.channel import PhysicalSensorChannel
    from ..storage import ProvisionedKVStore
    from .workload import LoadConfig, build_deployment, execute, provision

    sensors = 300 if smoke else 600
    duration = 3.0 if smoke else 6.0
    variants: dict[str, dict] = {}
    plans = [
        ("fast", True, False),
        ("seed", False, False),
        ("fast_durable", True, True),
        ("seed_durable", False, True),
    ]
    for label, fast_path, durable in plans:
        original_policy = PhysicalSensorChannel.write_policy
        if durable:
            PhysicalSensorChannel.write_policy = WritePolicy.WRITE_THROUGH
        try:
            scheduler = Scheduler()
            store = None
            if durable:
                store = ProvisionedKVStore(
                    scheduler,
                    read_capacity_units=5000.0,
                    write_capacity_units=5000.0,
                    latency=ConstantLatency(0.005),
                )
            deployment = build_deployment(
                [experiments.M5_LARGE],
                seed=11,
                scheduler=scheduler,
                fast_path=fast_path,
                grain_storage=store,
            )
            deployment.scheduler.run_until_complete(
                provision(deployment, sensors)
            )
            run = execute(
                deployment, LoadConfig(sensors=sensors, duration=duration)
            )
        finally:
            PhysicalSensorChannel.write_policy = original_policy
        insert = run.summary("insert")
        metrics = run.metrics
        messages = metrics.get("net.messages", 0.0)
        envelopes = metrics.get("net.envelopes", 0.0)
        batched = metrics.get("net.batched_messages", 0.0)
        hits = metrics.get("directory.cache_hits", 0.0)
        misses = metrics.get("directory.cache_misses", 0.0)
        variants[label] = {
            "sensors": sensors,
            "duration_s": duration,
            "throughput_rps": round(
                insert.throughput_mean if insert else 0.0, 2
            ),
            "p50_ms": round((insert.p50 if insert else 0.0) * 1000, 2),
            "p99_ms": round((insert.p99 if insert else 0.0) * 1000, 2),
            "net_messages": messages,
            "envelopes": envelopes,
            "batched_messages": batched,
            "avg_cohort": round(messages / envelopes, 3) if envelopes else 0.0,
            "batched_fraction": round(batched / messages, 3) if messages else 0.0,
            "largest_envelope": metrics.get("net.largest_envelope", 0.0),
            "immediate_flush_fraction": round(
                metrics.get("batch.immediate_flushes", 0.0)
                / max(1.0, metrics.get("batch.flushes", 0.0)),
                3,
            ),
            "directory_cache_hit_rate": round(
                hits / max(1.0, hits + misses), 4
            ),
            "directory_cache_invalidations": metrics.get(
                "directory.cache_invalidations", 0.0
            ),
            "groupcommit_batches": metrics.get("groupcommit.batches", 0.0),
            "groupcommit_round_trips_saved": metrics.get(
                "groupcommit.round_trips_saved", 0.0
            ),
        }
    fast, seed = variants["fast"], variants["seed"]
    fast_durable = variants["fast_durable"]
    return {
        "bench": "micro",
        "mode": "smoke" if smoke else "full",
        "title": "Fast-path mechanism microbenchmarks (one m5.large silo)",
        "series": variants,
        "summary": {
            "p50_speedup": round(
                seed["p50_ms"] / max(1e-9, fast["p50_ms"]), 3
            ),
            "durable_p50_speedup": round(
                variants["seed_durable"]["p50_ms"]
                / max(1e-9, fast_durable["p50_ms"]),
                3,
            ),
            "avg_cohort": fast["avg_cohort"],
            "directory_cache_hit_rate": fast["directory_cache_hit_rate"],
            "groupcommit_round_trips_saved": fast_durable[
                "groupcommit_round_trips_saved"
            ],
        },
    }


BUILDERS: dict[str, Callable[[bool], dict]] = {
    "fig6": build_fig6,
    "fig7": build_fig7,
    "micro": build_micro,
    "elastic": build_elastic,
    "partition": build_partition,
    "speed": build_speed,
    "views": build_views,
    "tsbench": build_tsbench,
}


def write_baseline(path: str | Path, payloads: dict[str, dict]) -> None:
    """Write ``{"modes": {mode: payload}}``, merging into an existing file."""
    target = Path(path)
    document: dict = {"modes": {}}
    if target.exists():
        document = json.loads(target.read_text())
        document.setdefault("modes", {})
    for mode, payload in payloads.items():
        document["modes"][mode] = payload
    document["bench"] = next(iter(payloads.values()))["bench"]
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_baseline(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def check_against_baseline(fresh: dict, baseline: dict) -> list[str]:
    """Compare a fresh payload to the committed file; return gate failures.

    Every field of every row in the baseline's copy of the fresh run's
    mode must be present in the fresh run and equal to the baseline, unless
    :data:`HOST_MEASURED` declares it host-measured.  A fresh row the
    baseline lacks is not gated (the sweep grew).
    """
    base_payload = baseline.get("modes", {}).get(fresh["mode"])
    if base_payload is None:
        return [
            f"baseline has no '{fresh['mode']}' mode for bench "
            f"'{fresh['bench']}'; regenerate it with --write-baseline"
        ]
    fresh_series = fresh["series"]
    rules = HOST_MEASURED.get(fresh["bench"], {})
    failures: list[str] = []
    for name, base_row in base_payload["series"].items():
        row = fresh_series.get(name)
        if row is None:
            failures.append(f"{name}: row missing from the fresh run")
            continue
        for field, base_value in base_row.items():
            label = f"{name}/{field}"
            if field not in row:
                failures.append(f"{label}: field missing from the fresh run")
                continue
            value = row[field]
            tolerance = rules.get(label, rules.get(field, 0.0))
            if tolerance is None or value == base_value:
                continue
            if tolerance == 0.0:
                failures.append(f"{label}: {value!r} != baseline {base_value!r}")
                continue
            limit = base_value * (1 + tolerance)
            if (value - limit) * tolerance > 0:
                direction = "fell below" if tolerance < 0 else "rose above"
                failures.append(
                    f"{label}: {value} {direction} gate {limit:.4g} "
                    f"(baseline {base_value}, tolerance {abs(tolerance):.0%})"
                )
    return failures
