"""The per-layer ledger: host self time, virtual-time split and counts.

A ledger is one JSON document per (workload, seed), written by a traced
run of ``perfbench/run.py``.  Its keys:

``schema``
    ``"perfbench-ledger/1"``.
``workload``, ``seed``
    What was run.
``layers``
    The layer names, in report order (:data:`LAYERS`).
``modules``
    Every module the profiler sampled: ``{module: {"layer", "self_share"}}``.
    This is the module→layer map; a module outside ``repro.<layer>`` for a
    layer in :data:`LAYERS` (the standard library, builtins reached from
    it, ``repro.bench`` helpers, this benchmark) belongs to ``other``.
``self_share``
    Share of host self time per layer over the traced measured phase.
    Sums to 1.
``self_samples``, ``sample_interval_s``
    How many profiler samples the shares rest on, and their requested
    spacing in seconds.
``vshare_p99``
    The tracer's virtual-time split of the slowest 1% of client requests
    into ``queue``, ``cpu``, ``network``, ``storage`` and ``other``.  Sums
    to 1.
``vshare_requests``, ``client_requests``
    How many client requests the split rests on, out of how many traced.
``counts``
    Exact per-layer counts from the untraced run of the same seed.
``trace_overhead``
    Host time of the traced measured phase over the untraced one's.
``metrics``
    The flat per-layer metrics ``run.py`` reports (names as in
    ``BENCHMARK.json``).

Host self time comes from a sampling profiler: every
:data:`SAMPLE_INTERVAL` wall-clock seconds (the measured phase is
CPU-bound and runs no threads) a ``SIGALRM`` handler charges one sample
to the module of the innermost Python frame.  Time inside a C
builtin is charged to the Python function that called it.
"""

from __future__ import annotations

import math
import signal
from collections import Counter
from pathlib import PurePath

SCHEMA = "perfbench-ledger/1"
LAYERS = ("kernel", "runtime", "net", "storage", "shm", "aodb", "obs", "other")
VSHARE_PARTS = ("queue", "cpu", "network", "storage", "other")
#: Which per-layer metric reports which part of the virtual-time split.
VSHARE_METRICS = {
    "runtime.queue_vshare_p99": "queue",
    "kernel.cpu_vshare_p99": "cpu",
    "net.vshare_p99": "network",
    "storage.vshare_p99": "storage",
    "other.vshare_p99": "other",
}
#: Every per-layer metric a ledger reports, with its unit.
PER_LAYER = {
    "kernel.self_share": "ratio",
    "kernel.events_per_op": "count",
    "kernel.pending_peak": "count",
    "kernel.timer_cancels": "count",
    "kernel.cpu_util": "ratio",
    "kernel.cpu_vshare_p99": "ratio",
    "runtime.self_share": "ratio",
    "runtime.asks_per_op": "count",
    "runtime.dir_cache_hit_rate": "ratio",
    "runtime.pool_hit_rate": "ratio",
    "runtime.queue_vshare_p99": "ratio",
    "runtime.retries": "count",
    "runtime.deadlines_exceeded": "count",
    "net.self_share": "ratio",
    "net.msgs_per_envelope": "count",
    "net.remote_frac": "ratio",
    "net.lost": "count",
    "net.vshare_p99": "ratio",
    "net.delta_flushes": "count",
    "net.deltas_per_flush": "count",
    "storage.self_share": "ratio",
    "storage.blocks_sealed": "count",
    "storage.blocks_decoded_per_query": "count",
    "storage.block_skip_rate": "ratio",
    "storage.summary_answer_rate": "ratio",
    "storage.compression_ratio": "ratio",
    "storage.kv_writes_per_insert": "count",
    "storage.groupcommit_batch_size": "count",
    "storage.throttled": "count",
    "storage.vshare_p99": "ratio",
    "shm.self_share": "ratio",
    "shm.points_per_op": "count",
    "aodb.self_share": "ratio",
    "aodb.view_deltas": "count",
    "obs.self_share": "ratio",
    "obs.trace_overhead": "ratio",
    "other.self_share": "ratio",
    "other.vshare_p99": "ratio",
}
SAMPLE_INTERVAL = 0.001
#: The slowest fraction of client requests the virtual split covers.
TAIL = 0.01
#: Tolerance on the sum-to-one checks (float rounding only).
SUM_TOLERANCE = 1e-9


def module_of(filename: str) -> str:
    """Dotted module name of a source file, from its ``repro`` root."""
    parts = PurePath(filename).with_suffix("").parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[index:])
    return PurePath(filename).stem


def layer_of(module: str) -> str:
    """The layer a dotted module name belongs to."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class SelfTimeSampler:
    """Counts ``SIGALRM`` samples per source file while active.

    Use as a context manager around the code to profile; it runs in the
    main thread (signal handlers do) and starts no thread of its own.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL) -> None:
        self.interval = interval
        self.files: Counter[str] = Counter()
        self._previous = None

    def _sample(self, _signum, frame) -> None:
        if frame is not None:
            self.files[frame.f_code.co_filename] += 1

    def __enter__(self) -> "SelfTimeSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def modules(self) -> Counter[str]:
        """Samples per dotted module name."""
        out: Counter[str] = Counter()
        for filename, count in self.files.items():
            out[module_of(filename)] += count
        return out


def virtual_split(spans, tail: float = TAIL) -> tuple[dict[str, float], int, int]:
    """Queue/cpu/network/storage/other shares of the slowest client requests.

    A client request is a root span whose caller is ``client``.  Each of
    the slowest ``tail`` of them is split along its critical path: the
    root, then at each level the last child to finish among those that
    finished before their parent (a one-way ``tell`` that outlives its
    sender is not waited for).  The four measured components of every
    span on the path are summed, and the rest of the root's duration is
    ``other``.  Returns the shares, the number of requests split and the
    number of client requests.
    """
    children: dict[int, list] = {}
    roots = []
    for span in spans:
        if span.end is None:
            continue
        if span.parent_id is None:
            if span.caller == "client":
                roots.append(span)
        else:
            children.setdefault(span.parent_id, []).append(span)
    roots.sort(key=lambda s: (s.end - s.start, s.span_id))
    slow = roots[len(roots) - math.ceil(len(roots) * tail):]
    totals = dict.fromkeys(VSHARE_PARTS, 0.0)
    for root in slow:
        span = root
        measured = 0.0
        while span is not None:
            for part in ("queue", "cpu", "network", "storage"):
                value = getattr(span, part)
                totals[part] += value
                measured += value
            waited = [c for c in children.get(span.span_id, ()) if c.end <= span.end]
            span = max(waited, key=lambda c: (c.end, c.span_id), default=None)
        # Clamped: the path's components can exceed the root's duration
        # by float rounding only.
        totals["other"] += max(0.0, (root.end - root.start) - measured)
    duration = sum(totals.values())
    if duration <= 0:
        totals["other"], duration = 1.0, 1.0
    return {part: totals[part] / duration for part in VSHARE_PARTS}, len(slow), len(roots)


def build_ledger(
    workload: str,
    seed: int,
    sampler: SelfTimeSampler,
    spans,
    counts: dict[str, float],
    trace_overhead: float,
) -> dict:
    """Assemble the ledger document of one traced run."""
    modules = sampler.modules()
    samples = sum(modules.values())
    by_layer = Counter()
    for module, count in modules.items():
        by_layer[layer_of(module)] += count
    self_share = {
        layer: (by_layer[layer] / samples if samples else 0.0) for layer in LAYERS
    }
    split, used, clients = virtual_split(spans)
    metrics = {f"{layer}.self_share": self_share[layer] for layer in LAYERS}
    metrics.update(counts)
    metrics.update({name: split[part] for name, part in VSHARE_METRICS.items()})
    metrics["obs.trace_overhead"] = trace_overhead
    return {
        "schema": SCHEMA,
        "workload": workload,
        "seed": seed,
        "layers": list(LAYERS),
        "modules": {
            module: {
                "layer": layer_of(module),
                "self_share": count / samples,
            }
            for module, count in sorted(modules.items())
        },
        "self_share": self_share,
        "self_samples": samples,
        "sample_interval_s": sampler.interval,
        "vshare_p99": split,
        "vshare_requests": used,
        "client_requests": clients,
        "counts": dict(counts),
        "trace_overhead": trace_overhead,
        "metrics": metrics,
    }


def validate_ledger(doc: dict) -> list[str]:
    """Problems with a ledger document's shape; empty when it is sound."""
    problems = []
    expected = {
        "schema", "workload", "seed", "layers", "modules", "self_share",
        "self_samples", "sample_interval_s", "vshare_p99", "vshare_requests",
        "client_requests", "counts", "trace_overhead", "metrics",
    }
    if set(doc) != expected:
        return [f"ledger keys {sorted(doc)} != {sorted(expected)}"]
    if doc["schema"] != SCHEMA:
        problems.append(f"ledger schema {doc['schema']!r}")
    if doc["layers"] != list(LAYERS):
        problems.append(f"ledger layers {doc['layers']}")
    if set(doc["self_share"]) != set(LAYERS):
        problems.append("self_share must have one entry per layer")
    elif doc["self_samples"] < 1:
        problems.append("no profiler samples")
    elif abs(sum(doc["self_share"].values()) - 1.0) > SUM_TOLERANCE:
        problems.append(f"self shares sum to {sum(doc['self_share'].values())}")
    for module, row in doc["modules"].items():
        if row["layer"] != layer_of(module):
            problems.append(f"module {module} mapped to {row['layer']}")
    split = doc["vshare_p99"]
    if set(split) != set(VSHARE_PARTS):
        problems.append("vshare_p99 must have queue/cpu/network/storage/other")
    else:
        if abs(sum(split.values()) - 1.0) > SUM_TOLERANCE:
            problems.append(f"vshares sum to {sum(split.values())}")
        negative = [part for part, value in split.items() if value < 0]
        if negative:
            problems.append(f"negative vshares: {negative}")
    if set(doc["metrics"]) != set(PER_LAYER):
        problems.append(
            f"metrics differ from PER_LAYER: "
            f"{sorted(set(doc['metrics']) ^ set(PER_LAYER))}"
        )
    for name, value in doc["metrics"].items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number")
    return problems
