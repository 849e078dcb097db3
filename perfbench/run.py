"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats the workload (fresh deployment, same seed) until
``--seconds`` host seconds have passed, at least :data:`MIN_REPS` times,
and reports the end-to-end metrics: ``setup_s`` as the median over the
repetitions, virtual metrics from the first (every repetition must
reproduce them exactly).  It also prints ``sim_ops_per_s``, from the
fastest repetition, which is not part of the JSON result (see
perfbench/README.md).  ``--trace 1`` runs the workload once untraced,
for exact counts, and once traced under the sampling profiler, for the
host self-time and virtual-time splits; it writes the ledger to
``perfbench/out/ledger-<workload>-seed<seed>.json`` and reports the
per-layer metrics.

Every metric is printed as a line with its unit and sample count.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 2
OUT_DIR = HERE / "out"

#: End-to-end metrics: name -> (unit, clock).
END_TO_END = {
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "insert_rps": ("1/s", "virtual"),
    "insert_p50_ms": ("ms", "virtual"),
    "insert_p99_ms": ("ms", "virtual"),
    "completed_frac": ("ratio", "virtual"),
    "bytes_per_point": ("B", "virtual"),
}
#: Read-path metrics only the ``dashboard`` workload produces; printed,
#: not part of the JSON result (see perfbench/README.md).
READ_METRICS = {
    "live_p50_ms": "live", "live_p99_ms": "live",
    "raw_p50_ms": "raw", "raw_p99_ms": "raw",
    "agg_p50_ms": "agg", "agg_p99_ms": "agg",
    "view_p50_ms": "view", "view_p99_ms": "view",
    "view_staleness_p99_ms": "view_staleness",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def line(name: str, value: float, unit: str, note: str) -> None:
    print(f"{name:34s} {value!r:>24} {unit:6s} {note}")


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, list, list[str]]:
    """Repeat the workload; host medians plus the determinism check."""
    reps = []
    began = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - began < seconds:
        reps.append(workload(seed, False))
        gc.collect()
    first = reps[0]
    problems = list(first.problems)
    for index, rep in enumerate(reps[1:], start=2):
        problems.extend(rep.problems)
        if (rep.virtual, rep.counters, rep.attempted, rep.failed) != (
            first.virtual, first.counters, first.attempted, first.failed
        ):
            problems.append(
                f"repetition {index} did not reproduce repetition 1's virtual "
                "metrics and counters"
            )
    metrics = {
        "setup_s": statistics.median(rep.setup_s for rep in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update({name: first.virtual[name] for name in END_TO_END if name in first.virtual})
    return metrics, reps, problems


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # Benchmark the checkout's own source, never an installed copy.
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no package source at {ROOT / 'src' / 'repro'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import ledger
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]

    if args.trace == 0:
        metrics, reps, problems = run_untraced(workload, args.seed, args.seconds)
        first = reps[0]
        print(f"# {args.workload} seed={args.seed}: {len(reps)} repetitions")
        for name, (unit, clock) in END_TO_END.items():
            if name == "setup_s":
                note = f"(n={len(reps)} repetitions, host CPU, median)"
            elif name == "peak_rss_mb":
                note = "(process peak)"
            elif name.startswith("insert_p"):
                note = f"(n={first.samples['insert']}, virtual)"
            else:
                note = f"(n={first.attempted} ops, virtual)"
            line(name, metrics[name], unit, note)
        for name, kind in READ_METRICS.items():
            if name in first.virtual:
                line(name, first.virtual[name], "ms",
                     f"(n={first.samples[kind]}, virtual)")
        # Other tenants of a shared machine only ever slow a repetition
        # down, so the fastest one is the steadiest estimate of the
        # simulator's own cost.
        line("sim_ops_per_s",
             (first.attempted - first.failed) / min(rep.run_s for rep in reps),
             "1/s", f"(n={len(reps)} repetitions, host CPU, fastest)")
        for index, rep in enumerate(reps, start=1):
            print(f"# repetition {index}: set-up {rep.setup_s:.3f} s, "
                  f"measured phase {rep.run_s:.3f} s host CPU")
        line("generator_lateness_ms", first.virtual["generator_lateness_ms"], "ms",
             "(max, virtual)")
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, (unit, _) in END_TO_END.items()}
        attempted, failed = first.attempted, first.failed
    else:
        untraced = workload(args.seed, False)
        gc.collect()
        sampler = ledger.SelfTimeSampler()
        traced = workload(args.seed, True, sampler)
        problems = untraced.problems + traced.problems
        if traced.virtual != untraced.virtual:
            diff = sorted(
                k for k in untraced.virtual
                if traced.virtual.get(k) != untraced.virtual[k]
            )
            problems.append(f"tracing changed virtual metrics: {diff}")
        doc = ledger.build_ledger(
            args.workload,
            args.seed,
            sampler,
            traced.spans,
            untraced.counters,
            traced.run_s / untraced.run_s,
        )
        problems.extend(ledger.validate_ledger(doc))
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"ledger-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"# {args.workload} seed={args.seed}: ledger written to "
              f"{path.relative_to(ROOT)}")
        for name, value in doc["metrics"].items():
            if name.endswith("self_share"):
                note = f"(n={doc['self_samples']} samples, host, traced)"
            elif "vshare" in name:
                note = (f"(n={doc['vshare_requests']} of "
                        f"{doc['client_requests']} requests, virtual, traced)")
            elif name == "obs.trace_overhead":
                note = "(traced/untraced host time)"
            else:
                note = f"(n={untraced.attempted} ops, exact, untraced)"
            line(name, value, ledger.PER_LAYER[name], note)
        result = {name: {"value": value, "unit": ledger.PER_LAYER[name]}
                  for name, value in doc["metrics"].items()}
        attempted, failed = untraced.attempted, untraced.failed

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
