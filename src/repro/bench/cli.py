"""Command-line entry point: regenerate any figure or ablation.

Usage::

    python -m repro.bench fig6            # one experiment
    python -m repro.bench all             # everything (several minutes)
    python -m repro.bench fig7 --quick    # scaled-down sweep
    python -m repro.bench trace           # traced run: causal trees
    python -m repro.bench trace --smoke   # + invariant checks (CI gate)
    python -m repro.bench profile         # profiled run: CPU attribution,
                                          # health rules, telemetry actors
    python -m repro.bench profile --smoke # + profiling-invariant checks
    python -m repro.bench incident        # recorded netsplit: postmortem dump
    python -m repro.bench incident --smoke# + flight-recorder invariant checks

Perf baselines (every bench in ``baseline.BUILDERS``)::

    python -m repro.bench fig6 --write-baseline BENCH_fig6.json
                                          # run full + smoke sweeps, commit
    python -m repro.bench fig6 --smoke --check-baseline BENCH_fig6.json
                                          # CI perf-regression gate
    python -m repro.bench micro --smoke --json fresh.json
                                          # write the fresh payload only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import experiments
from .baseline import (
    BUILDERS,
    check_against_baseline,
    load_baseline,
    write_baseline,
)
from .chaos import run_chaos_experiment
from .report import format_result

QUICK = {
    "chaos": dict(sensors=100, duration=12.0, crash_at=4.0, lease_seconds=1.5),
    "fig6": dict(sensor_counts=(600, 1200, 1800, 2400), duration=6.0),
    "fig7": dict(scale_factors=(1, 2, 3), duration=4.0),
    "fig8": dict(sensor_counts=(500, 2000), duration=6.0),
    "fig9": dict(sensor_counts=(500, 2000), duration=6.0),
    "placement": dict(sensors=400, duration=4.0),
    "durability": dict(sensors=30, duration=4.0),
    "granularity": dict(cows=30),
    "constraints": dict(transfers=60),
    "cattle": dict(cow_counts=(1000, 5000), duration=4.0),
}

RUNNERS = {
    "chaos": run_chaos_experiment,
    "fig6": experiments.run_fig6,
    "fig7": experiments.run_fig7,
    "fig8": experiments.run_fig8,
    "fig9": experiments.run_fig9,
    "placement": experiments.run_placement_ablation,
    "durability": experiments.run_durability_ablation,
    "granularity": experiments.run_granularity_ablation,
    "constraints": experiments.run_constraints_ablation,
    "cattle": experiments.run_cattle_scaling,
}


def _run_baseline_command(name: str, args: argparse.Namespace) -> int:
    """A baselined bench with --smoke or one of the baseline flags."""
    builder = BUILDERS[name]
    started = time.time()
    if args.write_baseline:
        # Committing a baseline records both modes: the full sweep (the
        # figure) and the smoke sweep the CI gate replays.
        payloads = {"full": builder(False), "smoke": builder(True)}
        write_baseline(args.write_baseline, payloads)
        summary = payloads["full"]["summary"]
        print(f"{name}: wrote {args.write_baseline} ({summary})")
        print(f"  [wall-clock: {time.time() - started:.1f}s]")
        return 0
    fresh = builder(args.smoke)
    print(f"{name} ({fresh['mode']}): {json.dumps(fresh['summary'])}")
    if args.json:
        Path(args.json).write_text(
            json.dumps(fresh, indent=2, sort_keys=True) + "\n"
        )
        print(f"  wrote {args.json}")
    status = 0
    if args.check_baseline:
        failures = check_against_baseline(
            fresh, load_baseline(args.check_baseline)
        )
        if failures:
            for failure in failures:
                print(f"  PERF REGRESSION: {failure}")
            status = 1
        else:
            print(f"  perf gate passed against {args.check_baseline}")
    print(f"  [wall-clock: {time.time() - started:.1f}s]")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's figures on the simulated cluster.",
    )
    commands = sorted(RUNNERS.keys() | BUILDERS.keys())
    parser.add_argument(
        "experiment",
        choices=commands + ["all", "trace", "profile", "incident"],
        help="which figure/ablation to run (or a traced/profiled demo run)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down parameters (seconds instead of minutes)",
    )
    baselined = "/".join(BUILDERS)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="trace/profile/incident: tiny scenario plus invariant checks; "
        f"{baselined}: the sweep the CI perf gate replays",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help=f"{baselined}: write the fresh run's payload as JSON",
    )
    parser.add_argument(
        "--check-baseline",
        metavar="PATH",
        help=f"{baselined}: gate the fresh run against a committed "
        "BENCH_<command>.json (every field must match exactly, apart from "
        "the host-measured ones in baseline.HOST_MEASURED)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help=f"{baselined}: run full + smoke sweeps and (re)write the "
        "committed BENCH_<command>.json",
    )
    args = parser.parse_args(argv)
    if args.experiment == "trace":
        from .tracebench import run_trace_bench

        print(run_trace_bench(smoke=args.smoke))
        return 0
    if args.experiment == "profile":
        from .profilebench import run_profile_bench

        print(run_profile_bench(smoke=args.smoke))
        return 0
    if args.experiment == "incident":
        from .incidentbench import run_incident_bench

        print(run_incident_bench(smoke=args.smoke))
        return 0
    if args.experiment in BUILDERS:
        if args.json or args.check_baseline or args.write_baseline or args.smoke:
            return _run_baseline_command(args.experiment, args)
        if args.experiment not in RUNNERS:
            payload = BUILDERS[args.experiment](False)
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
    names = sorted(RUNNERS) if args.experiment == "all" else [args.experiment]
    for name in names:
        runner = RUNNERS[name]
        kwargs = QUICK.get(name, {}) if args.quick else {}
        started = time.time()
        result = runner(**kwargs)
        elapsed = time.time() - started
        print(format_result(result))
        print(f"  [wall-clock: {elapsed:.1f}s]")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
