"""The perf gate: baseline JSON write/load/check over the one payload schema."""

import copy
from pathlib import Path

import pytest

from repro.bench.baseline import (
    BUILDERS,
    HOST_MEASURED,
    check_against_baseline,
    load_baseline,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def row(sensors=600, servers=1, throughput=1000.0, p99=100.0):
    return {
        "sensors": sensors,
        "servers": servers,
        "offered_rps": float(sensors),
        "throughput_rps": throughput,
        "utilization": 0.5,
        "p50_ms": 50.0,
        "p99_ms": p99,
    }


def payload(mode="smoke", **row_kwargs):
    point = row(**row_kwargs)
    return {
        "bench": "fig6",
        "mode": mode,
        "title": "test",
        "series": {f"fast/{point['sensors']}x{point['servers']}": point},
        "summary": {},
    }


def baseline_for(fresh):
    return {"bench": fresh["bench"], "modes": {fresh["mode"]: fresh}}


def committed_smoke(bench):
    return load_baseline(REPO_ROOT / f"BENCH_{bench}.json")["modes"]["smoke"]


def host_rule(bench, name, field):
    rules = HOST_MEASURED.get(bench, {})
    return rules.get(f"{name}/{field}", rules.get(field, 0.0))


def perturbed(value):
    """A value of the same JSON type that differs from ``value``."""
    if isinstance(value, str):
        return value + "-drifted"
    if isinstance(value, list):
        return value + [None]
    if isinstance(value, dict):
        return {**value, "drifted": 1}
    return value + 1


def exact_fields(bench):
    series = committed_smoke(bench)["series"]
    return [
        (name, field)
        for name, fields in series.items()
        for field in fields
        if host_rule(bench, name, field) == 0.0
    ]


def speed_with(name, field, factor):
    base = committed_smoke("speed")
    fresh = copy.deepcopy(base)
    fresh["series"][name][field] = base["series"][name][field] * factor
    return check_against_baseline(fresh, baseline_for(base))


def test_identical_run_passes():
    fresh = payload()
    assert check_against_baseline(fresh, baseline_for(payload())) == []


def test_throughput_drop_within_tolerance_passes():
    # Only host-measured fields carry a tolerance: the calibration-
    # normalized speed throughput may drop 10% (30% for full-stack series).
    assert speed_with("kernel", "events_per_mop", 0.91) == []
    assert speed_with("runtime", "events_per_mop", 0.71) == []


def test_throughput_drop_beyond_tolerance_fails():
    # A virtual-time throughput is deterministic: any drop fails.
    fresh = payload(throughput=999.99)
    failures = check_against_baseline(fresh, baseline_for(payload()))
    assert len(failures) == 1
    assert "throughput" in failures[0]


def test_p99_rise_beyond_tolerance_fails():
    fresh = payload(p99=100.01)
    failures = check_against_baseline(fresh, baseline_for(payload()))
    assert len(failures) == 1
    assert "p99" in failures[0]


def test_improvements_always_pass():
    # Host-measured fields pass however far they move the better way...
    assert speed_with("kernel", "events_per_mop", 5.0) == []
    assert speed_with("chaos", "alloc_peak_bytes_per_event", 0.1) == []
    # ...while a deterministic field that "improves" is still drift.
    fresh = payload(throughput=5000.0, p99=10.0)
    assert len(check_against_baseline(fresh, baseline_for(payload()))) == 2


def test_points_match_on_sensors_and_servers():
    # A fresh row with no baseline counterpart is not gated (sweep grew).
    fresh = payload()
    fresh["series"]["fast/900x1"] = row(sensors=900, throughput=1.0, p99=9999.0)
    assert check_against_baseline(fresh, baseline_for(payload())) == []


def test_missing_mode_is_a_failure():
    fresh = payload(mode="smoke")
    baseline = {"bench": "fig6", "modes": {"full": payload(mode="full")}}
    failures = check_against_baseline(fresh, baseline)
    assert len(failures) == 1
    assert "no 'smoke' mode" in failures[0]


def test_micro_variant_rows_are_gated():
    fresh = {
        "bench": "micro",
        "mode": "smoke",
        "series": {"fast": row(throughput=500.0)},
        "summary": {},
    }
    base = {
        "bench": "micro",
        "mode": "smoke",
        "series": {"fast": row(throughput=1000.0)},
        "summary": {},
    }
    failures = check_against_baseline(
        fresh, {"bench": "micro", "modes": {"smoke": base}}
    )
    assert len(failures) == 1


def test_write_baseline_merges_modes(tmp_path):
    target = tmp_path / "BENCH_fig6.json"
    write_baseline(target, {"full": payload(mode="full")})
    write_baseline(target, {"smoke": payload(mode="smoke")})
    document = load_baseline(target)
    assert set(document["modes"]) == {"full", "smoke"}
    assert document["bench"] == "fig6"
    # Re-writing one mode replaces it without touching the other.
    write_baseline(target, {"smoke": payload(mode="smoke", throughput=2.0)})
    document = load_baseline(target)
    smoke = document["modes"]["smoke"]["series"]["fast/600x1"]
    full = document["modes"]["full"]["series"]["fast/600x1"]
    assert smoke["throughput_rps"] == 2.0
    assert full["throughput_rps"] == 1000.0


def test_gate_thresholds_are_the_documented_ones():
    assert set(HOST_MEASURED) == {"speed", "tsbench"}
    speed = HOST_MEASURED["speed"]
    assert speed["events_per_mop"] == pytest.approx(-0.10)
    assert speed["runtime/events_per_mop"] == pytest.approx(-0.30)
    assert speed["chaos/events_per_mop"] == pytest.approx(-0.30)
    assert speed["alloc_peak_bytes_per_event"] == pytest.approx(0.25)
    for field in ("alloc_peak_kb", "wall_seconds", "events_per_sec"):
        assert speed[field] is None
    assert all(rule is None for rule in HOST_MEASURED["tsbench"].values())
    tolerances = {
        rule
        for rules in HOST_MEASURED.values()
        for rule in rules.values()
        if rule is not None
    }
    assert tolerances == {-0.10, -0.30, 0.25}


# -- table-driven cases over the committed BENCH files ----------------------


@pytest.mark.parametrize("bench", sorted(BUILDERS))
def test_committed_file_matches_its_command(bench):
    document = load_baseline(REPO_ROOT / f"BENCH_{bench}.json")
    assert document["bench"] == bench
    assert set(document["modes"]) == {"full", "smoke"}
    for mode, body in document["modes"].items():
        assert body["bench"] == bench
        assert body["mode"] == mode
        assert {"bench", "mode", "title", "series", "summary"} <= set(body)
        assert all(isinstance(fields, dict) for fields in body["series"].values())
    assert check_against_baseline(document["modes"]["smoke"], document) == []


@pytest.mark.parametrize("bench", sorted(BUILDERS))
def test_any_deterministic_field_change_fails(bench):
    base = committed_smoke(bench)
    fields = exact_fields(bench)
    assert fields
    for name, field in fields:
        fresh = copy.deepcopy(base)
        fresh["series"][name][field] = perturbed(base["series"][name][field])
        failures = check_against_baseline(fresh, baseline_for(base))
        assert [f.split(":")[0] for f in failures] == [f"{name}/{field}"]


@pytest.mark.parametrize(
    "bench,name,field,value",
    [
        ("partition", "netsplit@101", "scenario", "crash"),
        ("elastic", "autoscaled", "scale_events", []),
        ("fig6", "seed/3000x1", "throughput_rps", 1979.01),
        ("speed", "ask", "pending_events_peak", 49),
        ("tsbench", "engine", "compression_ratio", 7.28),
    ],
)
def test_string_list_and_number_drift_fails(bench, name, field, value):
    base = committed_smoke(bench)
    fresh = copy.deepcopy(base)
    fresh["series"][name][field] = value
    failures = check_against_baseline(fresh, baseline_for(base))
    assert len(failures) == 1 and failures[0].startswith(f"{name}/{field}:")


@pytest.mark.parametrize(
    "name,field,factor,passes",
    [
        ("kernel", "events_per_mop", 0.91, True),
        ("kernel", "events_per_mop", 0.89, False),
        ("fig6", "events_per_mop", 0.89, False),
        ("runtime", "events_per_mop", 0.71, True),
        ("runtime", "events_per_mop", 0.69, False),
        ("chaos", "events_per_mop", 0.69, False),
        ("ask", "alloc_peak_bytes_per_event", 1.24, True),
        ("ask", "alloc_peak_bytes_per_event", 1.26, False),
    ],
)
def test_speed_host_tolerances(name, field, factor, passes):
    failures = speed_with(name, field, factor)
    assert (failures == []) is passes
    if not passes:
        assert len(failures) == 1 and failures[0].startswith(f"{name}/{field}:")


@pytest.mark.parametrize(
    "bench,name,field",
    [
        ("speed", "kernel", "wall_seconds"),
        ("speed", "runtime", "events_per_sec"),
        ("speed", "chaos", "alloc_peak_kb"),
        ("tsbench", "engine", "append_us_per_point_tiered"),
        ("tsbench", "engine", "cold_scan_us_raw"),
        ("tsbench", "engine", "recent_scan_ratio"),
        ("tsbench", "engine", "cold_scan_ratio"),
    ],
)
def test_host_only_field_changes_pass(bench, name, field):
    base = committed_smoke(bench)
    for factor in (0.01, 100.0):
        fresh = copy.deepcopy(base)
        fresh["series"][name][field] = base["series"][name][field] * factor
        assert check_against_baseline(fresh, baseline_for(base)) == []


def test_missing_row_or_field_fails():
    base = committed_smoke("elastic")
    fresh = copy.deepcopy(base)
    del fresh["series"]["static"]
    failures = check_against_baseline(fresh, baseline_for(base))
    assert failures == ["static: row missing from the fresh run"]
    fresh = copy.deepcopy(base)
    del fresh["series"]["autoscaled"]["migrations"]
    failures = check_against_baseline(fresh, baseline_for(base))
    assert failures == ["autoscaled/migrations: field missing from the fresh run"]
    # A host-measured field must still be reported.
    base = committed_smoke("speed")
    fresh = copy.deepcopy(base)
    del fresh["series"]["kernel"]["wall_seconds"]
    failures = check_against_baseline(fresh, baseline_for(base))
    assert failures == ["kernel/wall_seconds: field missing from the fresh run"]

