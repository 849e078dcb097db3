"""Unit tests for the star-schema analytical tier."""

import pytest

from repro.storage import ArchiveLog
from repro.warehouse import StarSchema, parse_channel_id, time_key_of


def test_parse_channel_id_scheme():
    dim = parse_channel_id("org-3/s-7/c-1")
    assert dim.org_id == "org-3"
    assert dim.sensor_id == "org-3/s-7"
    assert not dim.is_virtual
    virtual = parse_channel_id("org-3/s-7/vc")
    assert virtual.is_virtual


def test_parse_degenerate_channel_id():
    dim = parse_channel_id("weird")
    assert dim.org_id == "unknown"


def test_time_key_hour_grain():
    assert time_key_of(0.0) == 0
    assert time_key_of(3599.9) == 0
    assert time_key_of(3600.0) == 1
    assert time_key_of(120.0, grain_seconds=60) == 2


def test_load_facts_and_dimension_dedup():
    schema = StarSchema()
    schema.load_fact("org-0/s-0/c-0", 10.0, 1.0)
    schema.load_fact("org-0/s-0/c-0", 20.0, 2.0)
    schema.load_fact("org-0/s-1/c-0", 30.0, 3.0)
    assert schema.fact_count == 3
    assert schema.channel_count == 2


def test_aggregate_by_org():
    schema = StarSchema()
    for i in range(4):
        schema.load_fact(f"org-0/s-{i % 2}/c-0", float(i), float(i))
    schema.load_fact("org-1/s-0/c-0", 0.0, 100.0)
    rows = schema.aggregate(group_by=("org_id",))
    assert [row.group for row in rows] == [("org-0",), ("org-1",)]
    org0 = rows[0]
    assert org0.count == 4
    assert org0.mean == pytest.approx(1.5)
    assert rows[1].maximum == 100.0


def test_aggregate_by_time_and_filter():
    schema = StarSchema(time_grain_seconds=60)
    for ts in (0, 30, 61, 62, 130):
        schema.load_fact("org-0/s-0/c-0", float(ts), 1.0)
    rows = schema.aggregate(
        group_by=("time_key",),
        where=lambda dim, fact: fact.timestamp < 100,
    )
    assert [(row.group[0], row.count) for row in rows] == [(0, 2), (1, 2)]


def test_aggregate_unknown_attribute_rejected():
    with pytest.raises(ValueError):
        StarSchema().aggregate(group_by=("favourite_color",))


def test_time_series_for_channel():
    schema = StarSchema(time_grain_seconds=60)
    for ts, value in [(0, 2.0), (30, 4.0), (70, 6.0)]:
        schema.load_fact("c-main", float(ts), value)
    schema.load_fact("c-other", 0.0, 999.0)
    series = schema.time_series("c-main")
    assert series == [(0, 3.0), (1, 6.0)]
    assert schema.time_series("missing") == []


def test_load_archive_export_path():
    archive = ArchiveLog()
    for ts in range(5):
        archive.append("org-0/s-0/c-0", float(ts), float(ts * 10))
    archive.append("org-0/s-0/c-1", 0.0, 7.0)
    schema = StarSchema()
    loaded = schema.load_archive(archive)
    assert loaded == 6
    assert schema.fact_count == 6
    rows = schema.aggregate(group_by=("channel_id",))
    assert {row.group[0] for row in rows} == {"org-0/s-0/c-0", "org-0/s-0/c-1"}


def test_load_archive_selected_streams():
    archive = ArchiveLog()
    archive.append("a", 0.0, 1.0)
    archive.append("b", 0.0, 2.0)
    schema = StarSchema()
    assert schema.load_archive(archive, streams=["a"]) == 1
    assert schema.channel_count == 1


def test_aggregate_extents_ignore_nan_in_any_order():
    """NaN counts and poisons the total but is never an extent, wherever it
    sits in the group; an all-NaN group has no extents."""
    nan = float("nan")
    rows = {}
    for name, values in (
        ("nan-first", [nan, 5.0]), ("nan-last", [5.0, nan]), ("all-nan", [nan]),
    ):
        schema = StarSchema()
        for i, value in enumerate(values):
            schema.load_fact("org-0/s-0/c-0", float(i), value)
        (rows[name],) = schema.aggregate(group_by=("org_id",))
    for name in ("nan-first", "nan-last"):
        row = rows[name]
        assert (row.count, row.minimum, row.maximum) == (2, 5.0, 5.0)
        assert row.total != row.total  # NaN
    assert rows["all-nan"].count == 1
    assert rows["all-nan"].minimum is None and rows["all-nan"].maximum is None
